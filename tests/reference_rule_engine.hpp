// Test oracle: the linear-walk incremental rule matcher.
//
// This is the RuleMatchEngine that predates the indexed one, kept verbatim
// apart from its name and header-only form. It keeps one time-sorted log
// per router and answers every rule lookup by walking that log backwards
// under a predicate until the rule's window runs out. Its cost grows with
// history, but its behaviour is the specification the indexed engine must
// reproduce edge for edge (test_hbr_oracle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hbguard/hbr/inference.hpp"
#include "hbguard/hbr/rule_matcher.hpp"

namespace hbguard {

class LinearRuleMatchEngine {
 public:
  explicit LinearRuleMatchEngine(MatcherOptions options = {}) : options_(options) {}

  void attach_store(const std::vector<IoRecord>* store) { external_ = store; }

  void add(const IoRecord& record, std::vector<InferredHbr>& out) {
    RecordRef ref;
    std::less_equal<const IoRecord*> le;
    std::less<const IoRecord*> lt;
    if (external_ != nullptr && !external_->empty() && le(external_->data(), &record) &&
        lt(&record, external_->data() + external_->size())) {
      ref = static_cast<RecordRef>(&record - external_->data());
    } else {
      ref = kOwnedBit | static_cast<RecordRef>(owned_.size());
      owned_.push_back(record);
    }
    const IoRecord& stored = at(ref);
    log_insert(logs_[stored.router], ref);
    ++records_seen_;

    match_as_late_cause(stored, out);
    match_as_effect(stored, out);
    if (channel_matching_) match_channels(ref, stored, out);

    // Track effects that might still gain a late cause; prune old ones.
    if (stored.kind == IoKind::kRibUpdate || stored.kind == IoKind::kFibUpdate ||
        stored.kind == IoKind::kSendAdvert) {
      recent_effects_.push_back(ref);
    }
    SimTime horizon = stored.logged_time - options_.local_slack_us - 1;
    while (!recent_effects_.empty() && at(recent_effects_.front()).logged_time < horizon) {
      recent_effects_.pop_front();
    }
  }

  void add_all(std::span<const IoRecord> records, std::vector<InferredHbr>& out) {
    for (const IoRecord& record : records) add(record, out);
  }

  void set_channel_matching(bool enabled) { channel_matching_ = enabled; }

  static std::string channel_key(const IoRecord& record, bool is_send) {
    RouterId from = is_send ? record.router : record.peer;
    RouterId to = is_send ? record.peer : record.router;
    std::string content = record.protocol == Protocol::kOspf
                              ? record.detail
                              : (record.prefix ? record.prefix->to_string() : std::string());
    return std::to_string(from) + ">" + std::to_string(to) + "|" +
           (record.withdraw ? "w|" : "a|") + content;
  }

  std::size_t records_seen() const { return records_seen_; }

 private:
  using RecordRef = std::uint32_t;
  static constexpr RecordRef kOwnedBit = 0x80000000u;

  static bool is_bgp(Protocol protocol) {
    return protocol == Protocol::kEbgp || protocol == Protocol::kIbgp;
  }

  const IoRecord& at(RecordRef ref) const {
    return (ref & kOwnedBit) != 0 ? owned_[ref & ~kOwnedBit] : (*external_)[ref];
  }

  /// Per-router records sorted by (logged_time, id).
  struct RouterLog {
    std::vector<RecordRef> records;
  };

  /// FIFO send→recv channel (ordered session).
  struct Channel {
    std::deque<RecordRef> unmatched_sends;
    std::deque<RecordRef> unmatched_recvs;
  };

  void log_insert(RouterLog& log, RecordRef ref) {
    const IoRecord& record = at(ref);
    // Logs arrive nearly sorted; search from the back.
    auto position = log.records.end();
    while (position != log.records.begin()) {
      const IoRecord& previous = at(*(position - 1));
      if (previous.logged_time < record.logged_time ||
          (previous.logged_time == record.logged_time && previous.id < record.id)) {
        break;
      }
      --position;
    }
    log.records.insert(position, ref);
  }

  template <typename Pred>
  const IoRecord* log_nearest(const RouterLog& log, SimTime before, SimTime window,
                              SimTime slack, Pred&& pred) const {
    const std::vector<RecordRef>& refs = log.records;
    auto it = std::upper_bound(refs.begin(), refs.end(), before,
                               [&](SimTime t, RecordRef r) { return t < at(r).logged_time; });
    const IoRecord* backward = nullptr;
    for (auto walk = it; walk != refs.begin();) {
      --walk;
      const IoRecord& candidate = at(*walk);
      if (candidate.logged_time < before - window) break;
      if (pred(candidate)) {
        backward = &candidate;
        break;
      }
    }
    const IoRecord* forward = nullptr;
    for (auto walk = it; walk != refs.end(); ++walk) {
      const IoRecord& candidate = at(*walk);
      if (candidate.logged_time > before + slack) break;
      if (pred(candidate)) {
        forward = &candidate;
        break;
      }
    }
    if (backward == nullptr) return forward;
    if (forward == nullptr) return backward;
    return (before - backward->logged_time) <= (forward->logged_time - before) ? backward
                                                                               : forward;
  }

  void match_as_effect(const IoRecord& r, std::vector<InferredHbr>& out) {
    const RouterLog& local = logs_[r.router];
    SimTime t = r.logged_time;
    const SimTime w = options_.short_window_us;
    const SimTime ls = options_.local_slack_us;

    auto emit = [&](const IoRecord* from, const char* rule) {
      if (from != nullptr && from->id != r.id) out.push_back({from->id, r.id, 1.0, rule});
    };
    struct Candidate {
      const IoRecord* record;
      const char* rule;
    };
    auto closest = [](std::initializer_list<Candidate> candidates) -> Candidate {
      Candidate best{nullptr, nullptr};
      for (const Candidate& c : candidates) {
        if (c.record == nullptr) continue;
        if (best.record == nullptr || c.record->logged_time > best.record->logged_time) best = c;
      }
      return best;
    };
    auto find_config = [&](SimTime window) {
      return log_nearest(local, t, window, ls,
                         [](const IoRecord& c) { return c.kind == IoKind::kConfigChange; });
    };
    auto find_hardware = [&] {
      return log_nearest(local, t, w, ls,
                         [](const IoRecord& c) { return c.kind == IoKind::kHardwareStatus; });
    };

    switch (r.kind) {
      case IoKind::kRibUpdate: {
        const IoRecord* recv = nullptr;
        const char* recv_rule = nullptr;
        if (is_bgp(r.protocol)) {
          recv = log_nearest(local, t, w, ls, [&](const IoRecord& c) {
            return c.kind == IoKind::kRecvAdvert && is_bgp(c.protocol) && c.prefix == r.prefix;
          });
          recv_rule = "recv-advert->rib";
        } else if (r.protocol == Protocol::kOspf) {
          recv = log_nearest(local, t, w, ls, [](const IoRecord& c) {
            return c.kind == IoKind::kRecvAdvert && c.protocol == Protocol::kOspf;
          });
          recv_rule = "recv-lsa->ospf-rib";
        }
        Candidate pick = closest({{recv, recv_rule},
                                  {find_config(options_.soft_reconfig_window_us), "config->rib"},
                                  {find_hardware(), "hardware->rib"}});
        emit(pick.record, pick.rule != nullptr ? pick.rule : "");
        if (recv != nullptr && recv != pick.record && is_bgp(r.protocol)) emit(recv, recv_rule);
        if (recv == nullptr && pick.record != nullptr && is_bgp(r.protocol) &&
            (pick.record->kind == IoKind::kConfigChange ||
             pick.record->kind == IoKind::kHardwareStatus)) {
          const IoRecord* stored_path = log_nearest(
              local, t, options_.soft_reconfig_window_us, ls, [&](const IoRecord& c) {
                return c.kind == IoKind::kRecvAdvert && is_bgp(c.protocol) &&
                       c.prefix == r.prefix && !c.withdraw;
              });
          if (stored_path != nullptr) emit(stored_path, "recv-advert->rib");
        }
        break;
      }

      case IoKind::kFibUpdate: {
        const IoRecord* rib = log_nearest(local, t, w, ls, [&](const IoRecord& c) {
          return c.kind == IoKind::kRibUpdate && c.prefix == r.prefix &&
                 c.protocol == r.protocol;
        });
        if (rib != nullptr) {
          emit(rib, "rib->fib");
        } else {
          Candidate pick = closest({{find_config(options_.soft_reconfig_window_us),
                                     "config->fib"},
                                    {find_hardware(), "hardware->fib"}});
          emit(pick.record, pick.rule != nullptr ? pick.rule : "");
        }
        break;
      }

      case IoKind::kSendAdvert: {
        if (is_bgp(r.protocol)) {
          const IoRecord* rib = log_nearest(local, t, w, ls, [&](const IoRecord& c) {
            return c.kind == IoKind::kRibUpdate && is_bgp(c.protocol) && c.prefix == r.prefix;
          });
          if (rib != nullptr) {
            emit(rib, "bgp-rib->send");
          } else {
            Candidate pick = closest({{find_config(options_.soft_reconfig_window_us),
                                       "config->send"},
                                      {find_hardware(), "hardware->send"}});
            emit(pick.record, pick.rule != nullptr ? pick.rule : "");
          }
        } else {
          const IoRecord* same_lsa = log_nearest(local, t, w, ls, [&](const IoRecord& c) {
            return c.kind == IoKind::kRecvAdvert && c.protocol == Protocol::kOspf &&
                   c.detail == r.detail;
          });
          if (same_lsa != nullptr) {
            emit(same_lsa, "lsa-recv->flood");
          } else {
            const IoRecord* any_lsa = log_nearest(local, t, w, ls, [](const IoRecord& c) {
              return c.kind == IoKind::kRecvAdvert && c.protocol == Protocol::kOspf;
            });
            Candidate pick = closest({{any_lsa, "lsa-recv->flood"},
                                      {find_config(options_.soft_reconfig_window_us),
                                       "config->ospf-flood"},
                                      {find_hardware(), "hardware->ospf-flood"}});
            emit(pick.record, pick.rule != nullptr ? pick.rule : "");
          }
        }
        break;
      }

      case IoKind::kRecvAdvert:
      case IoKind::kConfigChange:
      case IoKind::kHardwareStatus:
        break;
    }
  }

  void match_channels(RecordRef self, const IoRecord& r, std::vector<InferredHbr>& out) {
    if (r.peer == kExternalRouter || r.peer == kInvalidRouter) return;
    if (r.kind == IoKind::kSendAdvert) {
      Channel& channel = channels_[channel_key(r, true)];
      // Receives that this (too-late) send can no longer serve are dropped,
      // matching the batch matcher's skip semantics.
      while (!channel.unmatched_recvs.empty() &&
             r.logged_time > at(channel.unmatched_recvs.front()).logged_time +
                                 options_.cross_router_slack_us) {
        channel.unmatched_recvs.pop_front();
      }
      if (!channel.unmatched_recvs.empty()) {
        const IoRecord& recv = at(channel.unmatched_recvs.front());
        channel.unmatched_recvs.pop_front();
        out.push_back({r.id, recv.id, 1.0, "send->recv"});
      } else {
        channel.unmatched_sends.push_back(self);
      }
    } else if (r.kind == IoKind::kRecvAdvert) {
      Channel& channel = channels_[channel_key(r, false)];
      if (!channel.unmatched_sends.empty() &&
          at(channel.unmatched_sends.front()).logged_time <=
              r.logged_time + options_.cross_router_slack_us) {
        const IoRecord& send = at(channel.unmatched_sends.front());
        channel.unmatched_sends.pop_front();
        out.push_back({send.id, r.id, 1.0, "send->recv"});
      } else {
        channel.unmatched_recvs.push_back(self);
      }
    }
  }

  void match_as_late_cause(const IoRecord& r, std::vector<InferredHbr>& out) {
    if (options_.local_slack_us <= 0 || recent_effects_.empty()) return;
    bool possible_cause = r.kind == IoKind::kConfigChange || r.kind == IoKind::kHardwareStatus ||
                          r.kind == IoKind::kRecvAdvert || r.kind == IoKind::kRibUpdate;
    if (!possible_cause) return;

    for (RecordRef effect_ref : recent_effects_) {
      const IoRecord& effect = at(effect_ref);
      if (effect.router != r.router) continue;
      if (effect.logged_time > r.logged_time ||
          effect.logged_time < r.logged_time - options_.local_slack_us) {
        continue;
      }
      // Does `r` qualify as a cause of `effect` under some same-router rule?
      const char* rule = nullptr;
      switch (effect.kind) {
        case IoKind::kRibUpdate:
          if (r.kind == IoKind::kRecvAdvert && is_bgp(r.protocol) && is_bgp(effect.protocol) &&
              r.prefix == effect.prefix) {
            rule = "recv-advert->rib";
          } else if (r.kind == IoKind::kConfigChange) {
            rule = "config->rib";
          } else if (r.kind == IoKind::kHardwareStatus) {
            rule = "hardware->rib";
          } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                     effect.protocol == Protocol::kOspf) {
            rule = "recv-lsa->ospf-rib";
          }
          break;
        case IoKind::kFibUpdate:
          if (r.kind == IoKind::kRibUpdate && r.prefix == effect.prefix &&
              r.protocol == effect.protocol) {
            rule = "rib->fib";
          }
          break;
        case IoKind::kSendAdvert:
          if (r.kind == IoKind::kRibUpdate && is_bgp(r.protocol) && is_bgp(effect.protocol) &&
              r.prefix == effect.prefix) {
            rule = "bgp-rib->send";
          } else if (r.kind == IoKind::kRecvAdvert && r.protocol == Protocol::kOspf &&
                     effect.protocol == Protocol::kOspf && r.detail == effect.detail) {
            rule = "lsa-recv->flood";
          }
          break;
        default:
          break;
      }
      if (rule != nullptr) out.push_back({r.id, effect.id, 1.0, rule});
    }
  }

  MatcherOptions options_;
  bool channel_matching_ = true;
  const std::vector<IoRecord>* external_ = nullptr;
  std::deque<IoRecord> owned_;  // fallback copies (no store / foreign records)
  std::map<RouterId, RouterLog> logs_;
  std::map<std::string, Channel> channels_;
  /// Recent effects that could still acquire a better/late cause, kept for
  /// the slack horizon.
  std::deque<RecordRef> recent_effects_;
  std::size_t records_seen_ = 0;
};

}  // namespace hbguard
