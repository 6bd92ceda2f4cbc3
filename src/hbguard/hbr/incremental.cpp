#include "hbguard/hbr/incremental.hpp"

#include <algorithm>
#include <functional>

namespace hbguard {

namespace {

bool is_bgp(Protocol protocol) {
  return protocol == Protocol::kEbgp || protocol == Protocol::kIbgp;
}

/// Injective key of an optional prefix: bit 40 marks presence, so "no
/// prefix" (0) never collides with 0.0.0.0/0.
std::uint64_t prefix_key(const std::optional<Prefix>& prefix) {
  if (!prefix) return 0;
  return (std::uint64_t{1} << 40) | (std::uint64_t{prefix->address().bits()} << 8) |
         prefix->length();
}

std::uint64_t rib_key(const std::optional<Prefix>& prefix, Protocol protocol) {
  return prefix_key(prefix) | (std::uint64_t{static_cast<std::uint8_t>(protocol)} << 41);
}

template <typename Map, typename Key>
auto* find_index(const Map& map, const Key& key) {
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

std::size_t RuleMatchEngine::ChannelKeyHash::operator()(const ChannelKey& key) const noexcept {
  std::uint64_t routers = (std::uint64_t{key.from} << 32) | key.to;
  std::uint64_t content = (std::uint64_t{key.content} << 1) | (key.withdraw ? 1u : 0u);
  return std::hash<std::uint64_t>{}((routers * 0x9E3779B97F4A7C15ull) ^ content);
}

void RuleMatchEngine::index_insert(TimeIndex& index, RecordRef ref) const {
  const IoRecord& record = at(ref);
  // Logs arrive nearly sorted; search from the back.
  auto position = index.end();
  while (position != index.begin()) {
    const IoRecord& previous = at(*(position - 1));
    if (previous.logged_time < record.logged_time ||
        (previous.logged_time == record.logged_time && previous.id < record.id)) {
      break;
    }
    --position;
  }
  index.insert(position, ref);
}

void RuleMatchEngine::index_record(RouterIndex& local, RecordRef ref, const IoRecord& r) {
  switch (r.kind) {
    case IoKind::kConfigChange:
      index_insert(local.config, ref);
      break;
    case IoKind::kHardwareStatus:
      index_insert(local.hardware, ref);
      break;
    case IoKind::kRecvAdvert:
      if (r.protocol == Protocol::kOspf) {
        index_insert(local.ospf_recv, ref);
        index_insert(local.ospf_recv_by_lsa[intern(r.detail)], ref);
      } else if (is_bgp(r.protocol)) {
        index_insert(local.bgp_recv[prefix_key(r.prefix)], ref);
        if (!r.withdraw) index_insert(local.bgp_announce[prefix_key(r.prefix)], ref);
      }
      break;
    case IoKind::kRibUpdate:
      index_insert(local.rib[rib_key(r.prefix, r.protocol)], ref);
      if (is_bgp(r.protocol)) index_insert(local.bgp_rib[prefix_key(r.prefix)], ref);
      break;
    case IoKind::kFibUpdate:
    case IoKind::kSendAdvert:
      break;
  }
}

const IoRecord* RuleMatchEngine::nearest(const TimeIndex* index, SimTime before,
                                         SimTime window, SimTime slack) const {
  if (index == nullptr) return nullptr;
  auto it = std::upper_bound(index->begin(), index->end(), before,
                             [&](SimTime t, RecordRef r) { return t < at(r).logged_time; });
  const IoRecord* backward = nullptr;
  if (it != index->begin()) {
    const IoRecord& candidate = at(*(it - 1));
    if (candidate.logged_time >= before - window) backward = &candidate;
  }
  const IoRecord* forward = nullptr;
  if (it != index->end()) {
    const IoRecord& candidate = at(*it);
    if (candidate.logged_time <= before + slack) forward = &candidate;
  }
  if (backward == nullptr) return forward;
  if (forward == nullptr) return backward;
  return (before - backward->logged_time) <= (forward->logged_time - before) ? backward
                                                                             : forward;
}

std::uint32_t RuleMatchEngine::intern(const std::string& text) {
  return content_ids_.try_emplace(text, static_cast<std::uint32_t>(content_ids_.size()))
      .first->second;
}

std::uint32_t RuleMatchEngine::prefix_content_id(const std::optional<Prefix>& prefix) {
  std::uint64_t key = prefix_key(prefix);
  auto it = prefix_content_ids_.find(key);
  if (it != prefix_content_ids_.end()) return it->second;
  std::uint32_t id = intern(prefix ? prefix->to_string() : std::string());
  prefix_content_ids_.emplace(key, id);
  return id;
}

std::string RuleMatchEngine::channel_key(const IoRecord& record, bool is_send) {
  RouterId from = is_send ? record.router : record.peer;
  RouterId to = is_send ? record.peer : record.router;
  std::string content = record.protocol == Protocol::kOspf
                            ? record.detail
                            : (record.prefix ? record.prefix->to_string() : std::string());
  return std::to_string(from) + ">" + std::to_string(to) + "|" +
         (record.withdraw ? "w|" : "a|") + content;
}

RuleMatchEngine::ChannelKey RuleMatchEngine::channel_of(const IoRecord& record, bool is_send) {
  ChannelKey key;
  key.from = is_send ? record.router : record.peer;
  key.to = is_send ? record.peer : record.router;
  key.withdraw = record.withdraw;
  key.content = record.protocol == Protocol::kOspf ? intern(record.detail)
                                                   : prefix_content_id(record.prefix);
  return key;
}

void RuleMatchEngine::add_all(std::span<const IoRecord> records,
                              std::vector<InferredHbr>& out) {
  for (const IoRecord& record : records) add(record, out);
}

void RuleMatchEngine::add(const IoRecord& record, std::vector<InferredHbr>& out) {
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
  RouterIndex& local = routers_[stored.router];
  index_record(local, ref, stored);
  ++records_seen_;

  match_as_late_cause(stored, out);
  match_as_effect(local, stored, out);
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

void RuleMatchEngine::match_as_effect(const RouterIndex& local, const IoRecord& r,
                                      std::vector<InferredHbr>& out) const {
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
  auto find_config = [&](SimTime window) { return nearest(&local.config, t, window, ls); };
  auto find_hardware = [&] { return nearest(&local.hardware, t, w, ls); };

  switch (r.kind) {
    case IoKind::kRibUpdate: {
      const IoRecord* recv = nullptr;
      const char* recv_rule = nullptr;
      if (is_bgp(r.protocol)) {
        recv = nearest(find_index(local.bgp_recv, prefix_key(r.prefix)), t, w, ls);
        recv_rule = "recv-advert->rib";
      } else if (r.protocol == Protocol::kOspf) {
        recv = nearest(&local.ospf_recv, t, w, ls);
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
        const IoRecord* stored_path =
            nearest(find_index(local.bgp_announce, prefix_key(r.prefix)), t,
                    options_.soft_reconfig_window_us, ls);
        if (stored_path != nullptr) emit(stored_path, "recv-advert->rib");
      }
      break;
    }

    case IoKind::kFibUpdate: {
      const IoRecord* rib = nearest(find_index(local.rib, rib_key(r.prefix, r.protocol)), t, w, ls);
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
        const IoRecord* rib = nearest(find_index(local.bgp_rib, prefix_key(r.prefix)), t, w, ls);
        if (rib != nullptr) {
          emit(rib, "bgp-rib->send");
        } else {
          Candidate pick = closest({{find_config(options_.soft_reconfig_window_us),
                                     "config->send"},
                                    {find_hardware(), "hardware->send"}});
          emit(pick.record, pick.rule != nullptr ? pick.rule : "");
        }
      } else {
        // An LSA text never interned has never been received.
        const TimeIndex* by_lsa = nullptr;
        if (auto id = content_ids_.find(r.detail); id != content_ids_.end()) {
          by_lsa = find_index(local.ospf_recv_by_lsa, id->second);
        }
        const IoRecord* same_lsa = nearest(by_lsa, t, w, ls);
        if (same_lsa != nullptr) {
          emit(same_lsa, "lsa-recv->flood");
        } else {
          const IoRecord* any_lsa = nearest(&local.ospf_recv, t, w, ls);
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

void RuleMatchEngine::match_channels(RecordRef self, const IoRecord& r,
                                     std::vector<InferredHbr>& out) {
  if (r.peer == kExternalRouter || r.peer == kInvalidRouter) return;
  if (r.kind == IoKind::kSendAdvert) {
    Channel& channel = channels_[channel_of(r, true)];
    // Receives that this (too-late) send can no longer serve are dropped,
    // so one unserved receive does not stall the channel's FIFO pairing.
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
    Channel& channel = channels_[channel_of(r, false)];
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

void RuleMatchEngine::match_as_late_cause(const IoRecord& r, std::vector<InferredHbr>& out) {
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

}  // namespace hbguard
