#include "hbguard/capture/tap.hpp"

#include <algorithm>
#include <utility>

namespace hbguard {

IoId CaptureHub::record(IoRecord record) {
  record.id = next_id_++;
  if (record.router >= per_router_seq_.size()) {
    per_router_seq_.resize(record.router + 1, 0);
  }
  record.router_seq = per_router_seq_[record.router]++;
  SimTime jitter = router_clock_offset(record.router);
  if (options_.timestamp_jitter_us > 0) {
    jitter += rng_.uniform_int(-options_.timestamp_jitter_us, options_.timestamp_jitter_us);
  }
  record.logged_time = std::max<SimTime>(0, record.true_time + jitter);

  last_lost_ = false;
  if (options_.loss_probability > 0.0 && rng_.chance(options_.loss_probability)) {
    ++lost_;
    last_lost_ = true;
    return record.id;
  }
  IoId id = record.id;
  if (transport_ != nullptr) {
    transport_->submit(std::move(record));
  } else {
    SimTime stamped = record.true_time;
    deliver(std::move(record), stamped);
  }
  return id;
}

void CaptureHub::deliver(IoRecord record, SimTime now) {
  if (health_ != nullptr) {
    health_->admit(std::move(record), now,
                   [this](IoRecord released) { append(std::move(released)); });
  } else {
    append(std::move(record));
  }
}

void CaptureHub::append(IoRecord record) {
  ++generation_;
  records_.push_back(std::move(record));
  for (const auto& listener : listeners_) listener(records_.back());
}

void CaptureHub::enable_stream_health(StreamHealthOptions options) {
  health_ = std::make_unique<StreamHealthTracker>(options);
  for (RouterId router = 0; router < per_router_seq_.size(); ++router) {
    if (per_router_seq_[router] > 0) health_->prime(router, per_router_seq_[router]);
  }
}

void CaptureHub::tick_health(SimTime now) {
  if (health_ == nullptr) return;
  health_->tick(now, [this](IoRecord released) { append(std::move(released)); });
}

SimTime CaptureHub::router_clock_offset(RouterId router) {
  if (options_.clock_offset_us <= 0) return 0;
  if (router >= per_router_offset_.size()) {
    per_router_offset_.resize(router + 1, 0);
    offset_drawn_.resize(router + 1, false);
  }
  if (!offset_drawn_[router]) {
    per_router_offset_[router] =
        rng_.uniform_int(-options_.clock_offset_us, options_.clock_offset_us);
    offset_drawn_[router] = true;
  }
  return per_router_offset_[router];
}

}  // namespace hbguard
