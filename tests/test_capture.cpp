#include <gtest/gtest.h>

#include "hbguard/capture/tap.hpp"
#include "record_index.hpp"

namespace hbguard {
namespace {

IoRecord make_record(IoKind kind, SimTime when, const char* prefix = nullptr) {
  IoRecord record;
  record.kind = kind;
  record.true_time = when;
  if (prefix != nullptr) record.prefix = *Prefix::parse(prefix);
  return record;
}

TEST(CaptureHub, AssignsIdsAndSequences) {
  CaptureHub hub;
  RouterTap tap0(&hub, 0);
  RouterTap tap1(&hub, 1);

  IoId a = tap0.record(make_record(IoKind::kConfigChange, 10));
  IoId b = tap1.record(make_record(IoKind::kFibUpdate, 20, "10.0.0.0/8"));
  IoId c = tap0.record(make_record(IoKind::kSendAdvert, 30, "10.0.0.0/8"));

  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);

  RecordIndex index(hub.records());
  const IoRecord* ra = index.find(a);
  const IoRecord* rb = index.find(b);
  const IoRecord* rc = index.find(c);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(rc, nullptr);
  EXPECT_EQ(ra->router, 0u);
  EXPECT_EQ(ra->router_seq, 0u);
  EXPECT_EQ(rc->router_seq, 1u);  // second record of router 0
  EXPECT_EQ(rb->router_seq, 0u);
}

TEST(CaptureHub, PerfectClocksByDefault) {
  CaptureHub hub;
  RouterTap tap(&hub, 0);
  IoId id = tap.record(make_record(IoKind::kFibUpdate, 1234));
  const IoRecord* r = RecordIndex(hub.records()).find(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->logged_time, 1234);
}

TEST(CaptureHub, JitterBoundsRespected) {
  CaptureOptions options;
  options.timestamp_jitter_us = 100;
  CaptureHub hub(options, 99);
  RouterTap tap(&hub, 0);
  std::vector<IoId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(tap.record(make_record(IoKind::kFibUpdate, 10'000)));
  }
  RecordIndex index(hub.records());
  for (IoId id : ids) {
    const IoRecord* r = index.find(id);
    ASSERT_NE(r, nullptr);
    EXPECT_GE(r->logged_time, 9'900);
    EXPECT_LE(r->logged_time, 10'100);
  }
}

TEST(CaptureHub, JitterNeverProducesNegativeTime) {
  CaptureOptions options;
  options.timestamp_jitter_us = 1000;
  CaptureHub hub(options, 3);
  RouterTap tap(&hub, 0);
  std::vector<IoId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(tap.record(make_record(IoKind::kFibUpdate, 5)));
  RecordIndex index(hub.records());
  for (IoId id : ids) {
    const IoRecord* r = index.find(id);
    ASSERT_NE(r, nullptr);
    EXPECT_GE(r->logged_time, 0);
  }
}

TEST(CaptureHub, LossDropsRecordsButKeepsIds) {
  CaptureOptions options;
  options.loss_probability = 0.5;
  CaptureHub hub(options, 7);
  RouterTap tap(&hub, 0);
  const int n = 1000;
  for (int i = 0; i < n; ++i) tap.record(make_record(IoKind::kFibUpdate, i));
  EXPECT_EQ(hub.events_seen(), static_cast<std::uint64_t>(n));
  EXPECT_GT(hub.events_lost(), 300u);
  EXPECT_LT(hub.events_lost(), 700u);
  EXPECT_EQ(hub.records().size() + hub.events_lost(), static_cast<std::size_t>(n));
  // Ids remain strictly increasing among survivors.
  IoId last = 0;
  for (const IoRecord& r : hub.records()) {
    EXPECT_GT(r.id, last);
    last = r.id;
  }
}

TEST(CaptureHub, FindLostRecordReturnsNull) {
  CaptureOptions options;
  options.loss_probability = 1.0;
  CaptureHub hub(options, 1);
  RouterTap tap(&hub, 0);
  IoId id = tap.record(make_record(IoKind::kFibUpdate, 1));
  EXPECT_EQ(RecordIndex(hub.records()).find(id), nullptr);
}

TEST(CaptureHub, SubscribersSeeSurvivingRecords) {
  CaptureHub hub;
  std::vector<IoId> seen;
  hub.subscribe([&](const IoRecord& r) { seen.push_back(r.id); });
  RouterTap tap(&hub, 0);
  tap.record(make_record(IoKind::kFibUpdate, 1));
  tap.record(make_record(IoKind::kRibUpdate, 2));
  EXPECT_EQ(seen, (std::vector<IoId>{1, 2}));
}

TEST(RecordSlice, StaysValidUntilNextAppend) {
  CaptureHub hub;
  RouterTap tap(&hub, 0);
  tap.record(make_record(IoKind::kFibUpdate, 1));
  tap.record(make_record(IoKind::kFibUpdate, 2));

  RecordSlice slice = hub.records_since(0);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_TRUE(slice.valid());
  EXPECT_EQ(slice[0].id, 1u);
  EXPECT_EQ(slice.back().id, 2u);

  RecordSlice tail = slice.subspan(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.front().id, 2u);

  tap.record(make_record(IoKind::kFibUpdate, 3));
  EXPECT_FALSE(slice.valid());
}

TEST(RecordSlice, DebugBuildAssertsOnUseAfterAppend) {
  CaptureHub hub;
  RouterTap tap(&hub, 0);
  tap.record(make_record(IoKind::kFibUpdate, 1));
  RecordSlice slice = hub.records_since(0);
  tap.record(make_record(IoKind::kFibUpdate, 2));
  EXPECT_DEBUG_DEATH({ (void)slice.data(); }, "RecordSlice used after CaptureHub append");
}

TEST(RecordSlice, LostRecordsDoNotInvalidate) {
  CaptureOptions options;
  options.loss_probability = 1.0;
  CaptureHub hub(options, 1);
  RouterTap tap(&hub, 0);
  tap.record(make_record(IoKind::kFibUpdate, 1));
  RecordSlice slice = hub.records_since(0);
  tap.record(make_record(IoKind::kFibUpdate, 2));  // dropped: no append
  EXPECT_TRUE(slice.valid());
  EXPECT_TRUE(slice.empty());
}

// ---------------------------------------------------------------------------
// StreamHealthTracker admission.

IoRecord seq_record(RouterId router, std::uint64_t seq, bool fib_reset = false) {
  IoRecord record;
  record.router = router;
  record.router_seq = seq;
  record.kind = fib_reset ? IoKind::kHardwareStatus : IoKind::kFibUpdate;
  record.fib_reset = fib_reset;
  return record;
}

struct HealthHarness {
  StreamHealthTracker tracker;
  std::vector<std::uint64_t> released;
  StreamHealthTracker::Sink sink = [this](IoRecord r) { released.push_back(r.router_seq); };

  explicit HealthHarness(StreamHealthOptions options = {}) : tracker(options) {}
  void admit(IoRecord record, SimTime now = 0) {
    tracker.admit(std::move(record), now, sink);
  }
};

TEST(StreamHealth, InOrderRecordsPassStraightThrough) {
  HealthHarness h;
  for (std::uint64_t seq : {0u, 1u, 2u}) h.admit(seq_record(0, seq));
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  EXPECT_FALSE(h.tracker.any_degraded());
  EXPECT_EQ(h.tracker.stats().gaps_detected, 0u);
}

TEST(StreamHealth, GapHealsWhenMissingRecordArrives) {
  HealthHarness h;
  h.admit(seq_record(0, 0));
  h.admit(seq_record(0, 2));  // gap: seq 1 missing
  EXPECT_EQ(h.tracker.state(0), StreamState::kSuspect);
  EXPECT_TRUE(h.tracker.any_degraded());
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0}));

  h.admit(seq_record(0, 1));  // the straggler arrives
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  EXPECT_EQ(h.tracker.stats().gaps_detected, 1u);
  EXPECT_EQ(h.tracker.stats().gaps_healed, 1u);
  EXPECT_EQ(h.tracker.stats().reordered, 1u);
}

TEST(StreamHealth, DuplicatesAreDropped) {
  HealthHarness h;
  h.admit(seq_record(0, 0));
  h.admit(seq_record(0, 0));
  h.admit(seq_record(0, 1));
  h.admit(seq_record(0, 1));
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 2u);
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
}

TEST(StreamHealth, AbandonedGapQuarantinesUntilReset) {
  StreamHealthOptions options;
  options.gap_grace_us = 1'000;
  HealthHarness h(options);
  h.admit(seq_record(0, 0), 0);
  h.admit(seq_record(0, 2), 100);  // gap opens at t=100

  h.tracker.tick(500, h.sink);  // inside grace: still waiting
  EXPECT_EQ(h.tracker.state(0), StreamState::kSuspect);
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0}));

  h.tracker.tick(1'200, h.sink);  // grace expired: give up on seq 1
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(h.tracker.state(0), StreamState::kQuarantined);
  EXPECT_TRUE(h.tracker.any_quarantined());
  EXPECT_EQ(h.tracker.stats().gaps_abandoned, 1u);
  EXPECT_EQ(h.tracker.stats().records_lost, 1u);
  EXPECT_EQ(h.tracker.stats().quarantines, 1u);

  // The lost record arriving after abandonment is late, not a duplicate.
  h.admit(seq_record(0, 1), 1'300);
  EXPECT_EQ(h.tracker.stats().late_dropped, 1u);
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 0u);
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 2}));

  // A checkpoint supersedes the losses: trustworthy again.
  h.admit(seq_record(0, 3, /*fib_reset=*/true), 1'400);
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  EXPECT_EQ(h.tracker.stats().resyncs, 1u);
}

TEST(StreamHealth, HugeSeqJumpCostsOneRange) {
  // A seq jumping to 2^40 opens a gap of 2^40 - 1 records. Abandoning it,
  // a late arrival inside it and that arrival's duplicate each cost one
  // range operation, not one per missing seq.
  StreamHealthOptions options;
  options.gap_grace_us = 1'000;
  HealthHarness h(options);
  const std::uint64_t far = std::uint64_t{1} << 40;
  h.admit(seq_record(0, 0), 0);
  h.admit(seq_record(0, far), 100);
  h.tracker.tick(1'200, h.sink);
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, far}));
  EXPECT_EQ(h.tracker.stats().gaps_abandoned, 1u);
  EXPECT_EQ(h.tracker.stats().records_lost, far - 1);
  EXPECT_EQ(h.tracker.state(0), StreamState::kQuarantined);
  EXPECT_EQ(h.tracker.lossy_routers(), (std::set<RouterId>{0}));

  const std::uint64_t middle = far / 2;
  h.admit(seq_record(0, middle), 1'300);  // late: inside the abandoned gap
  EXPECT_EQ(h.tracker.stats().late_dropped, 1u);
  h.admit(seq_record(0, middle), 1'400);  // a second copy is a duplicate
  EXPECT_EQ(h.tracker.stats().late_dropped, 1u);
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 1u);
  // Both halves of the split range stay lost, to their very ends.
  for (std::uint64_t seq : {std::uint64_t{1}, middle - 1, middle + 1, far - 1}) {
    h.admit(seq_record(0, seq), 1'500);
  }
  EXPECT_EQ(h.tracker.stats().late_dropped, 5u);
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 1u);
  h.admit(seq_record(0, far - 1), 1'600);  // already taken: a duplicate now
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 2u);
  EXPECT_EQ(h.tracker.stats().records_lost, far - 1);  // lost stays cumulative
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, far}));

  h.admit(seq_record(0, far + 1, /*fib_reset=*/true), 1'700);
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  h.admit(seq_record(0, 2), 1'800);  // the checkpoint superseded the gap
  EXPECT_EQ(h.tracker.stats().late_dropped, 5u);
  EXPECT_EQ(h.tracker.stats().duplicates_dropped, 3u);
}

TEST(StreamHealth, BufferedResetAbandonsGapEarly) {
  StreamHealthOptions options;
  options.gap_grace_us = 1'000'000;  // grace would hold for ages
  HealthHarness h(options);
  h.admit(seq_record(0, 0), 0);
  // Outage ate seqs 1..4; the post-outage checkpoint arrives out of order.
  h.admit(seq_record(0, 5, /*fib_reset=*/true), 10);
  // No waiting: the checkpoint supersedes whatever the gap held.
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  EXPECT_EQ(h.tracker.stats().records_lost, 4u);
  EXPECT_EQ(h.tracker.stats().quarantines, 0u);
}

TEST(StreamHealth, BufferOverflowForcesAbandonment) {
  StreamHealthOptions options;
  options.gap_grace_us = 1'000'000;
  options.max_buffered_per_router = 4;
  HealthHarness h(options);
  h.admit(seq_record(0, 0));
  for (std::uint64_t seq = 2; seq <= 6; ++seq) h.admit(seq_record(0, seq));
  // The 5th buffered record breached the cap: everything flushes, seq 1 is
  // declared lost.
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{0, 2, 3, 4, 5, 6}));
  EXPECT_EQ(h.tracker.state(0), StreamState::kQuarantined);
  EXPECT_EQ(h.tracker.stats().records_lost, 1u);
}

TEST(StreamHealth, PrimedStreamsIgnoreHistory) {
  HealthHarness h;
  h.tracker.prime(0, 7);
  h.admit(seq_record(0, 7));
  h.admit(seq_record(0, 8));
  EXPECT_EQ(h.released, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(h.tracker.stats().gaps_detected, 0u);
}

TEST(StreamHealth, StreamsAreIndependentPerRouter) {
  HealthHarness h;
  h.admit(seq_record(0, 0));
  h.admit(seq_record(1, 1));  // router 1 has a gap at seq 0
  EXPECT_EQ(h.tracker.state(0), StreamState::kHealthy);
  EXPECT_EQ(h.tracker.state(1), StreamState::kSuspect);
  EXPECT_TRUE(h.tracker.any_degraded());
  EXPECT_FALSE(h.tracker.any_quarantined());
}

TEST(CaptureHub, StreamHealthReordersDeliveredRecords) {
  // End-to-end through the hub: delivered out of order, stored in order.
  CaptureHub hub;
  RouterTap tap(&hub, 0);
  tap.record(make_record(IoKind::kFibUpdate, 1));  // seq 0, direct
  hub.enable_stream_health();

  IoRecord late = make_record(IoKind::kFibUpdate, 2);
  late.router = 0;
  late.router_seq = 2;
  late.id = 90;
  IoRecord early = make_record(IoKind::kFibUpdate, 3);
  early.router = 0;
  early.router_seq = 1;
  early.id = 91;
  hub.deliver(std::move(late), 10);   // ahead of sequence: buffered
  EXPECT_EQ(hub.records().size(), 1u);
  hub.deliver(std::move(early), 11);  // unblocks both
  ASSERT_EQ(hub.records().size(), 3u);
  EXPECT_EQ(hub.records()[1].router_seq, 1u);
  EXPECT_EQ(hub.records()[2].router_seq, 2u);
  // The store is in sequence order, not id order (91 before 90).
  EXPECT_EQ(hub.records()[1].id, 91u);
  EXPECT_EQ(hub.records()[2].id, 90u);
}

TEST(IoRecord, InputClassification) {
  EXPECT_TRUE(is_input(IoKind::kConfigChange));
  EXPECT_TRUE(is_input(IoKind::kHardwareStatus));
  EXPECT_TRUE(is_input(IoKind::kRecvAdvert));
  EXPECT_FALSE(is_input(IoKind::kRibUpdate));
  EXPECT_FALSE(is_input(IoKind::kFibUpdate));
  EXPECT_FALSE(is_input(IoKind::kSendAdvert));
}

TEST(IoRecord, LabelMatchesPaperStyle) {
  IoRecord r;
  r.router = 2;
  r.kind = IoKind::kRibUpdate;
  r.protocol = Protocol::kEbgp;
  r.prefix = *Prefix::parse("203.0.113.0/24");
  EXPECT_EQ(r.label(), "R2 update 203.0.113.0/24 in eBGP RIB");

  r.kind = IoKind::kFibUpdate;
  EXPECT_EQ(r.label(), "R2 install 203.0.113.0/24 in FIB");

  r.kind = IoKind::kConfigChange;
  r.detail = "set LP=10";
  EXPECT_EQ(r.label(), "R2 config change: set LP=10");
}

}  // namespace
}  // namespace hbguard
