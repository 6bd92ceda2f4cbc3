// The integrated verification-and-repair pipeline (Fig. 3).
//
//   CAPTURE CONTROL PLANE I/Os → (HBR inference) → HBG
//        → consistent data-plane snapshot → DATA PLANE VERIFIER
//        → bad FIB updates → TRACE PROVENANCE → root cause
//        → BLOCK I/Os / revert configuration
//
// Guard watches a live Network's capture stream. Each scan extends the HBG
// with the newly observed I/Os (or rebuilds it with a custom inferencer,
// e.g. ground truth for oracle ablations), folds them into a consistent
// snapshot, verifies the policy list, and — on violation — traces
// provenance and repairs according to the configured mode:
//
//   kReport     diagnose only (§6's "report the configuration change as
//               problematic to the operator")
//   kBlock      veto policy-violating FIB updates before they reach the
//               data plane (§2's strawman; causes control/data divergence)
//   kRevert     revert the root-cause configuration change (§6)
//   kEarlyBlock kRevert, plus a learned equivalence-class model that
//               predicts violations from config-change inputs and reverts
//               them before FIB fallout propagates (§6's most advanced
//               mitigation); a destination's class is keyed by its
//               per-router forwarding actions (class_signature)
#pragma once

#include <memory>
#include <optional>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/repair/blocker.hpp"
#include "hbguard/repair/early_block.hpp"
#include "hbguard/repair/reverter.hpp"
#include "hbguard/sim/network.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/verify/traffic.hpp"
#include "hbguard/verify/verifier.hpp"

#include "hbguard/core/report.hpp"

namespace hbguard {

struct GuardPersistentState;  // core/guard_state.hpp

//   kProposeOnly kReport's diagnosis plus an explicit repair queue: each
//               incident's best revertible root cause becomes a
//               RepairProposal that an operator approves (executing the
//               revert), declines, or rolls back — the interactive mode
//               hbguardd's `repairs` RPC drives.
enum class RepairMode : std::uint8_t { kReport, kBlock, kRevert, kEarlyBlock, kProposeOnly };

std::string_view to_string(RepairMode mode);

/// A repair the guard diagnosed but deliberately did not execute
/// (RepairMode::kProposeOnly). Proposals are identified by a stable id and
/// live outside GuardReport::digest() — the report records only the
/// incident and the actions actually taken.
struct RepairProposal {
  enum class Status : std::uint8_t { kPending, kApproved, kDeclined };

  std::uint64_t id = 0;
  SimTime proposed_at = 0;
  /// The offending configuration change to revert.
  ConfigVersion cause_version = kNoVersion;
  RouterId router = kInvalidRouter;
  std::string description;  // the offending change's own description
  std::string fault_chain;  // rendered cause→fault chain (Fig. 4 style)
  Status status = Status::kPending;
  /// The version the approved revert created (kNoVersion until approved).
  ConfigVersion executed_version = kNoVersion;
};

std::string_view to_string(RepairProposal::Status status);

struct GuardOptions {
  RepairMode repair = RepairMode::kRevert;
  /// Worker threads for the verifier's policy checks, the pipeline's one
  /// parallel stage (snapshots, early-block ones included, replay on the
  /// scanning thread). One pool is created per Guard and reused by every
  /// scan. 0 = one worker per hardware thread; 1 = no pool, every stage on
  /// the scanning thread. Reports are byte-identical for every setting (see
  /// tests/test_parallel_verify.cpp).
  unsigned num_threads = 0;
  /// Minimum HBG edge confidence for provenance (the root-cause analyzer).
  /// Snapshots read `snapshot.min_confidence` instead.
  double min_confidence = 0.9;
  /// Virtual time between scans of the capture stream.
  SimTime scan_interval_us = 100'000;
  /// Custom HBR inference (e.g. CombinedInference with a trained pattern
  /// miner, or GroundTruthInference as an oracle ablation). Null: the HBG is
  /// maintained incrementally across scans (rule matching pays only for new
  /// I/Os). Non-null: every scan rebuilds the HBG from the full history with
  /// this inferencer and re-derives the snapshot from record 0 — the
  /// rebuild-per-scan pipeline the parity tests compare the default against
  /// (pass RuleMatchingInference(matcher) for the same rules rebuilt).
  std::shared_ptr<HbrInferencer> inference;
  /// > 0: amortize the incremental HBG's CSR re-pack under this per-append
  /// half-edge budget instead of re-packing eagerly inside one add_edge
  /// (stop-the-world O(E)). Reports are byte-identical either way — the
  /// re-pack preserves per-vertex insertion order — but a long-running
  /// ingestion path (hbguardd) must bound its worst-case append latency.
  std::size_t compact_budget = 0;
  /// Traffic-weighted verification scheduling (verify/traffic.hpp). When
  /// enabled, each verifying scan plans its destination set — heaviest
  /// traffic first, aged destinations ahead of everything — and a scan
  /// budget (coverage_target / max_items) may defer a tail of destinations
  /// to later scans; a clean-but-incomplete scan reports
  /// ScanVerdict::kDeferred. With the default full budget the plan covers
  /// every destination and reports are byte-identical to the unscheduled
  /// pipeline (tests/test_traffic_weighted.cpp pins the digests at 1/2/8
  /// threads). Incident causes are re-ranked by affected traffic weight
  /// when demand weights are attached, so repairs (reverts, proposals) fix
  /// the heaviest-traffic root cause first. Coverage/latency metrics live
  /// on traffic_scheduler(), outside GuardReport::digest(). The
  /// scheduler's aging state is deliberately not checkpointed: a recovered
  /// guard starts with every destination aged, i.e. conservatively
  /// re-verifies everything before re-entering budgeted operation.
  TrafficScheduleOptions traffic;
  /// Give up on run() after this many scans without quiescence.
  std::size_t max_scans = 10'000;
  MatcherOptions matcher;
  /// Happens-before closure settings for every snapshot the guard takes.
  IncrementalSnapshotter::Options snapshot;
};

class Guard {
 public:
  Guard(Network& network, PolicyList policies, GuardOptions options = {});
  ~Guard();
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  /// Drive the network to convergence under guard: alternately dispatch
  /// `scan_interval_us` of simulation and scan. Repairs inject new events
  /// (reverts) which are themselves processed. Returns when the simulator
  /// is idle and the last scan took no action.
  GuardReport run();

  /// One scan over the capture stream; returns the violations seen (empty
  /// when the snapshot is clean). Repairs fire as a side effect per the
  /// configured mode.
  std::vector<Violation> scan();

  const GuardReport& report() const { return report_; }
  const EarlyBlockModel& early_block_model() const { return early_model_; }

  // ---- Repair proposals (RepairMode::kProposeOnly) ----

  /// Outcome of an operator action on a proposal; `message` is
  /// human-readable either way.
  struct ProposalOutcome {
    bool ok = false;
    std::string message;
  };

  const std::vector<RepairProposal>& proposals() const { return proposals_; }
  /// Execute a pending proposal's revert. Fails (with a message) when the
  /// proposal is unknown, already settled, or its config version is not
  /// hosted by this guard's network — e.g. a replayed trace, where the
  /// rollback must be applied to the real device out of band.
  ProposalOutcome approve_proposal(std::uint64_t id);
  /// Dismiss a pending proposal (the change was intended; §6's "the
  /// operator can simply adapt the policy accordingly").
  ProposalOutcome decline_proposal(std::uint64_t id);
  /// Roll back an approved proposal's executed revert (reinstate the
  /// original change); the proposal is then declined.
  ProposalOutcome revert_repair(std::uint64_t id);

  RepairMode repair_mode() const { return options_.repair; }
  /// Switch between the diagnose-only modes (kReport ↔ kProposeOnly) at
  /// runtime — hbguardd's `mode` RPC. The actuating modes wire up
  /// blockers/models at construction and are refused, in either direction.
  bool set_repair_mode(RepairMode mode);

  // ---- Checkpoint support (see core/guard_state.hpp) ----

  /// Snapshot the semantic state (report, proposals, dedup/flag scalars).
  GuardPersistentState export_state() const;
  /// Restore a snapshot onto a freshly constructed Guard (recovery): the
  /// caches and ingest cursors stay empty, so the next scan rebuilds them
  /// with one ingest of the whole capture history into an empty
  /// snapshotter — the path every rebuild-per-scan guard (custom
  /// `inference`) takes each scan, which the parity tests pin to the
  /// default guard's digests.
  void import_state(GuardPersistentState state);
  /// Verifier counters: runs, covered destinations, delta skips and
  /// reused policies.
  VerifyStats verifier_stats() const { return verifier_.stats(); }
  /// Snapshotter counters (with a custom `inference`, each scan starts a
  /// fresh snapshotter, so they cover the latest scan only).
  const IncrementalSnapshotter::Stats& snapshot_stats() const { return snapshotter_.stats(); }

  /// Build the current HBG (for rendering/inspection; copies in
  /// incremental mode).
  HappensBeforeGraph current_hbg() const;
  /// The incremental builder's graph as of the last scan, borrowed — what
  /// current_hbg() copies. nullptr under a custom `inference` or before any
  /// record was ingested, where only current_hbg() can build the graph.
  const HappensBeforeGraph* live_hbg() const;

  /// Traffic-weighted scheduling state (options.traffic). Weighted
  /// coverage, deferral counts and the detection-latency histogram are
  /// operator telemetry — hbguardd's status surfaces them — and live
  /// outside GuardReport::digest().
  bool traffic_scheduling() const { return options_.traffic.enabled; }
  const TrafficScheduler& traffic_scheduler() const { return traffic_scheduler_; }

 private:
  /// This scan's graph: the incremental builder's after appending the
  /// capture delta (its new edges queue for the snapshotter), or — with a
  /// custom inference — a rebuild over the full history, which also
  /// restarts the snapshotter from record 0.
  const HappensBeforeGraph& update_hbg();
  /// Map each violation to the most recent FIB-update I/O that produced
  /// the offending entry (served from the per-prefix index maintained by
  /// scan()).
  std::vector<IoId> violating_fib_updates(const std::vector<Violation>& violations) const;
  /// The single most recent FIB-update I/O behind one violation: the
  /// violating router's latest update to its prefix, else any router's
  /// (kNoIo when the capture has none for its prefix).
  IoId latest_violating_update(const Violation& violation) const;
  /// Fold the capture's new FIB updates into the per-prefix index, building
  /// the index over the policies' prefixes on the first call.
  void index_fib_updates();
  /// Sync the scheduler with the policy destination universe and plan this
  /// scan's covered set; nullopt when scheduling is disabled.
  std::optional<ScheduledScan> plan_traffic_scan();
  /// Stable-sort `provenance.causes` by the traffic weight of the
  /// violating I/Os each cause explains (heaviest first), so downstream
  /// repair selection reverts the heaviest-traffic cause first.
  void rank_causes_by_traffic(ProvenanceResult& provenance,
                              const std::vector<Violation>& violations) const;

  /// The data plane just before a change logged at `change_logged`: the
  /// capture replayed up to that instant on every router. Early blocking
  /// keys each destination on its class_signature() here.
  DataPlaneSnapshot pre_change_snapshot(const HappensBeforeGraph& hbg,
                                        SimTime change_logged) const;
  void learn_early_block(const HappensBeforeGraph& hbg, const ProvenanceResult& provenance,
                         const std::vector<Violation>& violations, bool violated);
  std::optional<RevertAction> try_early_block(const HappensBeforeGraph& hbg);

  Network& network_;
  /// The verifier's worker pool; null when `num_threads == 1`.
  std::shared_ptr<ThreadPool> pool_;
  Verifier verifier_;
  GuardOptions options_;
  RootCauseAnalyzer analyzer_;
  ConfigReverter reverter_;
  std::unique_ptr<VerifyingBlocker> blocker_;  // kBlock mode only
  EarlyBlockModel early_model_;
  GuardReport report_;

  IncrementalHbgBuilder incremental_builder_;
  std::size_t ingested_ = 0;        // records fed to the incremental builder
  HappensBeforeGraph rebuilt_hbg_;  // this scan's graph under a custom inference

  IncrementalSnapshotter snapshotter_;
  /// HBG edges added by the incremental builder since the last snapshot
  /// ingest (the closure-invalidation delta).
  std::vector<HbgEdge> pending_hbg_edges_;
  std::size_t snapshot_cursor_ = 0;   // records fed to the snapshotter
  std::size_t early_cursor_ = 0;      // records walked by try_early_block
  std::size_t fib_index_cursor_ = 0;  // records folded into the FIB-update index
  /// Latest FIB-update I/O per policy prefix, overall and per router, in
  /// capture order. A violation names one of its policy's prefixes (see
  /// Policy), so updates to any other prefix are never asked for and cost
  /// one binary search. fib_prefixes_ is sorted and distinct; fib_updates_
  /// runs parallel to it. Both are built by the first scan, which keeps a
  /// daemon with thousands of policies quick to start.
  struct LatestFibUpdates {
    IoId any = kNoIo;
    std::vector<std::pair<RouterId, IoId>> by_router;
  };
  std::vector<Prefix> fib_prefixes_;
  std::vector<LatestFibUpdates> fib_updates_;
  bool fib_index_built_ = false;

  /// Stream-health transition count at the last scan; a change trips the
  /// scan watchdog (full re-verify, stored verdicts dropped).
  std::uint64_t last_health_transitions_ = 0;
  /// A degraded scan skipped verification after ingesting its snapshot
  /// delta; the next verifying scan must not trust its stale delta.
  bool pending_full_verify_ = false;

  /// Priority scheduler over the policy destination universe
  /// (options.traffic.enabled); idle otherwise. Ages advance only on
  /// verifying scans (degraded scans verified nothing, so they don't count
  /// toward the starvation bound).
  TrafficScheduler traffic_scheduler_;

  /// kProposeOnly repair queue (stable ids; never removed, only settled).
  std::vector<RepairProposal> proposals_;
  std::uint64_t next_proposal_id_ = 1;

  std::set<ConfigVersion> early_checked_;
  /// Config changes awaiting a benign label (cleared on clean converged
  /// scans, when their keys are fed to the early-block model as benign).
  std::map<ConfigVersion, std::vector<EarlyBlockKey>> pending_benign_;
  std::string last_violation_signature_;  // dedup repeat incident reports
  bool repair_in_flight_ = false;         // suppress repeat repairs mid-convergence
};

}  // namespace hbguard
