#ifndef DIGEST_DIAG_DIAG_H_
#define DIGEST_DIAG_DIAG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/graph.h"
#include "net/walk_context.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace digest {
namespace diag {

/// Thresholds for the sampler-introspection verdicts. Defaults are
/// deliberately loose: the diagnostics are a debugging instrument, and a
/// breach only re-attributes an audit miss that already happened — it
/// never changes engine behavior.
struct DiagOptions {
  /// Total-variation distance above which a batch's empirical visit
  /// distribution is declared out of tolerance with the stationary
  /// target (a "stationary gap breach").
  double tv_breach_threshold = 0.25;
  /// Minimum live visits in a batch before a breach may be declared —
  /// a handful of warm-walk steps is not evidence of poor mixing.
  uint64_t min_visits = 32;
  /// A peer is "hot" when its message load exceeds this multiple of the
  /// mean per-peer load (and at least two peers carried load).
  double hot_peer_factor = 2.0;
};

/// Per-walk diagnostic scratchpad. One instance rides each walk agent
/// through a batch (thread-locally on the worker pool) and
/// records raw facts only — no aggregation, no RNG, no clock — so the
/// fold into SamplerDiag can happen on the main thread in walk-index
/// order, keeping the diagnostics bit-identical for any thread count.
struct WalkDiagBuffer {
  /// Node occupied after each executed step, in step order.
  std::vector<NodeId> visits;
  /// Metropolis weight probes sent: (resident node, proposed neighbor).
  std::vector<std::pair<NodeId, NodeId>> probes;
  /// Accepted moves actually transmitted: (from, to).
  std::vector<std::pair<NodeId, NodeId>> hops;

  void RecordVisit(NodeId v) { visits.push_back(v); }
  void RecordProbe(NodeId from, NodeId to) { probes.emplace_back(from, to); }
  void RecordHop(NodeId from, NodeId to) { hops.emplace_back(from, to); }

  void Clear() {
    visits.clear();
    probes.clear();
    hops.clear();
  }
  bool Empty() const {
    return visits.empty() && probes.empty() && hops.empty();
  }
};

/// Snapshot of one finished batch's diagnostics (the payload of the four
/// trace events, kept for tests and the summary).
struct BatchDiagnostics {
  uint64_t walks = 0;          ///< Delivered walks folded into the batch.
  uint64_t steps = 0;          ///< Visits recorded (live + dead).
  uint64_t live_visits = 0;    ///< Visits to nodes still live at fold time.
  uint64_t dropped_dead_visits = 0;  ///< Visits pruned: the peer left.
  uint64_t live_peers = 0;     ///< Size of the rebased target support.
  double tv_distance = 0.0;    ///< ½·Σ|empirical − π| over live peers.
  double chi_square = 0.0;     ///< Σ(empirical − π)²/π over live peers.
  double lag1_autocorr = 0.0;  ///< Pooled lag-1 autocorrelation of w(vₜ).
  double ess = 0.0;            ///< Total effective sample size, Σ over walks.
  double rhat = 1.0;           ///< Cross-walk Gelman–Rubin statistic.
  uint64_t proposals = 0;      ///< Metropolis proposals this batch.
  uint64_t accepted = 0;       ///< Proposals accepted this batch.
  double acceptance_rate = 0.0;
  uint64_t loaded_peers = 0;   ///< Peers that carried ≥ 1 message.
  uint64_t loaded_links = 0;   ///< Distinct links that carried ≥ 1 message.
  NodeId hot_peer = 0;         ///< Max-load peer (smallest id on ties).
  uint64_t max_load = 0;       ///< Messages touching the hot peer.
  double mean_load = 0.0;      ///< Mean messages per loaded peer.
  bool hot = false;            ///< max_load > hot_peer_factor · mean_load.
  bool breach = false;         ///< Stationary gap out of tolerance.
};

/// Deterministic sampler-introspection aggregator (the `--diag` layer).
///
/// The sampling operator folds each delivered walk's WalkDiagBuffer into
/// the current batch (walk-index order) and closes the batch with
/// FinishBatch, which compares the empirical visit histogram against the
/// degree-corrected stationary target π(v) = w(v)/Σw — computed over the
/// batch's WalkContext (the live nodes and weights the walks ran
/// against, i.e. the current membership), so joins and leaves rebase
/// the target and visits to departed peers are pruned (counted, not
/// silently dropped). Burn-in adequacy is scored from the per-walk
/// scalar series xₜ = w(vₜ): pooled lag-1 autocorrelation, per-walk
/// ESS, and the cross-walk Gelman–Rubin R̂. Message-load accounting
/// (probes + hops) yields per-peer/per-link load and hot-peer
/// detection.
///
/// Determinism contract (test-enforced): the class consumes no RNG and
/// no wall clock; folding happens in walk-index order on one thread;
/// all aggregate state is identical for any worker-thread count, and a
/// null SamplerDiag* in the operator is the fast path — bit-identical
/// to an uninstrumented build.
class SamplerDiag {
 public:
  explicit SamplerDiag(DiagOptions options = {}) : options_(options) {}

  /// Folds one delivered walk's buffer into the open batch. Call in
  /// walk-index order; timed-out/cut walks are not folded (they
  /// delivered no sample, and folding them would make diagnostics
  /// depend on scheduling).
  void FoldWalk(const WalkDiagBuffer& buffer);

  /// Closes the open batch: rebases the target on the live nodes and
  /// weights of `context` (the batch's snapshot), computes the
  /// mixing/load diagnostics, emits the four trace events through
  /// `tracer` and updates the `diag.*` registry keys (either may be
  /// null), and accumulates the run summary. `proposals`/`accepted` are
  /// the batch's Metropolis counters from the walk telemetry.
  void FinishBatch(const WalkContext& context, uint64_t proposals,
                   uint64_t accepted, obs::Tracer* tracer,
                   obs::Registry* registry);

  /// Diagnostics of the most recently finished batch.
  const BatchDiagnostics& last_batch() const { return last_batch_; }

  /// True when the last finished batch breached the stationary-gap
  /// tolerance.
  bool LastBatchBreach() const { return last_batch_.breach; }

  /// Returns whether any batch since the previous call breached, and
  /// clears the flag — the engine reads this once per snapshot occasion
  /// to stamp SnapshotObservation::mixing_breach.
  bool TakeBreachSinceLastRead() {
    const bool b = breach_since_read_;
    breach_since_read_ = false;
    return b;
  }

  /// Batches finished since construction / the last Reset.
  uint64_t batches() const { return batches_; }

  /// Clears all state (open batch, last-batch snapshot, run summary).
  /// The experiment harness calls this at run start so a shared
  /// SamplerDiag (e.g. the bench suite's) summarizes one run at a time.
  void Reset();

  /// Deterministic one-line JSON summary of the run so far: cumulative
  /// counts plus the last batch's mixing verdicts. Keys sorted, %.17g
  /// doubles — byte-comparable across thread counts and repeats.
  std::string SummaryJson() const;

  /// Human-readable two-line digest of SummaryJson for bench output.
  std::string SummaryText() const;

 private:
  DiagOptions options_;

  // Open batch: raw per-walk records, in fold (walk-index) order.
  // Visits of every folded walk back to back; series_ends_[k] is the
  // end offset of walk k's series.
  std::vector<NodeId> batch_visits_;
  std::vector<size_t> series_ends_;
  std::vector<std::pair<NodeId, NodeId>> batch_edges_;

  // FinishBatch working buffers, NodeId-indexed, reused across batches.
  std::vector<uint64_t> visit_counts_;
  std::vector<uint64_t> peer_load_;
  std::vector<uint64_t> link_keys_;  // Packed (min, max) endpoint pairs.

  BatchDiagnostics last_batch_;
  bool breach_since_read_ = false;

  // Run summary accumulators.
  uint64_t batches_ = 0;
  uint64_t walks_ = 0;
  uint64_t steps_ = 0;
  uint64_t live_visits_ = 0;
  uint64_t dropped_dead_visits_ = 0;
  uint64_t proposals_ = 0;
  uint64_t accepted_ = 0;
  uint64_t breaches_ = 0;
  uint64_t hot_batches_ = 0;
  double tv_sum_ = 0.0;
  double tv_max_ = 0.0;
};

}  // namespace diag
}  // namespace digest

#endif  // DIGEST_DIAG_DIAG_H_
