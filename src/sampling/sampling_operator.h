#ifndef DIGEST_SAMPLING_SAMPLING_OPERATOR_H_
#define DIGEST_SAMPLING_SAMPLING_OPERATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "net/fault_plan.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "numeric/rng.h"
#include "sampling/random_walk.h"
#include "sampling/weight.h"

namespace digest {
namespace diag {
class SamplerDiag;
}  // namespace diag
namespace exec {
class WorkerPool;
}  // namespace exec
namespace obs {
class Registry;
class Tracer;
}  // namespace obs
namespace prof {
class Profiler;
}  // namespace prof

class PeerHealthMonitor;

/// Straggler mitigation for fault-injected walks: when one agent has
/// consumed far more budget than completed walks typically need, launch
/// a redundant (hedged) walk and let the two race; the first to finish
/// delivers the sample and the loser's eventual delivery is suppressed
/// as a duplicate. The duplicate is routed through a different replica
/// when possible — walk i's hedge forks from walk i-1's start-of-batch
/// agent when that agent is warm and live: an already-mixed position
/// away from whatever lossy or stalled neighborhood trapped the
/// straggler — and the race resolves in virtual time (consumed attempt
/// units), with the cheaper walker stepping next, the way two parallel
/// walks would resolve in a real overlay. The threshold is derived purely from the observed
/// attempts-per-step distribution of completed walks in this run — no
/// wall clock — so hedged runs stay bit-reproducible from the seed.
struct HedgePolicy {
  /// Off by default: disabled hedging is bit-identical to the pre-hedge
  /// sampler, faults or not.
  bool enabled = false;

  /// An agent is a straggler once its consumed attempts exceed
  /// straggler_factor × (its planned steps) × (observed mean attempts
  /// per step). Must be >= 1.
  double straggler_factor = 3.0;

  /// Completed walks to observe before hedging arms (below this the
  /// attempts-per-step estimate is noise). Must be >= 1.
  size_t min_observations = 4;

  Status Validate() const;
};

/// Tuning of the distributed sampling operator S.
struct SamplingOperatorOptions {
  /// Steps a cold agent walks before its position counts as a sample
  /// (the mixing time). 0 selects an automatic value of
  /// ceil(mixing_factor · ln²(N)), per Theorem 4's poly-log bound.
  size_t walk_length = 0;

  /// Steps a warm agent walks between successive samples (the reset
  /// time, §VI-A: much shorter than the mixing time). 0 selects
  /// ceil(reset_factor · ln(N)).
  size_t reset_length = 0;

  /// Multipliers for the automatic lengths above.
  double mixing_factor = 4.0;
  double reset_factor = 4.0;

  /// Keep agents warm across invocations (continue the converged walk
  /// instead of restarting), as in the paper's experimental setup. When
  /// false every sample pays the full walk_length.
  bool warm_walks = true;

  /// Per-step self-loop probability of the walk. ½ per the paper
  /// (aperiodicity on any graph); 0 is the non-lazy ablation, unsafe on
  /// bipartite overlays (even rings, meshes).
  double laziness = 0.5;

  /// Retransmission/backoff policy and hop-budget timeout applied when a
  /// FaultPlan is attached (ignored otherwise).
  RetryPolicy retry;

  /// Hedged-walk straggler mitigation (only active under a FaultPlan).
  HedgePolicy hedge;

  /// Threads that run a batch's walks. Each batch derives one RNG and
  /// fault substream per WALK (keyed by walk index via Rng::Split, never
  /// by thread) and merges results, meters and traces in walk-index
  /// order once every walk has run. 0 and 1 run the walks inline on the
  /// calling thread (no pool, no threads spawned); >= 2 fans them out on
  /// an exec::WorkerPool of this many threads. Every observable output
  /// is bit-identical at every value. See DESIGN.md "Parallel execution
  /// & determinism model".
  size_t num_threads = 0;
};

/// A batch that may have been cut short by the hop budget: `nodes` holds
/// whatever samples completed before `timed_out` became true.
struct PartialBatch {
  std::vector<NodeId> nodes;
  bool timed_out = false;
};

/// The distributed sampling operator S (paper §III, §V).
///
/// Given a weight function w over nodes, each invocation returns a node
/// v drawn with probability w_v / Σ_u w_u, by running a lazy Metropolis
/// random walk from the originating node until (approximately) mixed.
/// Batch mode runs several agents in one call; warm agents are reused
/// across calls so successive samples only pay the reset time.
///
/// The operator holds references to the graph (and through the weight
/// function, usually the database); both must outlive it. Churn between
/// invocations is handled: each batch snapshots the graph and weights
/// into a WalkContext, and agents stranded on departed nodes restart
/// from the origin.
///
/// With a FaultPlan attached (SetFaultPlan), walks run under injected
/// message loss, stalls, stale probes, and agent drops. Lost messages
/// are retransmitted per options.retry; an agent dropped in transit is
/// re-injected at the origin and walks a full cold mixing length again.
/// Each batch may spend at most retry.hop_budget_factor times its
/// planned hop count (retries and backoff delays included); when the
/// budget runs out mid-batch, SampleNodes fails with kUnavailable — the
/// caller (e.g. DigestEngine) degrades gracefully instead of blocking
/// forever on an unreachable overlay.
class SamplingOperator {
 public:
  /// `meter` may be null to skip accounting.
  SamplingOperator(const Graph* graph, WeightFn weight, Rng rng,
                   MessageMeter* meter,
                   SamplingOperatorOptions options = {});
  ~SamplingOperator();

  /// Attaches (or detaches, with nullptr) a fault-injection plan. The
  /// plan is not owned and must outlive the operator. A plan with all
  /// rates zero leaves every draw bit-identical to no plan.
  void SetFaultPlan(FaultPlan* faults) { faults_ = faults; }
  FaultPlan* fault_plan() const { return faults_; }

  /// Attaches structured observability (each may be null; none is
  /// owned). The tracer receives walk-batch lifecycle events (launch,
  /// agent restart, hop-budget exhaustion, completion); the registry
  /// receives hop-count/acceptance-rate/retry histograms and batch
  /// counters; the wall-clock profiler times whole batches
  /// (prof::Phase::kWalkBatch, items = samples drawn) and per-agent
  /// stepping (kWalkAdvance, items = hops). Pure observation: the
  /// sampled nodes, the RNG stream, and all MessageMeter accounting are
  /// bit-identical with or without.
  void SetObservability(obs::Tracer* tracer, obs::Registry* registry,
                        prof::Profiler* profiler = nullptr) {
    tracer_ = tracer;
    registry_ = registry;
    profiler_ = profiler;
  }
  obs::Tracer* tracer() const { return tracer_; }
  obs::Registry* registry() const { return registry_; }
  prof::Profiler* profiler() const { return profiler_; }

  /// Attaches (or detaches, with nullptr) the sampler-introspection
  /// aggregator. Not owned. Each delivered walk's visit/probe/hop record
  /// is folded in walk-index order and every batch is closed with
  /// SamplerDiag::FinishBatch against the current live membership. Pure
  /// observation with the same contract as SetObservability: a null
  /// diag is the fast path, bit-identical to an uninstrumented build,
  /// and the folded state is invariant across num_threads.
  void SetDiag(diag::SamplerDiag* diag) { diag_ = diag; }
  diag::SamplerDiag* diag() const { return diag_; }

  /// Attaches (or detaches, with nullptr) the adaptive peer-health
  /// monitor. Not owned. Unlike the pure observers above, the monitor
  /// STEERS: each batch routes against the quarantine view frozen at
  /// batch start (open breakers drop out of the proposal distribution,
  /// with degree corrections that preserve the stationary target over
  /// the live nodes), and each delivered walk's transmission outcomes
  /// are folded back in walk-index order, closing with
  /// FinishBatch(live population). A monitor whose quarantine set is
  /// empty leaves every draw bit-identical to no monitor, and the
  /// folded health state is invariant across num_threads
  /// (test-enforced).
  void SetHealth(PeerHealthMonitor* health) { health_ = health; }
  PeerHealthMonitor* health() const { return health_; }

  /// Draws one sample node, originating the walk at `origin`. Returning
  /// the sampled node id to the originator costs one transfer message.
  /// Fails if the graph is empty or the origin is dead with no live node
  /// remaining.
  Result<NodeId> SampleNode(NodeId origin);

  /// Draws `n` sample nodes in batch mode (§VI-A): n agents with
  /// overlapping convergence, each contributing one node. Under faults,
  /// fails with kUnavailable when the batch hop budget times out.
  Result<std::vector<NodeId>> SampleNodes(NodeId origin, size_t n);

  /// Deadline-budgeted variant: identical draws, meter accounting, and
  /// trace emission to SampleNodes, but when the batch hop budget runs
  /// out it returns the samples completed so far with timed_out = true
  /// instead of failing — the raw material for a partial snapshot.
  Result<PartialBatch> SampleNodesPartial(NodeId origin, size_t n);

  /// Drops all warm agents (e.g., after a topology change large enough
  /// that their positions should not be trusted).
  void ResetAgents() { agents_.clear(); }

  /// Effective cold-walk length for the current graph size.
  size_t EffectiveWalkLength() const;

  /// Effective warm-walk (reset) length for the current graph size.
  size_t EffectiveResetLength() const;

  /// Walk accounting of the most recent SampleNodes call. The
  /// observability counters (attempts, proposals, accepted) are
  /// populated on every call; the fault categories stay zero when no
  /// fault plan is attached.
  const WalkTelemetry& last_telemetry() const { return last_telemetry_; }

  const SamplingOperatorOptions& options() const { return options_; }

  /// Completed-walk statistics feeding the hedge straggler threshold
  /// (attempts and planned steps of every agent that delivered under
  /// faults this run).
  uint64_t hedge_done_walks() const { return done_walks_; }
  uint64_t hedge_done_attempts() const { return done_attempts_; }
  uint64_t hedge_done_steps() const { return done_steps_; }

  /// Serializable session state: warm-agent positions, the round-robin
  /// cursor, the RNG stream, and the hedge statistics. Everything a
  /// restored operator needs to replay the exact draw sequence an
  /// uninterrupted run would have made.
  struct State {
    std::vector<NodeId> agent_positions;
    uint64_t next_agent = 0;
    Rng::State rng;
    uint64_t done_walks = 0;
    uint64_t done_attempts = 0;
    uint64_t done_steps = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  struct WalkSlot;

  /// Core batch shared by SampleNodes / SampleNodesPartial. The two
  /// wrappers differ only in how a hop-budget timeout is reported.
  /// Refreshes context_ (adjacency only after churn; weights, quarantine
  /// routing and draw thresholds every batch) before any walk launches;
  /// every walk then reads that one snapshot. The graph and the data the
  /// weight function reads must not change while a batch runs.
  Result<PartialBatch> SampleBatch(NodeId origin, size_t n);

  /// Hedge straggler threshold in attempt units for an agent planned to
  /// walk `steps` steps; 0 means hedging is disarmed (disabled, no fault
  /// plan, or not enough completed walks observed yet).
  uint64_t HedgeThreshold(size_t steps) const;

  const Graph* graph_;
  WeightFn weight_;
  // The walk kernel's per-batch snapshot of graph_, weight_ and the
  // quarantine view; its buffers (and its adjacency, until churn) are
  // reused across batches.
  WalkContext context_;
  Rng rng_;
  MessageMeter* meter_;
  SamplingOperatorOptions options_;
  FaultPlan* faults_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  prof::Profiler* profiler_ = nullptr;
  diag::SamplerDiag* diag_ = nullptr;
  PeerHealthMonitor* health_ = nullptr;
  WalkTelemetry last_telemetry_;
  std::vector<RandomWalk> agents_;  // Warm agents, reused round-robin.
  size_t next_agent_ = 0;
  // Per-walk output slots, reused across batches (grown to the largest
  // batch so far).
  std::vector<WalkSlot> slots_;
  // Worker pool; created lazily on the first batch at num_threads >= 2
  // (absent entirely at 0 and 1).
  std::unique_ptr<exec::WorkerPool> pool_;
  // Completed-walk stats for the hedge threshold (faulted batches only).
  uint64_t done_walks_ = 0;
  uint64_t done_attempts_ = 0;
  uint64_t done_steps_ = 0;
};

}  // namespace digest

#endif  // DIGEST_SAMPLING_SAMPLING_OPERATOR_H_
