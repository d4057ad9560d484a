#ifndef DIGEST_SAMPLING_RANDOM_WALK_H_
#define DIGEST_SAMPLING_RANDOM_WALK_H_

#include <cstdint>

#include "common/result.h"
#include "net/fault_plan.h"
#include "net/graph.h"
#include "net/message_meter.h"
#include "net/walk_context.h"
#include "numeric/rng.h"

namespace digest {

namespace diag {
struct WalkDiagBuffer;
}  // namespace diag

struct WalkHealthBuffer;

/// Per-call accounting of a walk, accumulated across Steps (fault-free
/// walks populate it too, for observability). `attempts` is the budget
/// currency: one unit per attempted transition plus the deterministic
/// backoff cost of every retransmission — the quantity a
/// SamplingOperator's hop budget bounds.
struct WalkTelemetry {
  uint64_t attempts = 0;       ///< Budget units consumed.
  uint64_t retries = 0;        ///< Retransmissions after a lost message.
  uint64_t losses = 0;         ///< Transmissions lost in transit.
  uint64_t drops = 0;          ///< Agents lost and re-injected at origin.
  uint64_t abandoned = 0;      ///< Transitions given up after retry budget.
  uint64_t stale_probes = 0;   ///< Probes answered with stale weights.
  uint64_t stalled_steps = 0;  ///< Steps frozen on a blackholed host.
  uint64_t proposals = 0;      ///< Metropolis moves proposed (probes sent).
  uint64_t accepted = 0;       ///< Proposals the acceptance test took.
  uint64_t backoff_units = 0;  ///< Retry latency paid, in budget ticks.
  uint64_t hedges = 0;         ///< Redundant walks launched vs stragglers.
  uint64_t hedge_wins = 0;     ///< Hedges that delivered before the primary.
};

/// The mutable side of one walk: where an agent's Steps write. Each
/// walk of a batch owns one, while the batch's WalkContext (the
/// read-only side) is shared by all of them.
struct WalkIo {
  /// Accumulated by every Step.
  WalkTelemetry telemetry;
  /// Message accounting; null skips it.
  MessageMeter* meter = nullptr;
  /// The walk's fault substream; null is the clean path. Lost messages
  /// are retransmitted per the context's RetryPolicy.
  FaultPlan* faults = nullptr;
  /// Records each weight probe, accepted hop and (in Advance) visit for
  /// the sampler diagnostics; null is the fast path. It consumes no
  /// randomness, so instrumented and uninstrumented runs are
  /// bit-identical.
  diag::WalkDiagBuffer* diag = nullptr;
  /// Records each transmission's (peer, delivered) outcome for the
  /// peer-health monitor to fold after the batch; consumes no
  /// randomness. May be null.
  WalkHealthBuffer* health = nullptr;
};

/// A sampling agent: a lazy Metropolis random walk over the overlay
/// (paper §V). One Step is:
///
///   1. with probability ½ stay put (laziness, makes the chain
///      aperiodic);
///   2. otherwise propose a uniformly random neighbor j, probe its
///      weight (one message), and move there with probability
///      min(1, (w_j·d_i)/(w_i·d_j)) — one message per actual move.
///
/// Steps read the overlay only through a WalkContext: the batch's
/// snapshot of adjacency (CSR, Graph::Neighbors order), liveness,
/// weights and cached draw thresholds. The neighbour draw is the same
/// Rng::NextIndex rejection loop over the same neighbour order that
/// Graph::RandomNeighbor makes, so the walk's RNG stream does not
/// depend on whether the overlay is read through a snapshot.
///
/// The walk survives churn: if the current node is dead in the context,
/// the next Step restarts from the context's fallback node.
///
/// Under an attached FaultPlan (WalkIo::faults) the same transition is
/// subject to message loss (probes and hops are retransmitted with
/// exponential backoff up to RetryPolicy::max_attempts, then abandoned),
/// stalled peers (a blackholed host freezes the agent; a blackholed
/// neighbor never answers probes), stale weight probes (the acceptance
/// test sees a distorted weight), and agent drops (the agent is lost in
/// transit and restarts from the fallback node, like a churn-stranded
/// agent). All fault randomness comes from the plan's own stream, so a
/// plan with all rates zero leaves the walk bit-identical to the
/// fault-free path.
///
/// With a non-empty quarantine view in the context, proposals are drawn
/// uniformly over the NON-quarantined neighbors and both degree
/// corrections in the acceptance test use live degrees — the walk is
/// exactly the Metropolis chain on the subgraph induced by live nodes,
/// so the stationary target over the live nodes is preserved (see the
/// src/diag TV gate). An empty view draws exactly as no view.
class RandomWalk {
 public:
  /// Starts a walk at `origin`. `laziness` is the per-step self-loop
  /// probability: ½ is the paper's choice (guarantees aperiodicity on
  /// any graph); 0 gives the non-lazy chain, which fails to converge on
  /// bipartite graphs (e.g., even rings, meshes) — exposed for the
  /// ablation in bench_mixing.
  explicit RandomWalk(NodeId origin, double laziness = 0.5)
      : current_(origin), laziness_(laziness) {}

  /// Node the agent currently resides on.
  NodeId current() const { return current_; }

  /// Executes one (lazy) Metropolis transition against `context`,
  /// drawing from `rng` and writing accounting to `io`. Fails if both
  /// the current node and the context's fallback are dead.
  Status Step(const WalkContext& context, Rng& rng, WalkIo& io);

  /// Executes `steps` Steps and records the post-step position of each
  /// in io.diag (if set) — the visit histogram the diagnostics compare
  /// against the stationary target. Fault-aware loops live in
  /// SamplingOperator, which owns the hop budget.
  Status Advance(const WalkContext& context, Rng& rng, WalkIo& io,
                 size_t steps);

 private:
  NodeId current_;
  double laziness_;
};

}  // namespace digest

#endif  // DIGEST_SAMPLING_RANDOM_WALK_H_
