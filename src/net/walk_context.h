#ifndef DIGEST_NET_WALK_CONTEXT_H_
#define DIGEST_NET_WALK_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/fault_plan.h"
#include "net/graph.h"

namespace digest {

class QuarantineView;

/// Read-only snapshot of everything a Metropolis step reads, taken once
/// per walk batch (DESIGN.md "Walk kernel"). The sampling operator
/// refreshes it before any walk of the batch launches; while the batch
/// runs nothing writes it, so the worker pool's threads share it with
/// no synchronization. It holds two halves:
///
///   - the adjacency half — CSR offsets and neighbours in
///     Graph::Neighbors order, a live flag and the full degree per
///     NodeId — rebuilt only when Graph::epoch() has moved (churn);
///   - the batch half — the weight w(v) of every live node, the
///     quarantine flags of the frozen QuarantineView, each node's
///     proposal support (its degree, or its live degree under a
///     non-empty view) and that support's cached Rng::IndexThreshold —
///     refreshed every batch.
///
/// The snapshot is exact only while neither the graph nor the data the
/// weight function reads mutates; the simulation advances between
/// batches, never during one.
class WalkContext {
 public:
  /// One node's row. Steps read two rows per proposal (resident and
  /// proposed node), so the hot fields share one 32-byte record.
  struct Row {
    double weight = 0.0;     ///< w(v) at refresh; 0 for dead ids.
    uint64_t threshold = 0;  ///< Rng::IndexThreshold(bound).
    uint32_t begin = 0;      ///< Offset of v's neighbours in the CSR.
    uint32_t degree = 0;     ///< Overlay degree; 0 for dead ids.
    uint32_t bound = 0;      ///< Proposal support (degree or live degree).
    bool live = false;       ///< v is a live node of the graph.
    bool quarantined = false;  ///< v is in the frozen quarantine view.
  };

  WalkContext() = default;

  /// A context refreshed once against the given inputs, with `fallback`
  /// as restart node and the default RetryPolicy (tests, one-off walks).
  WalkContext(const Graph& graph,
              const std::function<double(NodeId)>& weight, NodeId fallback,
              const QuarantineView* quarantine = nullptr);

  /// Snapshots one batch's inputs: rebuilds the adjacency half if
  /// `graph` has mutated since the last refresh, then refills weights,
  /// quarantine flags, proposal supports and thresholds. `weight` is
  /// called once per live node. `quarantine` may be null (no monitor);
  /// an empty view routes exactly like no view.
  void Refresh(const Graph& graph,
               const std::function<double(NodeId)>& weight,
               const QuarantineView* quarantine);

  /// Node a stranded or dropped agent restarts from (the batch origin).
  NodeId fallback() const { return fallback_; }
  void set_fallback(NodeId fallback) { fallback_ = fallback; }

  /// Retransmission policy of fault-injected walks.
  const RetryPolicy& retry() const { return retry_; }
  void set_retry(const RetryPolicy& retry) { retry_ = retry; }

  /// True iff `v` was a live node at refresh.
  bool Live(NodeId v) const { return v < rows_.size() && rows_[v].live; }

  /// Row of an id below NextId().
  const Row& row(NodeId v) const { return rows_[v]; }

  /// Neighbours of a row's node, `row.degree` of them, in
  /// Graph::Neighbors order.
  const NodeId* neighbors(const Row& row) const {
    return neighbors_.data() + row.begin;
  }

  /// w(v) at refresh; 0 for dead or unknown ids.
  double Weight(NodeId v) const { return Live(v) ? rows_[v].weight : 0.0; }

  /// Ids covered by the snapshot: every id below the graph's NextId().
  NodeId NextId() const { return static_cast<NodeId>(rows_.size()); }

  /// True when the quarantine view was non-empty: proposals skip
  /// quarantined neighbours and supports are live degrees.
  bool routed() const { return routed_; }

  /// Times the adjacency half has been rebuilt (one per graph epoch
  /// seen by Refresh).
  uint64_t adjacency_builds() const { return adjacency_builds_; }

 private:
  void RebuildAdjacency(const Graph& graph);

  std::vector<Row> rows_;          // Indexed by NodeId.
  std::vector<NodeId> neighbors_;  // CSR neighbour lists.
  uint64_t epoch_ = 0;             // Graph epoch of the adjacency half.
  uint64_t adjacency_builds_ = 0;
  bool routed_ = false;
  NodeId fallback_ = kInvalidNode;
  RetryPolicy retry_;
};

}  // namespace digest

#endif  // DIGEST_NET_WALK_CONTEXT_H_
