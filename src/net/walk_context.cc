#include "net/walk_context.h"

#include "net/peer_health.h"
#include "numeric/rng.h"

namespace digest {

WalkContext::WalkContext(const Graph& graph,
                         const std::function<double(NodeId)>& weight,
                         NodeId fallback, const QuarantineView* quarantine)
    : fallback_(fallback) {
  Refresh(graph, weight, quarantine);
}

void WalkContext::RebuildAdjacency(const Graph& graph) {
  const NodeId n = graph.NextId();
  rows_.assign(n, Row{});
  neighbors_.clear();
  neighbors_.reserve(2 * graph.EdgeCount());
  for (NodeId v = 0; v < n; ++v) {
    Row& row = rows_[v];
    row.live = graph.HasNode(v);
    row.begin = static_cast<uint32_t>(neighbors_.size());
    const std::vector<NodeId>& nbs = graph.Neighbors(v);
    neighbors_.insert(neighbors_.end(), nbs.begin(), nbs.end());
    row.degree = static_cast<uint32_t>(nbs.size());
    row.bound = row.degree;
    row.threshold = Rng::IndexThreshold(row.bound);
  }
  epoch_ = graph.epoch();
  ++adjacency_builds_;
}

void WalkContext::Refresh(const Graph& graph,
                          const std::function<double(NodeId)>& weight,
                          const QuarantineView* quarantine) {
  if (graph.epoch() != epoch_) RebuildAdjacency(graph);
  routed_ = quarantine != nullptr && quarantine->Any();
  for (NodeId v = 0; v < rows_.size(); ++v) {
    Row& row = rows_[v];
    row.weight = row.live ? weight(v) : 0.0;
    row.quarantined = routed_ && quarantine->Quarantined(v);
  }
  // Proposal supports: under a non-empty view a node proposes uniformly
  // over its non-quarantined neighbours, and both Metropolis degree
  // corrections use those live degrees (the chain on the live-induced
  // subgraph). A support that did not change keeps its threshold, so a
  // batch without quarantine divides nothing here.
  for (Row& row : rows_) {
    uint32_t bound = row.degree;
    if (routed_) {
      bound = 0;
      const NodeId* nbs = neighbors(row);
      for (uint32_t k = 0; k < row.degree; ++k) {
        if (!rows_[nbs[k]].quarantined) ++bound;
      }
    }
    if (bound != row.bound) {
      row.bound = bound;
      row.threshold = Rng::IndexThreshold(bound);
    }
  }
}

}  // namespace digest
