#include "sampling/tuple_sampler.h"

namespace digest {

Result<TupleSample> TwoStageTupleSampler::Sample(NodeId origin) {
  DIGEST_ASSIGN_OR_RETURN(std::vector<TupleSample> batch,
                          SampleBatch(origin, 1));
  return batch.front();
}

Result<std::vector<TupleSample>> TwoStageTupleSampler::SampleBatch(
    NodeId origin, size_t n) {
  // Same draws as the partial variant; only the timeout reporting
  // differs, so the two paths cannot diverge.
  DIGEST_ASSIGN_OR_RETURN(PartialTupleBatch batch,
                          SampleBatchPartial(origin, n));
  if (batch.timed_out) {
    return Status::Unavailable(
        "sampling hop budget exhausted before the batch completed");
  }
  return std::move(batch.samples);
}

Result<PartialTupleBatch> TwoStageTupleSampler::SampleBatchPartial(
    NodeId origin, size_t n) {
  if (db_->Empty()) {
    return Status::FailedPrecondition("relation R is empty");
  }
  PartialTupleBatch out;
  out.samples.reserve(n);
  size_t rounds = 0;
  while (out.samples.size() < n) {
    if (++rounds > 100) {
      return Status::Unavailable(
          "two-stage sampling repeatedly hit empty/departed nodes");
    }
    const size_t want = n - out.samples.size();
    DIGEST_ASSIGN_OR_RETURN(PartialBatch nodes,
                            op_->SampleNodesPartial(origin, want));
    for (NodeId node : nodes.nodes) {
      // Under churn the sampled node may have vanished between the walk
      // and the local draw, or may hold no tuples (weight raced with an
      // update); such draws are retried.
      Result<const LocalStore*> store = db_->StoreAt(node);
      if (!store.ok() || (*store)->Size() == 0) continue;
      DIGEST_ASSIGN_OR_RETURN(auto pick, (*store)->UniformSample(rng_));
      out.samples.push_back(TupleSample{TupleRef{node, pick.first},
                                        std::move(pick.second)});
    }
    if (nodes.timed_out) {
      // The walk budget is spent; hand back whatever completed instead
      // of spinning further rounds against a dead budget.
      out.timed_out = true;
      break;
    }
  }
  return out;
}

Result<std::vector<TupleSample>> ClusterSampler::SampleCluster(
    NodeId origin) {
  DIGEST_ASSIGN_OR_RETURN(NodeId node, op_->SampleNode(origin));
  DIGEST_ASSIGN_OR_RETURN(const LocalStore* store, db_->StoreAt(node));
  std::vector<TupleSample> out;
  out.reserve(store->Size());
  store->ForEach([&](LocalTupleId id, const Tuple& tuple) {
    out.push_back(TupleSample{TupleRef{node, id}, tuple});
  });
  return out;
}

Result<TupleSample> ExactTupleSampler::Sample() {
  DIGEST_ASSIGN_OR_RETURN(std::vector<TupleSample> batch, SampleBatch(1));
  return batch.front();
}

Result<std::vector<TupleSample>> ExactTupleSampler::SampleBatch(size_t n) {
  if (db_->Empty()) {
    return Status::FailedPrecondition("relation R is empty");
  }
  // Content-size-weighted node pick followed by a uniform local pick is
  // exactly uniform over tuples.
  std::vector<NodeId> nodes = db_->Nodes();
  std::vector<double> weights(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    weights[i] = static_cast<double>(db_->ContentSize(nodes[i]));
  }
  std::vector<TupleSample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = rng_.NextWeightedIndex(weights);
    if (pick >= nodes.size()) {
      return Status::Internal("weighted pick failed on non-empty relation");
    }
    DIGEST_ASSIGN_OR_RETURN(const LocalStore* store, db_->StoreAt(nodes[pick]));
    DIGEST_ASSIGN_OR_RETURN(auto tuple_pick, store->UniformSample(rng_));
    if (meter_ != nullptr) meter_->AddSampleTransfer();
    out.push_back(TupleSample{TupleRef{nodes[pick], tuple_pick.first},
                              std::move(tuple_pick.second)});
  }
  return out;
}

}  // namespace digest
