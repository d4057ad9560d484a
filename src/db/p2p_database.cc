#include "db/p2p_database.h"

#include <algorithm>
#include <string>

namespace digest {

Status P2PDatabase::AddNode(NodeId node) {
  if (HasNode(node)) {
    return Status::AlreadyExists("node " + std::to_string(node) +
                                 " already has a store");
  }
  stores_.emplace(node, LocalStore());
  return Status::OK();
}

Status P2PDatabase::RemoveNode(NodeId node) {
  if (stores_.erase(node) == 0) {
    return Status::NotFound("node " + std::to_string(node) + " has no store");
  }
  return Status::OK();
}

Result<LocalStore*> P2PDatabase::StoreAt(NodeId node) {
  auto it = stores_.find(node);
  if (it == stores_.end()) {
    return Status::NotFound("node " + std::to_string(node) + " has no store");
  }
  return &it->second;
}

Result<const LocalStore*> P2PDatabase::StoreAt(NodeId node) const {
  auto it = stores_.find(node);
  if (it == stores_.end()) {
    return Status::NotFound("node " + std::to_string(node) + " has no store");
  }
  return &it->second;
}

size_t P2PDatabase::ContentSize(NodeId node) const {
  auto it = stores_.find(node);
  return it == stores_.end() ? 0 : it->second.Size();
}

size_t P2PDatabase::TotalTuples() const {
  size_t total = 0;
  for (const auto& [node, store] : stores_) {
    (void)node;
    total += store.Size();
  }
  return total;
}

bool P2PDatabase::Empty() const {
  for (const auto& [node, store] : stores_) {
    (void)node;
    if (store.Size() > 0) return false;
  }
  return true;
}

std::vector<NodeId> P2PDatabase::Nodes() const {
  std::vector<NodeId> out;
  out.reserve(stores_.size());
  for (const auto& [node, store] : stores_) {
    (void)store;
    out.push_back(node);
  }
  return out;
}

Result<Tuple> P2PDatabase::GetTuple(const TupleRef& ref) const {
  auto it = stores_.find(ref.node);
  if (it == stores_.end()) {
    return Status::Unavailable("node " + std::to_string(ref.node) +
                               " left the network");
  }
  Result<Tuple> tuple = it->second.Get(ref.local);
  if (!tuple.ok()) {
    return Status::NotFound("tuple was deleted from node " +
                            std::to_string(ref.node));
  }
  return tuple;
}

Result<double> P2PDatabase::ExactAggregate(const AggregateQuery& query) const {
  if (query.op == AggregateOp::kCount && query.where.IsTrivial()) {
    return static_cast<double>(TotalTuples());
  }
  Expression expr = query.expression;
  DIGEST_RETURN_IF_ERROR(expr.Bind(schema_));
  Predicate where = query.where;
  DIGEST_RETURN_IF_ERROR(where.Bind(schema_));
  double sum = 0.0;
  size_t count = 0;
  std::vector<double> values;  // Only collected for MEDIAN.
  const bool need_values = query.op == AggregateOp::kMedian;
  Status failure = Status::OK();
  for (const auto& [node, store] : stores_) {
    (void)node;
    store.ForEach([&](LocalTupleId id, const Tuple& tuple) {
      (void)id;
      if (!failure.ok()) return;
      Result<bool> qualifies = where.Evaluate(tuple);
      if (!qualifies.ok()) {
        failure = qualifies.status();
        return;
      }
      if (!*qualifies) return;
      Result<double> value = expr.Evaluate(tuple);
      if (!value.ok()) {
        failure = value.status();
        return;
      }
      sum += *value;
      ++count;
      if (need_values) values.push_back(*value);
    });
    if (!failure.ok()) return failure;
  }
  switch (query.op) {
    case AggregateOp::kSum:
      return sum;
    case AggregateOp::kCount:
      return static_cast<double>(count);
    case AggregateOp::kAvg:
      if (count == 0) {
        return Status::FailedPrecondition(
            "AVG over an empty (qualifying) relation");
      }
      return sum / static_cast<double>(count);
    case AggregateOp::kMedian: {
      if (values.empty()) {
        return Status::FailedPrecondition(
            "MEDIAN over an empty (qualifying) relation");
      }
      // Lower median (the value at rank ceil(n/2)).
      const size_t mid = (values.size() - 1) / 2;
      std::nth_element(values.begin(), values.begin() + mid, values.end());
      return values[mid];
    }
  }
  return Status::Internal("unhandled aggregate op");
}

}  // namespace digest
