#ifndef DIGEST_DB_P2P_DATABASE_H_
#define DIGEST_DB_P2P_DATABASE_H_

#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "db/local_store.h"
#include "db/query.h"
#include "db/schema.h"
#include "net/graph.h"

namespace digest {

/// Globally unique reference to a tuple: the node holding it plus the
/// node-local id. Retained (repeated-sampling) samples hold TupleRefs and
/// re-resolve them at the next occasion, detecting deletions and node
/// departures.
struct TupleRef {
  NodeId node = kInvalidNode;
  LocalTupleId local = 0;

  friend bool operator==(const TupleRef& a, const TupleRef& b) {
    return a.node == b.node && a.local == b.local;
  }
};

/// The peer-to-peer database: a single relation R horizontally
/// partitioned over the nodes of an overlay graph (paper §II).
///
/// The database does not own the Graph; the simulation owns both and
/// keeps membership in sync (AddNode/RemoveNode mirror graph churn).
/// ExactAggregate is a centralized oracle used only for ground truth in
/// tests and experiment metrics — the algorithms under study never call
/// it.
class P2PDatabase {
 public:
  explicit P2PDatabase(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Registers an (empty) store for a node. Fails if one already exists.
  Status AddNode(NodeId node);

  /// Drops a node's store and all its tuples (the peer left with its
  /// content). Fails if the node has no store.
  Status RemoveNode(NodeId node);

  /// True iff the node has a store.
  bool HasNode(NodeId node) const {
    return stores_.find(node) != stores_.end();
  }

  /// Mutable access to a node's store; fails with kNotFound when absent.
  Result<LocalStore*> StoreAt(NodeId node);

  /// Read access to a node's store; fails with kNotFound when absent.
  Result<const LocalStore*> StoreAt(NodeId node) const;

  /// Content size m_v of the node; 0 for unknown nodes (so it can be used
  /// directly as a sampling weight function).
  size_t ContentSize(NodeId node) const;

  /// Total number of tuples in R across all nodes (scans every store).
  size_t TotalTuples() const;

  /// True iff R holds no tuple. Stops at the first non-empty store,
  /// where TotalTuples() == 0 would scan every store.
  bool Empty() const;

  /// Ids of all nodes that currently have stores.
  std::vector<NodeId> Nodes() const;

  /// Resolves a TupleRef. Fails with kUnavailable when the node left and
  /// kNotFound when the tuple was deleted.
  Result<Tuple> GetTuple(const TupleRef& ref) const;

  /// Centralized oracle evaluation of a snapshot aggregate query over the
  /// full relation (ground truth X[t]). AVG fails on an empty relation.
  Result<double> ExactAggregate(const AggregateQuery& query) const;

 private:
  Schema schema_;
  std::unordered_map<NodeId, LocalStore> stores_;
};

}  // namespace digest

#endif  // DIGEST_DB_P2P_DATABASE_H_
