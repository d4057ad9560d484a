// Tests of the walk kernel's per-batch snapshot (src/net/walk_context)
// and of RandomWalk::Step reading it: the flat step against a
// hand-written reference transition on a graph with dead ids, a
// zero-weight node, an isolated node and a quarantined node;
// invalidation of each half between batches (graph mutations rebuild
// the adjacency, store inserts/erases move content-size weights,
// breaker flips move live degrees); and the context shared read-only by
// worker-pool threads (part of the TSan concurrency battery).
#include "net/walk_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "db/p2p_database.h"
#include "exec/worker_pool.h"
#include "net/peer_health.h"
#include "net/topology.h"
#include "sampling/random_walk.h"
#include "sampling/weight.h"

namespace digest {
namespace {

// Hand-built overlay. Ids 0..7; id 3 joined, linked to 0 and 4, then
// left (a dead id); 6 is isolated; 2 weighs nothing; 5 is quarantined
// in the routed case. The lists below are Graph::Neighbors order.
//
//   0: 1 2 4 5      4: 0 1 2 5 7
//   1: 0 2 4        5: 0 4
//   2: 0 1 4        7: 4
struct Fixture {
  Graph graph;
  std::vector<std::vector<NodeId>> neighbors = {
      {1, 2, 4, 5}, {0, 2, 4}, {0, 1, 4}, {}, {0, 1, 2, 5, 7}, {0, 4}, {},
      {4}};
  std::vector<double> weight = {3.0, 1.0, 0.0, 9.0, 2.0, 4.0, 5.0, 6.0};

  Fixture() {
    for (int i = 0; i < 8; ++i) graph.AddNode();
    const std::pair<NodeId, NodeId> edges[] = {
        {3, 0}, {0, 1}, {0, 2}, {3, 4}, {0, 4}, {0, 5}, {1, 2},
        {1, 4}, {2, 4}, {4, 5}, {4, 7}};
    for (const auto& [a, b] : edges) EXPECT_TRUE(graph.AddEdge(a, b).ok());
    EXPECT_TRUE(graph.RemoveNode(3).ok());
  }

  WeightFn Weight() const {
    return [this](NodeId v) { return weight[v]; };
  }
};

QuarantineView Quarantine(std::vector<NodeId> ids, size_t size) {
  std::vector<uint8_t> flags(size, 0);
  for (NodeId id : ids) flags[id] = 1;
  return QuarantineView(std::move(flags), ids.size());
}

// The lazy Metropolis transition written out from the definition, on
// the fixture's hand-written lists: stay with probability ½; otherwise
// propose uniformly over the non-quarantined neighbours (one
// NextIndex draw) and accept with min(1, w_j·d_i / (w_i·d_j)) over
// those live degrees, never onto weight 0, always off weight 0.
NodeId ReferenceStep(const Fixture& f, const std::vector<bool>& quarantined,
                     NodeId at, NodeId fallback, Rng& rng,
                     uint64_t* probes, uint64_t* hops) {
  if (at == 3) {  // Dead: the originator re-injects the agent.
    at = fallback;
    ++*hops;
  }
  if (rng.NextBernoulli(0.5)) return at;
  const auto live = [&](NodeId v) {
    std::vector<NodeId> out;
    for (NodeId n : f.neighbors[v]) {
      if (!quarantined[n]) out.push_back(n);
    }
    return out;
  };
  const std::vector<NodeId> support = live(at);
  if (support.empty()) return at;
  const NodeId j = support[rng.NextIndex(support.size())];
  ++*probes;
  const double wi = f.weight[at];
  const double wj = f.weight[j];
  const double di = static_cast<double>(support.size());
  const double dj = static_cast<double>(live(j).size());
  double accept = 1.0;
  if (wj <= 0.0) {
    accept = 0.0;
  } else if (wi > 0.0) {
    accept = std::min(1.0, (wj * di) / (wi * dj));
  }
  if (!rng.NextBernoulli(accept)) return at;
  ++*hops;
  return j;
}

void ExpectStepMatchesReference(const QuarantineView* view,
                                const std::vector<bool>& quarantined) {
  Fixture f;
  for (NodeId v = 0; v < 8; ++v) {
    ASSERT_EQ(f.graph.Neighbors(v), f.neighbors[v]) << "node " << v;
  }
  const NodeId fallback = 1;
  const WalkContext context(f.graph, f.Weight(), fallback, view);
  for (const NodeId start : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    RandomWalk walk(start);
    MessageMeter meter;
    WalkIo io;
    io.meter = &meter;
    Rng rng(100 + start);
    Rng mirror(100 + start);
    NodeId expected = start;
    uint64_t probes = 0;
    uint64_t hops = 0;
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(walk.Step(context, rng, io).ok());
      expected = ReferenceStep(f, quarantined, expected, fallback, mirror,
                               &probes, &hops);
      ASSERT_EQ(walk.current(), expected) << "start " << start << " step "
                                          << i;
    }
    // Same draws consumed, same messages sent.
    EXPECT_EQ(rng.NextU64(), mirror.NextU64());
    EXPECT_EQ(meter.weight_probes(), probes);
    EXPECT_EQ(meter.walk_hops(), hops);
    EXPECT_EQ(io.telemetry.proposals, probes);
    EXPECT_EQ(io.telemetry.attempts, 2000u);
  }
}

TEST(WalkContextTest, SnapshotHoldsAdjacencyWeightsAndSupports) {
  Fixture f;
  const QuarantineView view = Quarantine({5}, 8);
  const WalkContext context(f.graph, f.Weight(), /*fallback=*/1, &view);
  ASSERT_EQ(context.NextId(), 8u);
  EXPECT_TRUE(context.routed());
  EXPECT_EQ(context.fallback(), 1u);
  for (NodeId v = 0; v < 8; ++v) {
    const WalkContext::Row& row = context.row(v);
    EXPECT_EQ(row.live, v != 3) << v;
    EXPECT_EQ(row.quarantined, v == 5) << v;
    EXPECT_EQ(std::vector<NodeId>(context.neighbors(row),
                                  context.neighbors(row) + row.degree),
              f.neighbors[v])
        << v;
    EXPECT_EQ(context.Weight(v), v == 3 ? 0.0 : f.weight[v]) << v;
    EXPECT_EQ(row.threshold, Rng::IndexThreshold(row.bound)) << v;
  }
  // Live degrees: 5 drops out of 0's and 4's supports; 5 itself keeps
  // both of its (live) neighbours; dead 3 and isolated 6 have none.
  const uint32_t bounds[] = {3, 3, 3, 0, 4, 2, 0, 1};
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(context.row(v).bound, bounds[v]);
  EXPECT_FALSE(context.Live(8));
  EXPECT_FALSE(context.Live(kInvalidNode));
  EXPECT_EQ(context.Weight(kInvalidNode), 0.0);
}

TEST(WalkContextTest, FlatStepMatchesHandWrittenTransition) {
  ExpectStepMatchesReference(nullptr, std::vector<bool>(8, false));
}

TEST(WalkContextTest, FlatStepMatchesHandWrittenTransitionUnderQuarantine) {
  std::vector<bool> quarantined(8, false);
  quarantined[5] = true;
  const QuarantineView view = Quarantine({5}, 8);
  ExpectStepMatchesReference(&view, quarantined);
}

TEST(WalkContextTest, EmptyQuarantineViewRoutesLikeNoView) {
  Fixture f;
  const QuarantineView empty;
  const WalkContext with_view(f.graph, f.Weight(), 1, &empty);
  EXPECT_FALSE(with_view.routed());
  ExpectStepMatchesReference(&empty, std::vector<bool>(8, false));
}

TEST(WalkContextTest, AdjacencyRebuildsOnlyAfterGraphMutation) {
  Fixture f;
  WalkContext context;
  const WeightFn weight = f.Weight();
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 1u);
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 1u);  // Unchanged graph: reused.

  ASSERT_TRUE(f.graph.AddEdge(6, 7).ok());
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 2u);
  EXPECT_EQ(context.row(6).degree, 1u);
  EXPECT_EQ(context.neighbors(context.row(6))[0], 7u);
  EXPECT_EQ(context.row(7).degree, 2u);
  EXPECT_EQ(context.row(7).threshold, Rng::IndexThreshold(2));

  ASSERT_TRUE(f.graph.RemoveEdge(0, 1).ok());
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 3u);
  const WalkContext::Row& zero = context.row(0);
  EXPECT_EQ(std::vector<NodeId>(context.neighbors(zero),
                                context.neighbors(zero) + zero.degree),
            f.graph.Neighbors(0));
  EXPECT_EQ(zero.bound, 3u);

  ASSERT_TRUE(f.graph.RemoveNode(4).ok());
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 4u);
  EXPECT_FALSE(context.Live(4));
  EXPECT_EQ(context.Weight(4), 0.0);
  EXPECT_EQ(context.row(7).degree, 1u);  // Only 6 is left.

  f.weight.push_back(1.0);  // The joiner's weight.
  const NodeId joined = f.graph.AddNode();
  context.Refresh(f.graph, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 5u);
  EXPECT_EQ(context.NextId(), joined + 1);
  EXPECT_TRUE(context.Live(joined));

  // A copy carries its source's epoch: same structure, no rebuild.
  const Graph copy = f.graph;
  context.Refresh(copy, weight, nullptr);
  EXPECT_EQ(context.adjacency_builds(), 5u);
  // Two graphs built by the same calls still differ in epoch.
  Graph other;
  for (int i = 0; i < 3; ++i) other.AddNode();
  Graph twin;
  for (int i = 0; i < 3; ++i) twin.AddNode();
  EXPECT_NE(other.epoch(), twin.epoch());
}

TEST(WalkContextTest, ContentSizesFollowStoreChangesBetweenBatches) {
  Result<Graph> graph = MakeRing(4);
  ASSERT_TRUE(graph.ok());
  P2PDatabase db(Schema::Create({"v"}).value());
  for (NodeId v = 0; v < 4; ++v) ASSERT_TRUE(db.AddNode(v).ok());
  LocalStore* store = db.StoreAt(2).value();
  const LocalTupleId a = store->Insert({1.0});
  store->Insert({2.0});

  const WeightFn weight = ContentSizeWeight(db);
  WalkContext context;
  context.Refresh(*graph, weight, nullptr);
  EXPECT_EQ(context.Weight(2), 2.0);
  EXPECT_EQ(context.Weight(0), 0.0);

  store->Insert({3.0});
  db.StoreAt(0).value()->Insert({4.0});
  context.Refresh(*graph, weight, nullptr);
  EXPECT_EQ(context.Weight(2), 3.0);
  EXPECT_EQ(context.Weight(0), 1.0);

  ASSERT_TRUE(store->Erase(a).ok());
  context.Refresh(*graph, weight, nullptr);
  EXPECT_EQ(context.Weight(2), 2.0);
  // Content moved, the overlay did not: one adjacency build in all.
  EXPECT_EQ(context.adjacency_builds(), 1u);
}

TEST(WalkContextTest, LiveDegreesFollowBreakerFlipsBetweenBatches) {
  Fixture f;
  PeerHealthMonitor monitor;
  monitor.set_now(0);
  const WeightFn weight = f.Weight();
  WalkContext context;
  const QuarantineView closed = monitor.SnapshotView();
  context.Refresh(f.graph, weight, &closed);
  EXPECT_FALSE(context.routed());
  EXPECT_EQ(context.row(4).bound, 5u);

  // Five straight failures open peer 5's breaker (default config).
  for (int i = 0; i < 5; ++i) {
    WalkHealthBuffer buffer;
    buffer.RecordFailure(5);
    monitor.FoldWalk(buffer);
  }
  ASSERT_EQ(monitor.StateOf(5), BreakerState::kOpen);
  const QuarantineView open = monitor.SnapshotView();
  context.Refresh(f.graph, weight, &open);
  EXPECT_TRUE(context.routed());
  EXPECT_TRUE(context.row(5).quarantined);
  EXPECT_EQ(context.row(4).bound, 4u);
  EXPECT_EQ(context.row(0).bound, 3u);
  EXPECT_EQ(context.row(4).threshold, Rng::IndexThreshold(4));

  // The cooldown elapses: half-open peers are routed again.
  monitor.set_now(8);
  ASSERT_EQ(monitor.StateOf(5), BreakerState::kHalfOpen);
  const QuarantineView healed = monitor.SnapshotView();
  context.Refresh(f.graph, weight, &healed);
  EXPECT_FALSE(context.routed());
  EXPECT_FALSE(context.row(5).quarantined);
  EXPECT_EQ(context.row(4).bound, 5u);
  EXPECT_EQ(context.row(4).threshold, Rng::IndexThreshold(5));
  EXPECT_EQ(context.adjacency_builds(), 1u);
}

TEST(WalkContextTest, SharedReadOnlyAcrossPoolThreads) {
  // One context, many walks on the worker pool: each walk draws from
  // its own substream and writes only its own WalkIo, so the positions
  // equal a serial run's at any thread count.
  Rng topo(7);
  Result<Graph> graph = MakeBarabasiAlbert(200, 3, topo);
  ASSERT_TRUE(graph.ok());
  const QuarantineView view = Quarantine({3, 17, 42}, 200);
  const WalkContext context(
      *graph, [](NodeId v) { return 1.0 + (v % 5); }, /*fallback=*/0,
      &view);
  const Rng base(99);
  constexpr size_t kWalks = 64;
  const auto run = [&](size_t i, std::vector<NodeId>& out,
                       std::vector<uint64_t>& probes) {
    Rng rng = base.Split(i);
    MessageMeter meter;
    WalkIo io;
    io.meter = &meter;
    RandomWalk walk(static_cast<NodeId>(i));
    Status status = walk.Advance(context, rng, io, 500);
    out[i] = walk.current();
    probes[i] = meter.weight_probes();
    return status;
  };
  std::vector<NodeId> serial(kWalks);
  std::vector<uint64_t> serial_probes(kWalks);
  for (size_t i = 0; i < kWalks; ++i) {
    ASSERT_TRUE(run(i, serial, serial_probes).ok());
  }
  exec::WorkerPool pool(4);
  std::vector<NodeId> parallel(kWalks);
  std::vector<uint64_t> parallel_probes(kWalks);
  ASSERT_TRUE(pool.ParallelFor(kWalks, [&](size_t i, size_t) {
                    return run(i, parallel, parallel_probes);
                  })
                  .ok());
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel_probes, serial_probes);
}

}  // namespace
}  // namespace digest
