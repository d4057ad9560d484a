#include "sampling/random_walk.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sampling/metropolis.h"
#include "sampling/weight.h"

namespace digest {
namespace {

TEST(RandomWalkTest, StaysOnLiveNodes) {
  Rng rng(1);
  Result<Graph> g = MakeBarabasiAlbert(30, 2, rng);
  ASSERT_TRUE(g.ok());
  const WalkContext context(*g, UniformWeight(), /*fallback=*/0);
  WalkIo io;
  RandomWalk walk(0);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(walk.Step(context, rng, io).ok());
    ASSERT_TRUE(g->HasNode(walk.current()));
  }
}

TEST(RandomWalkTest, MovesOnlyAlongEdges) {
  Rng rng(2);
  Result<Graph> g = MakeRing(10);
  ASSERT_TRUE(g.ok());
  const WalkContext context(*g, UniformWeight(), /*fallback=*/3);
  WalkIo io;
  RandomWalk walk(3);
  NodeId prev = walk.current();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(walk.Step(context, rng, io).ok());
    const NodeId cur = walk.current();
    EXPECT_TRUE(cur == prev || g->HasEdge(prev, cur));
    prev = cur;
  }
}

TEST(RandomWalkTest, MeterCountsProbesAndHops) {
  Rng rng(3);
  Result<Graph> g = MakeComplete(8);
  ASSERT_TRUE(g.ok());
  MessageMeter meter;
  const WalkContext context(*g, UniformWeight(), /*fallback=*/0);
  WalkIo io;
  io.meter = &meter;
  RandomWalk walk(0);
  const size_t steps = 1000;
  ASSERT_TRUE(walk.Advance(context, rng, io, steps).ok());
  // Lazy half the time: ~500 proposals, all accepted on a complete graph
  // with uniform weights.
  EXPECT_NEAR(static_cast<double>(meter.weight_probes()), 500.0, 100.0);
  EXPECT_EQ(meter.walk_hops(), meter.weight_probes());
  EXPECT_EQ(meter.Total(), meter.walk_hops() + meter.weight_probes());
}

TEST(RandomWalkTest, RejectionsReduceHopsBelowProbes) {
  Rng rng(4);
  Result<Graph> g = MakeComplete(8);
  ASSERT_TRUE(g.ok());
  // Sharply nonuniform weight: many proposals get rejected.
  WeightFn weight = [](NodeId v) { return v == 0 ? 100.0 : 1.0; };
  MessageMeter meter;
  const WalkContext context(*g, weight, /*fallback=*/0);
  WalkIo io;
  io.meter = &meter;
  RandomWalk walk(0);
  ASSERT_TRUE(walk.Advance(context, rng, io, 2000).ok());
  EXPECT_LT(meter.walk_hops(), meter.weight_probes());
}

TEST(RandomWalkTest, RestartsFromFallbackAfterCurrentNodeLeaves) {
  Rng rng(5);
  Result<Graph> g = MakeComplete(6);
  ASSERT_TRUE(g.ok());
  RandomWalk walk(2);
  // Remove the node under the agent.
  ASSERT_TRUE(g->RemoveNode(2).ok());
  const WalkContext context(*g, UniformWeight(), /*fallback=*/4);
  WalkIo io;
  ASSERT_TRUE(walk.Step(context, rng, io).ok());
  ASSERT_TRUE(g->HasNode(walk.current()));
}

TEST(RandomWalkTest, FailsWhenFallbackAlsoDead) {
  Rng rng(6);
  Result<Graph> g = MakeComplete(4);
  ASSERT_TRUE(g.ok());
  RandomWalk walk(1);
  ASSERT_TRUE(g->RemoveNode(1).ok());
  ASSERT_TRUE(g->RemoveNode(2).ok());
  const WalkContext context(*g, UniformWeight(), /*fallback=*/2);
  WalkIo io;
  EXPECT_EQ(walk.Step(context, rng, io).code(), StatusCode::kUnavailable);
}

TEST(RandomWalkTest, IsolatedNodeStays) {
  Rng rng(7);
  Graph g;
  g.AddNode();
  RandomWalk walk(0);
  const WalkContext context(g, UniformWeight(), /*fallback=*/0);
  WalkIo io;
  ASSERT_TRUE(walk.Step(context, rng, io).ok());
  EXPECT_EQ(walk.current(), 0u);
}

TEST(RandomWalkTest, LongRunVisitsMatchTargetDistribution) {
  // Empirical occupancy of a single long walk vs the Metropolis target
  // (ergodic theorem), on an irregular graph with nonuniform weights.
  Rng rng(8);
  Result<Graph> g = MakeBarabasiAlbert(12, 2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight = [](NodeId v) { return 1.0 + (v % 4); };
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());

  RandomWalk walk(0);
  const WalkContext context(*g, weight, /*fallback=*/0);
  WalkIo io;
  std::vector<double> visits(g->NextId(), 0.0);
  const int warmup = 2000;
  const int steps = 300000;
  ASSERT_TRUE(walk.Advance(context, rng, io, warmup).ok());
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(walk.Step(context, rng, io).ok());
    visits[walk.current()] += 1.0;
  }
  std::vector<double> empirical(fm->nodes.size());
  for (size_t r = 0; r < fm->nodes.size(); ++r) {
    empirical[r] = visits[fm->nodes[r]] / steps;
  }
  Result<double> tv = TotalVariationDistance(empirical, fm->pi);
  ASSERT_TRUE(tv.ok());
  EXPECT_LT(*tv, 0.02);
}

}  // namespace
}  // namespace digest
