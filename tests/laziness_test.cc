// Tests of the configurable walk laziness (design-choice ablation #1)
// and the eigengap-based walk-length recommendation.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "sampling/metropolis.h"
#include "sampling/sampling_operator.h"

namespace digest {
namespace {

TEST(LazinessTest, ForwardingMatrixValidatesLaziness) {
  Graph g = MakeComplete(4).value();
  EXPECT_TRUE(BuildForwardingMatrix(g, UniformWeight(), 0.0).ok());
  EXPECT_TRUE(BuildForwardingMatrix(g, UniformWeight(), 0.9).ok());
  EXPECT_FALSE(BuildForwardingMatrix(g, UniformWeight(), 1.0).ok());
  EXPECT_FALSE(BuildForwardingMatrix(g, UniformWeight(), -0.1).ok());
}

TEST(LazinessTest, StationarityHoldsForAnyLaziness) {
  Rng rng(1);
  Graph g = MakeBarabasiAlbert(20, 2, rng).value();
  WeightFn weight = [](NodeId v) { return 1.0 + (v % 4); };
  for (double lam : {0.0, 0.25, 0.5, 0.75}) {
    ForwardingMatrix fm =
        BuildForwardingMatrix(g, weight, lam).value();
    std::vector<double> pi_p = fm.p.VecMat(fm.pi);
    for (size_t i = 0; i < pi_p.size(); ++i) {
      EXPECT_NEAR(pi_p[i], fm.pi[i], 1e-12) << "laziness " << lam;
    }
  }
}

TEST(LazinessTest, NonLazyOscillatesOnBipartiteGraph) {
  // An even ring is bipartite: the non-lazy chain is periodic, so a
  // deterministic start never converges in TV — alternating between the
  // two sides. The lazy chain converges fine.
  Graph ring = MakeRing(12).value();
  ForwardingMatrix nonlazy =
      BuildForwardingMatrix(ring, UniformWeight(), 0.0).value();
  ForwardingMatrix lazy =
      BuildForwardingMatrix(ring, UniformWeight(), 0.5).value();
  std::vector<double> start(12, 0.0);
  start[0] = 1.0;
  const double tv_nonlazy = TotalVariationDistance(
      DistributionAfter(nonlazy, start, 600).value(), nonlazy.pi)
                                .value();
  const double tv_lazy = TotalVariationDistance(
      DistributionAfter(lazy, start, 600).value(), lazy.pi)
                             .value();
  EXPECT_GT(tv_nonlazy, 0.45);  // Stuck at ~1/2 (mass on one side).
  EXPECT_LT(tv_lazy, 0.01);
}

TEST(LazinessTest, NonLazyMixesFasterOnNonBipartiteGraph) {
  Rng rng(2);
  Graph g = MakeBarabasiAlbert(24, 3, rng).value();
  ForwardingMatrix nonlazy =
      BuildForwardingMatrix(g, UniformWeight(), 0.0).value();
  ForwardingMatrix lazy =
      BuildForwardingMatrix(g, UniformWeight(), 0.5).value();
  std::vector<double> start(g.NodeCount(), 0.0);
  start[0] = 1.0;
  const size_t steps = 30;
  const double tv_nonlazy = TotalVariationDistance(
      DistributionAfter(nonlazy, start, steps).value(), nonlazy.pi)
                                .value();
  const double tv_lazy = TotalVariationDistance(
      DistributionAfter(lazy, start, steps).value(), lazy.pi)
                             .value();
  // Halving the hold probability roughly doubles progress per step.
  EXPECT_LT(tv_nonlazy, tv_lazy);
}

TEST(LazinessTest, OperatorRespectsLaziness) {
  // With laziness ~0 every step issues a weight probe; with high
  // laziness most steps are free.
  Rng rng(3);
  Graph g = MakeBarabasiAlbert(30, 3, rng).value();
  auto probes_for = [&](double lam) {
    MessageMeter meter;
    SamplingOperatorOptions options;
    options.walk_length = 400;
    options.warm_walks = false;
    options.laziness = lam;
    SamplingOperator op(&g, UniformWeight(), Rng(4), &meter, options);
    EXPECT_TRUE(op.SampleNodes(0, 1).ok());
    return meter.weight_probes();
  };
  const uint64_t probes_eager = probes_for(0.0);
  const uint64_t probes_lazy = probes_for(0.75);
  EXPECT_EQ(probes_eager, 400u);
  EXPECT_NEAR(static_cast<double>(probes_lazy), 100.0, 40.0);
}

TEST(RecommendWalkLengthTest, BoundIsSufficientForConvergence) {
  Rng rng(5);
  Graph g = MakeBarabasiAlbert(24, 2, rng).value();
  const double gamma = 0.02;
  const size_t steps =
      RecommendWalkLength(g, UniformWeight(), gamma).value();
  ForwardingMatrix fm = BuildForwardingMatrix(g, UniformWeight()).value();
  // Worst deterministic start must be within gamma after `steps`.
  for (NodeId s : g.LiveNodes()) {
    std::vector<double> start(fm.p.rows(), 0.0);
    for (size_t r = 0; r < fm.nodes.size(); ++r) {
      if (fm.nodes[r] == s) start[r] = 1.0;
    }
    const double tv = TotalVariationDistance(
        DistributionAfter(fm, start, steps).value(), fm.pi)
                          .value();
    EXPECT_LE(tv, gamma) << "start " << s;
  }
}

TEST(RecommendWalkLengthTest, SlowTopologiesNeedLongerWalks) {
  Rng rng(6);
  Graph ring = MakeRing(16).value();
  Graph complete = MakeComplete(16).value();
  const size_t ring_len =
      RecommendWalkLength(ring, UniformWeight(), 0.01).value();
  const size_t complete_len =
      RecommendWalkLength(complete, UniformWeight(), 0.01).value();
  EXPECT_GT(ring_len, 2 * complete_len);
}

TEST(RecommendWalkLengthTest, Validation) {
  Graph g = MakeComplete(4).value();
  EXPECT_FALSE(RecommendWalkLength(g, UniformWeight(), 0.0).ok());
  EXPECT_FALSE(RecommendWalkLength(g, UniformWeight(), 1.0).ok());
  Graph disconnected;
  disconnected.AddNode();
  disconnected.AddNode();
  EXPECT_FALSE(
      RecommendWalkLength(disconnected, UniformWeight(), 0.1).ok());
}

}  // namespace
}  // namespace digest
