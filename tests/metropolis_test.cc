#include "sampling/metropolis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/peer_health.h"
#include "net/topology.h"
#include "sampling/random_walk.h"

namespace digest {
namespace {

TEST(MetropolisAcceptanceTest, SymmetricCaseAlwaysAccepts) {
  // Equal weights, equal degrees: ratio 1.
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(1.0, 4, 1.0, 4), 1.0);
}

TEST(MetropolisAcceptanceTest, RatioBelowOne) {
  // Moving toward lower weight-per-degree is damped by the ratio.
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(2.0, 2, 1.0, 2), 0.5);
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(1.0, 2, 2.0, 2), 1.0);
  // Degrees enter the ratio: w_j d_i / (w_i d_j).
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(1.0, 1, 1.0, 4), 0.25);
}

TEST(MetropolisAcceptanceTest, ZeroWeights) {
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(1.0, 2, 0.0, 2), 0.0);
  EXPECT_DOUBLE_EQ(MetropolisAcceptance(0.0, 2, 1.0, 2), 1.0);
}

TEST(ForwardingMatrixTest, RowsAreStochastic) {
  Rng rng(1);
  Result<Graph> g = MakeBarabasiAlbert(30, 2, rng);
  ASSERT_TRUE(g.ok());
  Result<ForwardingMatrix> fm =
      BuildForwardingMatrix(*g, UniformWeight());
  ASSERT_TRUE(fm.ok());
  const size_t n = fm->p.rows();
  ASSERT_EQ(n, 30u);
  for (size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
      EXPECT_GE(fm->p(r, c), 0.0);
      sum += fm->p(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // Laziness: self-loop probability at least 1/2.
    EXPECT_GE(fm->p(r, r), 0.5 - 1e-12);
  }
}

TEST(ForwardingMatrixTest, StationarityOfTarget) {
  // π P = π for the Metropolis chain (Theorem 2), for a nonuniform
  // weight on an irregular graph.
  Rng rng(2);
  Result<Graph> g = MakeErdosRenyi(25, 0.2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight = [](NodeId v) { return 1.0 + (v % 5); };
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());
  std::vector<double> pi_p = fm->p.VecMat(fm->pi);
  for (size_t i = 0; i < pi_p.size(); ++i) {
    EXPECT_NEAR(pi_p[i], fm->pi[i], 1e-12);
  }
}

TEST(ForwardingMatrixTest, DetailedBalanceHolds) {
  Rng rng(3);
  Result<Graph> g = MakeBarabasiAlbert(20, 2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight = [](NodeId v) { return (v % 3 == 0) ? 4.0 : 1.0; };
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());
  const size_t n = fm->p.rows();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(fm->pi[i] * fm->p(i, j), fm->pi[j] * fm->p(j, i), 1e-13);
    }
  }
}

TEST(ForwardingMatrixTest, RequiresConnectedGraphAndPositiveWeights) {
  Graph g;
  g.AddNode();
  g.AddNode();
  EXPECT_EQ(BuildForwardingMatrix(g, UniformWeight()).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(BuildForwardingMatrix(g, UniformWeight()).ok());
  WeightFn zero = [](NodeId v) { return v == 0 ? 0.0 : 1.0; };
  EXPECT_EQ(BuildForwardingMatrix(g, zero).status().code(),
            StatusCode::kInvalidArgument);
  Graph empty;
  EXPECT_FALSE(BuildForwardingMatrix(empty, UniformWeight()).ok());
}

TEST(TotalVariationTest, KnownValues) {
  EXPECT_DOUBLE_EQ(
      TotalVariationDistance({0.5, 0.5}, {0.5, 0.5}).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      TotalVariationDistance({1.0, 0.0}, {0.0, 1.0}).value(), 1.0);
  EXPECT_DOUBLE_EQ(
      TotalVariationDistance({0.7, 0.3}, {0.5, 0.5}).value(), 0.2);
  EXPECT_FALSE(TotalVariationDistance({1.0}, {0.5, 0.5}).ok());
}

TEST(DistributionAfterTest, ConvergesToStationary) {
  Rng rng(4);
  Result<Graph> g = MakeErdosRenyi(20, 0.3, rng);
  ASSERT_TRUE(g.ok());
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, UniformWeight());
  ASSERT_TRUE(fm.ok());
  std::vector<double> start(fm->p.rows(), 0.0);
  start[0] = 1.0;  // Deterministic start.
  Result<std::vector<double>> after =
      DistributionAfter(*fm, start, 400);
  ASSERT_TRUE(after.ok());
  Result<double> tv = TotalVariationDistance(*after, fm->pi);
  ASSERT_TRUE(tv.ok());
  EXPECT_LT(*tv, 1e-6);
}

TEST(DistributionAfterTest, ZeroStepsIsIdentity) {
  Result<Graph> g = MakeRing(5);
  ASSERT_TRUE(g.ok());
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, UniformWeight());
  ASSERT_TRUE(fm.ok());
  std::vector<double> start = {1.0, 0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(DistributionAfter(*fm, start, 0).value(), start);
}

TEST(MixingTimeTest, MonotoneInGamma) {
  Result<Graph> g = MakeRing(12);
  ASSERT_TRUE(g.ok());
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, UniformWeight());
  ASSERT_TRUE(fm.ok());
  Result<size_t> loose = MixingTime(*fm, 0.25);
  Result<size_t> tight = MixingTime(*fm, 0.01);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(tight.ok());
  EXPECT_LE(*loose, *tight);
  EXPECT_GT(*tight, 0u);
}

TEST(MixingTimeTest, CompleteGraphMixesFasterThanRing) {
  const size_t n = 14;
  Result<Graph> ring = MakeRing(n);
  Result<Graph> complete = MakeComplete(n);
  ASSERT_TRUE(ring.ok());
  ASSERT_TRUE(complete.ok());
  Result<ForwardingMatrix> fm_ring =
      BuildForwardingMatrix(*ring, UniformWeight());
  Result<ForwardingMatrix> fm_complete =
      BuildForwardingMatrix(*complete, UniformWeight());
  ASSERT_TRUE(fm_ring.ok());
  ASSERT_TRUE(fm_complete.ok());
  Result<size_t> t_ring = MixingTime(*fm_ring, 0.05);
  Result<size_t> t_complete = MixingTime(*fm_complete, 0.05);
  ASSERT_TRUE(t_ring.ok());
  ASSERT_TRUE(t_complete.ok());
  EXPECT_LT(*t_complete, *t_ring);
}

TEST(MixingTimeTest, EigengapBoundHolds) {
  // Theorem 3: τ(γ) ≤ θ⁻¹ ln(1/(π_min γ)).
  Rng rng(5);
  Result<Graph> g = MakeBarabasiAlbert(16, 2, rng);
  ASSERT_TRUE(g.ok());
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, UniformWeight());
  ASSERT_TRUE(fm.ok());
  Result<double> lambda2 = SecondEigenvalueMagnitude(fm->p, fm->pi);
  ASSERT_TRUE(lambda2.ok());
  const double gap = 1.0 - *lambda2;
  ASSERT_GT(gap, 0.0);
  double pi_min = 1.0;
  for (double p : fm->pi) pi_min = std::min(pi_min, p);
  const double gamma = 0.01;
  const double bound = std::log(1.0 / (pi_min * gamma)) / gap;
  Result<size_t> tau = MixingTime(*fm, gamma);
  ASSERT_TRUE(tau.ok());
  EXPECT_LE(static_cast<double>(*tau), bound + 1.0);
}

// Long-run acceptance for quarantine-aware routing: with an OPEN
// breaker set (peers removed from the proposal distribution by the
// peer-health monitor), the lazy Metropolis walk with live-degree
// corrections is exactly the Metropolis chain on the induced live
// subgraph — so its empirical visit histogram must converge to the
// weight-proportional stationary target over the LIVE nodes, and the
// quarantined nodes must never be visited. This is the same TV gate
// the src/diag stationary_gap check applies to engine runs, driven
// here at chain granularity.
TEST(QuarantineMetropolisTest, VisitHistogramMeetsStationaryTargetTV) {
  const Graph graph = MakeMesh(5, 5).value();  // Degrees 2/3/4.
  const WeightFn weight = [](NodeId v) {
    return 1.0 + static_cast<double>(v % 4);
  };

  // Open two interior breakers via the real monitor (not a hand-rolled
  // view): sustained failures, exactly as folded walk outcomes would.
  PeerHealthMonitor monitor;
  monitor.set_now(0);
  for (NodeId peer : {NodeId{7}, NodeId{17}}) {
    for (int i = 0; i < 5; ++i) {
      WalkHealthBuffer buffer;
      buffer.RecordFailure(peer);
      monitor.FoldWalk(buffer);
    }
    ASSERT_EQ(monitor.StateOf(peer), BreakerState::kOpen);
  }
  const QuarantineView view = monitor.SnapshotView();
  ASSERT_EQ(view.count(), 2u);

  // The induced live subgraph must be connected or the walk cannot
  // reach every live node (BFS over non-quarantined neighbors).
  {
    std::vector<bool> reached(graph.NodeCount(), false);
    std::vector<NodeId> frontier = {0};
    reached[0] = true;
    size_t live_reached = 1;
    while (!frontier.empty()) {
      const NodeId at = frontier.back();
      frontier.pop_back();
      for (NodeId next : graph.Neighbors(at)) {
        if (view.Quarantined(next) || reached[next]) continue;
        reached[next] = true;
        ++live_reached;
        frontier.push_back(next);
      }
    }
    ASSERT_EQ(live_reached, graph.NodeCount() - view.count());
  }

  // Weight-proportional target over the live nodes only.
  double total_weight = 0.0;
  for (NodeId v = 0; v < static_cast<NodeId>(graph.NodeCount()); ++v) {
    if (!view.Quarantined(v)) total_weight += weight(v);
  }

  RandomWalk walk(/*origin=*/0);
  Rng rng(4242);
  const WalkContext context(graph, weight, /*fallback=*/0, &view);
  WalkIo io;
  std::vector<uint64_t> visits(graph.NodeCount(), 0);
  const size_t kBurnIn = 2000;
  const size_t kSteps = 300000;
  for (size_t i = 0; i < kBurnIn + kSteps; ++i) {
    ASSERT_TRUE(walk.Step(context, rng, io).ok());
    if (i >= kBurnIn) ++visits[walk.current()];
  }

  std::vector<double> empirical, target;
  for (NodeId v = 0; v < static_cast<NodeId>(graph.NodeCount()); ++v) {
    if (view.Quarantined(v)) {
      // The quarantine is airtight: an open peer is NEVER proposed.
      EXPECT_EQ(visits[v], 0u) << "visited quarantined node " << v;
      continue;
    }
    empirical.push_back(static_cast<double>(visits[v]) /
                        static_cast<double>(kSteps));
    target.push_back(weight(v) / total_weight);
  }
  const Result<double> tv = TotalVariationDistance(empirical, target);
  ASSERT_TRUE(tv.ok());
  // 300k recorded steps on 23 live nodes: sampling noise alone is
  // ~0.006 TV; 0.02 leaves headroom while still catching any
  // stationary-target bias from the live-degree corrections.
  EXPECT_LT(*tv, 0.02);

  // Control: the SAME chain without the quarantine view targets the
  // full graph — the restriction really is doing the re-weighting.
  RandomWalk free_walk(/*origin=*/0);
  Rng free_rng(4242);
  const WalkContext free_context(graph, weight, /*fallback=*/0);
  WalkIo free_io;
  std::vector<uint64_t> free_visits(graph.NodeCount(), 0);
  for (size_t i = 0; i < kBurnIn + kSteps; ++i) {
    ASSERT_TRUE(free_walk.Step(free_context, free_rng, free_io).ok());
    if (i >= kBurnIn) ++free_visits[free_walk.current()];
  }
  EXPECT_GT(free_visits[7], 0u);
  EXPECT_GT(free_visits[17], 0u);
}

// Property sweep: stationarity holds for every topology × weight combo.
class StationarityProperty : public ::testing::TestWithParam<int> {};

TEST_P(StationarityProperty, PiIsStationary) {
  const int combo = GetParam();
  Rng rng(1000 + combo);
  Result<Graph> g = (combo % 3 == 0)   ? MakeRing(17)
                    : (combo % 3 == 1) ? MakeMesh(4, 5)
                                       : MakeBarabasiAlbert(22, 2, rng);
  ASSERT_TRUE(g.ok());
  WeightFn weight;
  switch (combo / 3) {
    case 0:
      weight = UniformWeight();
      break;
    case 1:
      weight = [](NodeId v) { return 1.0 + v; };
      break;
    default:
      weight = [](NodeId v) { return (v % 2 == 0) ? 0.5 : 8.0; };
      break;
  }
  Result<ForwardingMatrix> fm = BuildForwardingMatrix(*g, weight);
  ASSERT_TRUE(fm.ok());
  std::vector<double> pi_p = fm->p.VecMat(fm->pi);
  for (size_t i = 0; i < pi_p.size(); ++i) {
    EXPECT_NEAR(pi_p[i], fm->pi[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Combos, StationarityProperty,
                         ::testing::Range(0, 9));

}  // namespace
}  // namespace digest
