#include "sampling/metropolis.h"

#include <cmath>

namespace digest {

Result<ForwardingMatrix> BuildForwardingMatrix(const Graph& graph,
                                               const WeightFn& weight,
                                               double laziness) {
  if (laziness < 0.0 || laziness >= 1.0) {
    return Status::InvalidArgument("laziness must be in [0, 1)");
  }
  std::vector<NodeId> nodes = graph.LiveNodes();
  const size_t n = nodes.size();
  if (n == 0) {
    return Status::FailedPrecondition("graph has no live nodes");
  }
  if (!graph.IsConnected()) {
    return Status::FailedPrecondition(
        "forwarding-matrix analysis requires a connected graph");
  }
  // Dense index of node ids.
  std::vector<size_t> row_of(graph.NextId(), 0);
  for (size_t r = 0; r < n; ++r) row_of[nodes[r]] = r;

  std::vector<double> weights(n, 0.0);
  double total_weight = 0.0;
  for (size_t r = 0; r < n; ++r) {
    weights[r] = weight(nodes[r]);
    if (!(weights[r] > 0.0)) {
      return Status::InvalidArgument(
          "spectral analysis requires strictly positive weights");
    }
    total_weight += weights[r];
  }

  ForwardingMatrix fm;
  fm.nodes = std::move(nodes);
  fm.pi.resize(n);
  for (size_t r = 0; r < n; ++r) fm.pi[r] = weights[r] / total_weight;

  fm.p = Matrix(n, n);
  for (size_t r = 0; r < n; ++r) {
    const NodeId i = fm.nodes[r];
    const size_t di = graph.Degree(i);
    double off_diagonal = 0.0;
    for (NodeId j : graph.Neighbors(i)) {
      const size_t c = row_of[j];
      const double accept = MetropolisAcceptance(
          weights[r], di, weights[c], graph.Degree(j));
      const double pij =
          (1.0 - laziness) * accept / static_cast<double>(di);
      fm.p(r, c) = pij;
      off_diagonal += pij;
    }
    fm.p(r, r) = 1.0 - off_diagonal;
  }
  return fm;
}

Result<size_t> RecommendWalkLength(const Graph& graph,
                                   const WeightFn& weight, double gamma,
                                   double laziness) {
  if (!(gamma > 0.0 && gamma < 1.0)) {
    return Status::InvalidArgument("gamma must be in (0, 1)");
  }
  DIGEST_ASSIGN_OR_RETURN(ForwardingMatrix fm,
                          BuildForwardingMatrix(graph, weight, laziness));
  DIGEST_ASSIGN_OR_RETURN(double lambda2,
                          SecondEigenvalueMagnitude(fm.p, fm.pi));
  const double gap = 1.0 - lambda2;
  if (gap <= 1e-9) {
    return Status::NumericError(
        "chain has (numerically) no spectral gap; walks will not mix");
  }
  double pi_min = 1.0;
  for (double p : fm.pi) pi_min = std::min(pi_min, p);
  const double bound = std::log(1.0 / (pi_min * gamma)) / gap;
  return static_cast<size_t>(std::ceil(bound));
}

Result<double> TotalVariationDistance(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "TV distance requires equal-size distributions");
  }
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return 0.5 * acc;
}

Result<std::vector<double>> DistributionAfter(const ForwardingMatrix& fm,
                                              const std::vector<double>& pi0,
                                              size_t steps) {
  if (pi0.size() != fm.p.rows()) {
    return Status::InvalidArgument("initial distribution has wrong size");
  }
  std::vector<double> dist = pi0;
  for (size_t t = 0; t < steps; ++t) {
    dist = fm.p.VecMat(dist);
  }
  return dist;
}

Result<size_t> MixingTime(const ForwardingMatrix& fm, double gamma,
                          size_t max_steps) {
  const size_t n = fm.p.rows();
  if (n == 0) {
    return Status::FailedPrecondition("empty forwarding matrix");
  }
  // Track the distribution from every deterministic start simultaneously
  // (rows of P^t) and stop when the worst start is within gamma.
  Matrix power = Matrix::Identity(n);
  for (size_t t = 0; t <= max_steps; ++t) {
    double worst = 0.0;
    for (size_t r = 0; r < n; ++r) {
      double tv = 0.0;
      for (size_t c = 0; c < n; ++c) {
        tv += std::fabs(power(r, c) - fm.pi[c]);
      }
      worst = std::max(worst, 0.5 * tv);
      if (worst > gamma) break;  // Already over budget; no need to finish.
    }
    if (worst <= gamma) return t;
    power = power.MatMul(fm.p);
  }
  return Status::NumericError("walk did not mix within max_steps");
}

}  // namespace digest
