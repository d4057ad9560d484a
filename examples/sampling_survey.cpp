// Using the bottom tier directly: the distributed sampling operator S
// (paper §III, §V) as a standalone service. Draws node samples under
// three different weight functions on a power-law overlay and compares
// the empirical distributions against their targets — the operator works
// for *any* locally computable weight, not just Digest's content-size
// weight.
//
//   ./sampling_survey [nodes] [samples]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "net/topology.h"
#include "sampling/metropolis.h"
#include "sampling/sampling_operator.h"

using namespace digest;

namespace {

void Survey(const char* label, const Graph& graph, const WeightFn& weight,
            size_t samples) {
  ForwardingMatrix fm = BuildForwardingMatrix(graph, weight).value();

  MessageMeter meter;
  SamplingOperator op(&graph, weight, Rng(5), &meter);
  std::vector<double> counts(graph.NextId(), 0.0);
  for (size_t i = 0; i < samples; ++i) {
    counts[op.SampleNodes(0, 1).value().nodes.front()] += 1.0;
  }
  std::vector<double> empirical(fm.nodes.size());
  for (size_t r = 0; r < fm.nodes.size(); ++r) {
    empirical[r] = counts[fm.nodes[r]] / static_cast<double>(samples);
  }
  const double tv = TotalVariationDistance(empirical, fm.pi).value();
  std::printf(
      "%-28s TV(empirical, target) = %.4f   %.1f msgs/sample\n", label, tv,
      static_cast<double>(meter.Total()) / static_cast<double>(samples));

  // Show the five most-probable nodes under the target vs empirically.
  std::printf("  top nodes (target -> empirical):");
  for (int k = 0; k < 5; ++k) {
    size_t best = 0;
    for (size_t r = 1; r < fm.pi.size(); ++r) {
      if (fm.pi[r] > fm.pi[best]) best = r;
    }
    std::printf("  %u(%.3f->%.3f)", fm.nodes[best], fm.pi[best],
                empirical[best]);
    fm.pi[best] = -1.0;  // Consume.
  }
  std::printf("\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const size_t nodes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const size_t samples =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;

  Rng rng(1);
  Graph graph = MakeBarabasiAlbert(nodes, 2, rng).value();
  std::printf("power-law overlay: %zu nodes, %zu edges; %zu samples per "
              "survey\n\n",
              graph.NodeCount(), graph.EdgeCount(), samples);

  Survey("uniform  (w = 1)", graph, UniformWeight(), samples);
  Survey("degree   (w = deg v)", graph, DegreeWeight(graph), samples);
  Survey("custom   (w = 1 + v mod 5)", graph,
         [](NodeId v) { return 1.0 + (v % 5); }, samples);

  std::printf(
      "every survey used only local information at each hop: a node\n"
      "asks a proposed neighbor for its weight and applies the\n"
      "Metropolis acceptance rule (Eq. 12). No global state anywhere.\n");
  return 0;
}
