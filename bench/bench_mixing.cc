// Validates §V of the paper (the random sampling operator):
//
//   1. Convergence (Theorems 1-2): total-variation distance between the
//      walk distribution and the target w_v/Σw_u as a function of walk
//      length, on mesh and power-law overlays, uniform and content-size
//      weights.
//   2. Mixing time vs network size on power-law graphs (Theorem 4
//      predicts poly-logarithmic growth), via the exact eigengap bound.
//   3. Ablation: warm-walk continuation (reset time) vs cold restarts
//      (design choice #2 of DESIGN.md) — messages per sample.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "net/topology.h"
#include "numeric/matrix.h"
#include "sampling/metropolis.h"
#include "sampling/sampling_operator.h"

namespace digest {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  RejectObservabilityFlags(args, "bench_mixing");
  Rng rng(args.seed);

  std::printf("=== Sampling operator validation (paper Section V) ===\n\n");

  // Part 1: TV distance vs walk length.
  std::printf("--- total variation vs walk length ---\n");
  {
    struct Case {
      const char* name;
      Graph graph;
      WeightFn weight;
    };
    std::vector<Case> cases;
    cases.push_back({"mesh 8x8, uniform",
                     UnwrapOrDie(MakeMesh(8, 8), "mesh"), UniformWeight()});
    cases.push_back({"power-law n=64, uniform",
                     UnwrapOrDie(MakeBarabasiAlbert(64, 2, rng), "ba"),
                     UniformWeight()});
    cases.push_back({"power-law n=64, w=1+v%7",
                     UnwrapOrDie(MakeBarabasiAlbert(64, 2, rng), "ba"),
                     WeightFn([](NodeId v) { return 1.0 + (v % 7); })});

    std::vector<size_t> lengths = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    TablePrinter table({"walk length", cases[0].name, cases[1].name,
                        cases[2].name});
    std::vector<ForwardingMatrix> fms;
    for (Case& c : cases) {
      fms.push_back(
          UnwrapOrDie(BuildForwardingMatrix(c.graph, c.weight), c.name));
    }
    for (size_t len : lengths) {
      std::vector<std::string> row = {FmtInt(len)};
      for (size_t i = 0; i < cases.size(); ++i) {
        std::vector<double> start(fms[i].p.rows(), 0.0);
        start[0] = 1.0;
        std::vector<double> dist = UnwrapOrDie(
            DistributionAfter(fms[i], start, len), "DistributionAfter");
        const double tv = UnwrapOrDie(
            TotalVariationDistance(dist, fms[i].pi), "TV");
        row.push_back(Fmt("%.4f", tv));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  // Part 2: mixing-time growth with N on power-law overlays.
  std::printf("\n--- mixing time vs network size (power-law, gamma=0.01) "
              "---\n");
  {
    std::vector<size_t> sizes = {32, 64, 128, 256};
    if (!args.quick) sizes.push_back(512);
    TablePrinter table({"N", "eigengap", "tau(0.01) bound",
                        "bound / ln^2 N", "tau exact (small N)"});
    for (size_t n : sizes) {
      Graph g = UnwrapOrDie(MakeBarabasiAlbert(n, 2, rng), "ba");
      ForwardingMatrix fm =
          UnwrapOrDie(BuildForwardingMatrix(g, UniformWeight()), "fm");
      const double lambda2 =
          UnwrapOrDie(SecondEigenvalueMagnitude(fm.p, fm.pi), "eigen");
      const double gap = 1.0 - lambda2;
      double pi_min = 1.0;
      for (double p : fm.pi) pi_min = std::min(pi_min, p);
      const double bound = std::log(1.0 / (pi_min * 0.01)) / gap;
      const double ln2 = std::log(double(n)) * std::log(double(n));
      std::string exact = "-";
      if (n <= 64) {
        exact = FmtInt(UnwrapOrDie(MixingTime(fm, 0.01), "tau"));
      }
      table.AddRow({FmtInt(n), Fmt("%.4f", gap), Fmt("%.0f", bound),
                    Fmt("%.2f", bound / ln2), exact});
    }
    table.Print();
    std::printf("(Theorem 4: tau grows poly-logarithmically; the bound /"
                " ln^2 N column should stay roughly flat.)\n");
  }

  // Part 2b: laziness ablation (design choice #1). The ½ self-loop buys
  // aperiodicity: on a *regular* bipartite overlay (an even ring — on
  // irregular bipartite graphs Metropolis rejections already create
  // self-loops) the non-lazy chain is periodic and never converges,
  // while on non-bipartite graphs removing laziness roughly doubles the
  // per-step progress.
  std::printf("\n--- ablation: laziness 1/2 vs non-lazy (TV after k steps) "
              "---\n");
  {
    Graph ring = UnwrapOrDie(MakeRing(36), "ring");
    Graph ba = UnwrapOrDie(MakeBarabasiAlbert(36, 2, rng), "ba");
    TablePrinter table({"steps", "ring lazy", "ring non-lazy", "BA lazy",
                        "BA non-lazy"});
    struct Case {
      ForwardingMatrix fm;
    };
    std::vector<ForwardingMatrix> fms;
    fms.push_back(UnwrapOrDie(
        BuildForwardingMatrix(ring, UniformWeight(), 0.5), "r-lazy"));
    fms.push_back(UnwrapOrDie(
        BuildForwardingMatrix(ring, UniformWeight(), 0.0), "r-nonlazy"));
    fms.push_back(UnwrapOrDie(
        BuildForwardingMatrix(ba, UniformWeight(), 0.5), "b-lazy"));
    fms.push_back(UnwrapOrDie(
        BuildForwardingMatrix(ba, UniformWeight(), 0.0), "b-nonlazy"));
    for (size_t steps : {8, 32, 128, 512}) {
      std::vector<std::string> row = {FmtInt(steps)};
      for (ForwardingMatrix& fm : fms) {
        std::vector<double> start(fm.p.rows(), 0.0);
        start[0] = 1.0;
        const double tv = UnwrapOrDie(
            TotalVariationDistance(
                UnwrapOrDie(DistributionAfter(fm, start, steps), "dist"),
                fm.pi),
            "tv");
        row.push_back(Fmt("%.4f", tv));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("(the non-lazy chain is periodic on the regular bipartite ring: "
                "its TV column never decays.)\n");
  }

  // Part 3: warm vs cold walks (the experiment-setup optimization of
  // §VI-A: re-converging from a warm walk costs the reset time only).
  std::printf("\n--- ablation: warm-walk continuation vs cold restarts "
              "---\n");
  {
    Graph g = UnwrapOrDie(MakeBarabasiAlbert(args.quick ? 64 : 256, 3, rng),
                          "ba");
    TablePrinter table(
        {"mode", "samples", "total messages", "messages/sample"});
    for (bool warm : {true, false}) {
      MessageMeter meter;
      SamplingOperatorOptions options;
      options.warm_walks = warm;
      SamplingOperator op(&g, UniformWeight(), rng.Fork(), &meter, options);
      const size_t n = args.quick ? 200 : 1000;
      // Successive single-sample invocations: exactly the case the warm
      // continuation optimizes (only the first pays the mixing time).
      for (size_t i = 0; i < n; ++i) {
        UnwrapOrDie(op.SampleNodes(0, 1), "SampleNodes");
      }
      table.AddRow({warm ? "warm (reset time)" : "cold (mixing time)",
                    FmtInt(n), FmtInt(meter.Total()),
                    Fmt("%.1f", double(meter.Total()) / double(n))});
    }
    table.Print();
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace digest

int main(int argc, char** argv) { return digest::bench::Run(argc, argv); }
