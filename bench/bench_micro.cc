// Operator-level microbenchmarks (google-benchmark): the hot paths of
// the library — expression evaluation, local-store operations, Metropolis
// walk steps, operator samples, and snapshot estimation.
#include <benchmark/benchmark.h>

#include "core/snapshot_estimator.h"
#include "db/expression.h"
#include "db/local_store.h"
#include "net/topology.h"
#include "sampling/sampling_operator.h"
#include "sampling/tuple_sampler.h"
#include "sampling/weight.h"

namespace digest {
namespace {

void BM_ExpressionParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Expression::Parse("2 * (memory + storage) - cpu / 4"));
  }
}
BENCHMARK(BM_ExpressionParse);

void BM_ExpressionEvaluate(benchmark::State& state) {
  Expression expr =
      Expression::Parse("2 * (memory + storage) - cpu / 4").value();
  Schema schema =
      Schema::Create({"cpu", "memory", "storage", "bandwidth"}).value();
  (void)expr.Bind(schema);
  const Tuple tuple = {1.0, 2.0, 3.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.Evaluate(tuple));
  }
}
BENCHMARK(BM_ExpressionEvaluate);

void BM_LocalStoreInsertErase(benchmark::State& state) {
  LocalStore store;
  for (auto _ : state) {
    const LocalTupleId id = store.Insert({1.0, 2.0});
    benchmark::DoNotOptimize(store.Erase(id));
  }
}
BENCHMARK(BM_LocalStoreInsertErase);

void BM_LocalStoreUniformSample(benchmark::State& state) {
  LocalStore store;
  for (int i = 0; i < 1000; ++i) store.Insert({double(i)});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.UniformSample(rng));
  }
}
BENCHMARK(BM_LocalStoreUniformSample);

void BM_WalkStep(benchmark::State& state) {
  Rng topo_rng(2);
  Graph g = MakeBarabasiAlbert(size_t(state.range(0)), 3, topo_rng).value();
  Rng rng(3);
  const WalkContext context(g, UniformWeight(), /*fallback=*/0);
  WalkIo io;
  RandomWalk walk(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Step(context, rng, io));
  }
}
BENCHMARK(BM_WalkStep)->Arg(64)->Arg(512)->Arg(4096);

// The benchmark's traffic: the 23x24 mesh the TEMPERATURE workload
// builds for its 530 stations, 8000 tuples placed on uniformly random
// nodes, and content-size weights (two-stage tuple sampling).
struct ContentMesh {
  Graph graph = MakeMesh(23, 24).value();
  P2PDatabase db{Schema::Create({"v"}).value()};

  ContentMesh() {
    Rng data_rng(11);
    const std::vector<NodeId> nodes = graph.LiveNodes();
    for (NodeId node : nodes) (void)db.AddNode(node);
    for (int i = 0; i < 8000; ++i) {
      const NodeId node = nodes[data_rng.NextIndex(nodes.size())];
      db.StoreAt(node).value()->Insert({data_rng.NextGaussian(50, 10)});
    }
  }
};

void BM_WalkStepContentSize(benchmark::State& state) {
  ContentMesh mesh;
  Rng rng(3);
  const WalkContext context(mesh.graph, ContentSizeWeight(mesh.db),
                            /*fallback=*/0);
  MessageMeter meter;
  WalkIo io;
  io.meter = &meter;
  RandomWalk walk(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walk.Step(context, rng, io));
  }
}
BENCHMARK(BM_WalkStepContentSize);

void BM_OperatorSample(benchmark::State& state) {
  Rng topo_rng(4);
  Graph g = MakeBarabasiAlbert(size_t(state.range(0)), 3, topo_rng).value();
  SamplingOperator op(&g, UniformWeight(), Rng(5), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.SampleNode(0));
  }
}
BENCHMARK(BM_OperatorSample)->Arg(64)->Arg(512);

// One warm batch of range(0) samples per iteration on the content mesh:
// the per-batch context refresh plus the walks, as a snapshot pays them.
void BM_OperatorSampleContentSize(benchmark::State& state) {
  ContentMesh mesh;
  MessageMeter meter;
  SamplingOperator op(&mesh.graph, ContentSizeWeight(mesh.db), Rng(5),
                      &meter);
  const size_t n = size_t(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(op.SampleNodes(0, n));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
BENCHMARK(BM_OperatorSampleContentSize)->Arg(1)->Arg(64)->Arg(256);

void BM_SnapshotIndependent(benchmark::State& state) {
  Rng topo_rng(6);
  Graph g = MakeComplete(16).value();
  P2PDatabase db(Schema::Create({"v"}).value());
  Rng data_rng(7);
  for (NodeId node : g.LiveNodes()) {
    (void)db.AddNode(node);
    for (int i = 0; i < 200; ++i) {
      db.StoreAt(node).value()->Insert({data_rng.NextGaussian(50, 10)});
    }
  }
  ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(v) FROM R",
                                  PrecisionSpec{0.0, 1.0, 0.95})
          .value();
  ExactTupleSampler sampler(&db, Rng(8), nullptr);
  ExactSampleSource source(&sampler);
  IndependentEstimator est(spec, &db, &source, nullptr, nullptr, Rng(9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.Evaluate(0));
  }
}
BENCHMARK(BM_SnapshotIndependent);

}  // namespace
}  // namespace digest

BENCHMARK_MAIN();
