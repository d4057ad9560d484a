#include "workload/timescale.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/fault_plan.h"
#include "numeric/stats.h"
#include "sampling/sampling_operator.h"
#include "sampling/weight.h"
#include "workload/temperature.h"

namespace digest {
namespace {

struct Fixture {
  std::unique_ptr<TemperatureWorkload> workload;
  std::unique_ptr<ExactTupleSampler> sampler;
  std::unique_ptr<ExactSampleSource> inner;

  Fixture() {
    TemperatureConfig config;
    config.num_units = 400;
    config.num_nodes = 25;
    workload = TemperatureWorkload::Create(config).value();
    sampler = std::make_unique<ExactTupleSampler>(&workload->db(), Rng(1),
                                                  nullptr);
    inner = std::make_unique<ExactSampleSource>(sampler.get());
  }
};

TEST(InterleavingSourceTest, LargeQuotaNeverAdvances) {
  Fixture f;
  InterleavingSampleSource source(f.inner.get(), f.workload.get(), 1 << 20);
  Result<PartialTupleBatch> batch = source.DrawFresh(0, 200);
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->timed_out);
  EXPECT_EQ(batch->samples.size(), 200u);
  EXPECT_EQ(source.mid_occasion_advances(), 0u);
  EXPECT_EQ(f.workload->now(), 0);
}

TEST(InterleavingSourceTest, AdvancesEveryKDraws) {
  Fixture f;
  InterleavingSampleSource source(f.inner.get(), f.workload.get(), 10);
  ASSERT_TRUE(source.DrawFresh(0, 35).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 3u);
  EXPECT_EQ(f.workload->now(), 3);
  // The quota carries across calls: 5 pending + 5 more = one advance.
  ASSERT_TRUE(source.DrawFresh(0, 5).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 4u);
}

TEST(InterleavingSourceTest, ZeroQuotaBehavesAsOne) {
  Fixture f;
  InterleavingSampleSource source(f.inner.get(), f.workload.get(), 0);
  ASSERT_TRUE(source.DrawFresh(0, 7).ok());
  EXPECT_EQ(source.mid_occasion_advances(), 7u);
}

// Counts the chunks an InterleavingSampleSource asks its inner source for.
class CountingSource : public SampleSource {
 public:
  explicit CountingSource(SampleSource* inner) : inner_(inner) {}
  Result<PartialTupleBatch> DrawFresh(NodeId origin, size_t n) override {
    ++calls_;
    return inner_->DrawFresh(origin, n);
  }
  size_t calls() const { return calls_; }

 private:
  SampleSource* inner_;
  size_t calls_ = 0;
};

// A hop-budget timeout inside a chunk is a value, not an error: the
// decorator hands back the samples that completed, flagged, and stops
// drawing further chunks against the spent budget.
TEST(InterleavingSourceTest, TimedOutChunkReturnsCompletedPrefix) {
  TemperatureConfig config;
  config.num_units = 400;
  config.num_nodes = 25;
  auto workload = TemperatureWorkload::Create(config).value();
  SamplingOperatorOptions options;
  options.walk_length = 20;
  options.reset_length = 5;
  options.retry.hop_budget_factor = 1.2;
  SamplingOperator op(&workload->graph(), ContentSizeWeight(workload->db()),
                      Rng(3), nullptr, options);
  FaultPlanConfig faults;
  faults.message_loss = 0.6;
  FaultPlan plan(faults, /*seed=*/11);
  op.SetFaultPlan(&plan);
  TwoStageTupleSampler sampler(&workload->db(), &op, Rng(4));
  TwoStageSampleSource two_stage(&sampler);
  CountingSource counting(&two_stage);
  InterleavingSampleSource source(&counting, workload.get(), 40);

  Result<PartialTupleBatch> batch = source.DrawFresh(0, 100);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batch->timed_out);
  EXPECT_GT(batch->samples.size(), 0u);
  EXPECT_LT(batch->samples.size(), 40u);
  for (const TupleSample& s : batch->samples) {
    Result<Tuple> stored = workload->db().GetTuple(s.ref);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, s.tuple);
  }
  EXPECT_EQ(counting.calls(), 1u);
  // The short chunk did not fill the quota, so the world stood still.
  EXPECT_EQ(source.mid_occasion_advances(), 0u);
  EXPECT_EQ(workload->now(), 0);
}

TEST(InterleavingSourceTest, FastChangeDegradesSnapshotAccuracy) {
  // The §VIII #3 effect: with the workload frozen during the occasion,
  // the estimate matches the end oracle tightly; advancing every few
  // draws smears it. Compare mean absolute error over trials.
  auto run = [&](size_t k) {
    RunningStats err;
    for (int trial = 0; trial < 12; ++trial) {
      TemperatureConfig config;
      config.num_units = 400;
      config.num_nodes = 25;
      config.seed = 77 + trial;
      auto workload = TemperatureWorkload::Create(config).value();
      for (int t = 0; t < 3; ++t) EXPECT_TRUE(workload->Advance().ok());
      ExactTupleSampler sampler(&workload->db(), Rng(10 + trial), nullptr);
      ExactSampleSource inner(&sampler);
      InterleavingSampleSource source(&inner, workload.get(), k);
      ContinuousQuerySpec spec =
          ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                      PrecisionSpec{1.0, 0.5, 0.95})
              .value();
      IndependentEstimator est(spec, &workload->db(), &source, nullptr,
                               nullptr, Rng(100 + trial));
      Result<SnapshotEstimate> e = est.Evaluate(0);
      EXPECT_TRUE(e.ok());
      if (!e.ok()) continue;
      AggregateQuery q = spec.query;
      const double oracle = workload->db().ExactAggregate(q).value();
      err.Add(std::fabs(e->value - oracle));
    }
    return err.Mean();
  };
  const double err_static = run(1 << 20);
  const double err_fast = run(2);
  EXPECT_LT(err_static, err_fast);
}

}  // namespace
}  // namespace digest
