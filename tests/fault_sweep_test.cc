// Seed sweep of the bench_suite `faults_mcmc` scenario: under injected
// faults the engine degrades, it does not abort. Every seed must run to
// completion with allow_partial off (a timed-out batch fails the occasion
// and the engine degrades on it) and on (the occasion finalizes from the
// samples that arrived), so both sides of the one timeout decision are
// swept. Seeds 20 and 38 once ended in a hard error on the first
// occasion.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
#include "net/fault_plan.h"
#include "workload/experiment.h"
#include "workload/memory.h"

namespace digest {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 40;
constexpr size_t kTicks = 20;  // bench_suite --quick.

struct SweepTotals {
  size_t degraded_ticks = 0;
  size_t partial_snapshots = 0;
};

// One `bench_suite --quick --scenario=faults_mcmc --seed=<seed>` run:
// MEMORY (1000 units, 820 peers), 5% loss, 5% agent drop, edge spread
// 0.5, 10% stalls, walk 60 / reset 15, ALL + RPT.
Result<RunResult> RunFaultsMcmc(uint64_t seed, bool allow_partial) {
  MemoryConfig config;
  config.seed = seed + 17;
  DIGEST_ASSIGN_OR_RETURN(std::unique_ptr<MemoryWorkload> workload,
                          MemoryWorkload::Create(config));
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{1.0, 2.0, 0.9}));
  FaultPlanConfig faults;
  faults.message_loss = 0.05;
  faults.agent_drop = 0.05;
  faults.edge_spread = 0.5;
  faults.stall_fraction = 0.1;
  DIGEST_RETURN_IF_ERROR(faults.Validate());
  FaultPlan plan(faults, seed + 1);
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.fault_plan = &plan;
  options.sampling_options.walk_length = 60;
  options.sampling_options.reset_length = 15;
  options.estimator_options.allow_partial = allow_partial;
  return RunEngineExperiment(*workload, spec, options, kTicks, seed,
                             "faults_mcmc");
}

SweepTotals Sweep(bool allow_partial) {
  SweepTotals totals;
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    Result<RunResult> run = RunFaultsMcmc(seed, allow_partial);
    EXPECT_TRUE(run.ok()) << "seed " << seed << ": " << run.status();
    if (!run.ok()) continue;
    EXPECT_EQ(run->reported.size(), kTicks) << "seed " << seed;
    totals.degraded_ticks += run->stats.degraded_ticks;
    totals.partial_snapshots += run->stats.partial_snapshots;
  }
  return totals;
}

TEST(FaultSweepTest, FaultsMcmcSeedsNeverFailStrict) {
  const SweepTotals totals = Sweep(/*allow_partial=*/false);
  // Timeouts did fire, and without allow_partial none finalized early.
  EXPECT_GT(totals.degraded_ticks, 0u);
  EXPECT_EQ(totals.partial_snapshots, 0u);
}

TEST(FaultSweepTest, FaultsMcmcSeedsNeverFailPartial) {
  const SweepTotals totals = Sweep(/*allow_partial=*/true);
  EXPECT_GT(totals.partial_snapshots, 0u);
}

}  // namespace
}  // namespace digest
