// Seed sweeps of bench_suite scenarios: under churn and injected faults
// the engine degrades, it does not abort. Every seed must run to
// completion with its full tick count. `faults_mcmc` is swept with
// allow_partial off (a timed-out batch fails the occasion and the engine
// degrades on it) and on (the occasion finalizes from the samples that
// arrived), so both sides of the one timeout decision are covered;
// seeds 20 and 38 once ended in a hard error on the first occasion.
// `churn_rpt_mcmc` and `partition_rpt_mcmc` are swept at bench_suite's
// default --scale=0.25 sizes.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "net/fault_plan.h"
#include "net/peer_health.h"
#include "workload/experiment.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 40;
// bench_suite --quick tick counts.
constexpr size_t kFaultsTicks = 20;
constexpr size_t kChurnTicks = 30;
constexpr size_t kPartitionTicks = 24;

struct SweepTotals {
  size_t degraded_ticks = 0;
  size_t partial_snapshots = 0;
};

// The `faults_mcmc` config at --scale=1 (MEMORY, 1000 units, 820 peers):
// 5% loss, 5% agent drop, edge spread 0.5, 10% stalls, walk 60 / reset
// 15, ALL + RPT.
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
  return RunEngineExperiment(*workload, spec, options, kFaultsTicks, seed,
                             "faults_mcmc");
}

// One `bench_suite --quick --scenario=churn_rpt_mcmc --seed=<seed>` run:
// MEMORY (250 units, 205 churning peers), PRED-3 + RPT over MCMC.
Result<RunResult> RunChurnRptMcmc(uint64_t seed) {
  MemoryConfig config;
  config.num_units = 250;
  config.num_nodes = 205;
  config.seed = seed + 17;
  DIGEST_ASSIGN_OR_RETURN(std::unique_ptr<MemoryWorkload> workload,
                          MemoryWorkload::Create(config));
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(memory) FROM R",
                                  PrecisionSpec{1.0, 2.0, 0.9}));
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.extrapolator.history_points = 3;
  return RunEngineExperiment(*workload, spec, options, kChurnTicks, seed,
                             "churn_rpt_mcmc");
}

// The measured run of `bench_suite --quick --scenario=partition_rpt_mcmc
// --seed=<seed>`: TEMPERATURE (500 units, 132 peers) through partition/
// heal episodes every 12 ticks, 2% asymmetric loss, ALL + RPT with
// allow_partial, walks routed around the health monitor's quarantine set.
Result<RunResult> RunPartitionRptMcmc(uint64_t seed) {
  TemperatureConfig config;
  config.num_units = 500;
  config.num_nodes = 132;
  config.seed = seed;
  DIGEST_ASSIGN_OR_RETURN(std::unique_ptr<TemperatureWorkload> workload,
                          TemperatureWorkload::Create(config));
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(temperature) FROM R",
                                  PrecisionSpec{4.0, 2.0, 0.95}));
  FaultPlanConfig faults;
  faults.message_loss = 0.02;
  faults.edge_spread = 0.5;
  faults.loss_asymmetry = 0.5;
  faults.partition_every = 12;
  faults.partition_length = 6;
  faults.partition_components = 2;
  DIGEST_RETURN_IF_ERROR(faults.Validate());
  FaultPlan plan(faults, seed + 1);
  PeerHealthMonitor health;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 60;
  options.sampling_options.reset_length = 15;
  options.estimator_options.allow_partial = true;
  options.fault_plan = &plan;
  options.health = &health;
  return RunEngineExperiment(*workload, spec, options, kPartitionTicks, seed,
                             "partition_rpt_mcmc");
}

SweepTotals Sweep(size_t ticks,
                  const std::function<Result<RunResult>(uint64_t)>& run) {
  SweepTotals totals;
  for (uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    Result<RunResult> result = run(seed);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": " << result.status();
    if (!result.ok()) continue;
    EXPECT_EQ(result->reported.size(), ticks) << "seed " << seed;
    EXPECT_EQ(result->stats.ticks, ticks) << "seed " << seed;
    totals.degraded_ticks += result->stats.degraded_ticks;
    totals.partial_snapshots += result->stats.partial_snapshots;
  }
  return totals;
}

SweepTotals SweepFaultsMcmc(bool allow_partial) {
  return Sweep(kFaultsTicks, [allow_partial](uint64_t seed) {
    return RunFaultsMcmc(seed, allow_partial);
  });
}

TEST(FaultSweepTest, FaultsMcmcSeedsNeverFailStrict) {
  const SweepTotals totals = SweepFaultsMcmc(/*allow_partial=*/false);
  // Timeouts did fire, and without allow_partial none finalized early.
  EXPECT_GT(totals.degraded_ticks, 0u);
  EXPECT_EQ(totals.partial_snapshots, 0u);
}

TEST(FaultSweepTest, FaultsMcmcSeedsNeverFailPartial) {
  const SweepTotals totals = SweepFaultsMcmc(/*allow_partial=*/true);
  EXPECT_GT(totals.partial_snapshots, 0u);
}

TEST(FaultSweepTest, ChurnRptMcmcSeedsNeverFail) {
  Sweep(kChurnTicks, RunChurnRptMcmc);
}

TEST(FaultSweepTest, PartitionRptMcmcSeedsNeverFail) {
  Sweep(kPartitionTicks, RunPartitionRptMcmc);
}

}  // namespace
}  // namespace digest
