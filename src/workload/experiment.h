#ifndef DIGEST_WORKLOAD_EXPERIMENT_H_
#define DIGEST_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/olston_filter.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "net/message_meter.h"
#include "workload/workload.h"

namespace digest {

/// Outcome of driving one query-answering configuration over a workload.
struct RunResult {
  EngineStats stats;                ///< Zeroed for push baselines.
  MessageMeter meter;               ///< Communication-cost breakdown.
  std::vector<double> reported;     ///< X̂[t], tick-aligned.
  std::vector<double> truth;        ///< Oracle X[t], tick-aligned.
  std::vector<double> ci_halfwidths;///< Reported CI half-widths (engine runs).
  PrecisionReport precision;        ///< reported vs truth, uniform ε.
  /// reported vs truth under the per-tick widened contract
  /// (max(ε, ci[t]) + δ) — what a fault-injected run promises.
  PrecisionReport widened_precision;
  size_t degraded_ticks = 0;        ///< Ticks answered degraded.
  double correlation_estimate = 0;  ///< ρ̂ at the end (RPT engines).
  /// Session health at the end of the run (engine runs; push/filter
  /// baselines report kHealthy).
  SessionHealth final_health = SessionHealth::kHealthy;
};

/// Opens one run on every instrument `options` carries, so a shared
/// instrument starts each run from a clean slate and repeat runs
/// accumulate identically: the tracer's clock rewinds to `now` (a marker
/// left by an earlier run cannot stamp this one with stale time) and a
/// RunBeginEvent labelled `label` opens the run (exporters map each run
/// to its own process lane); the auditor opens an audit run of that
/// label; the diagnostics and the peer-health monitor reset.
void BeginInstrumentedRun(const DigestEngineOptions& options, int64_t now,
                          const std::string& label);

/// Runs a Digest engine configuration over `ticks` ticks of `workload`.
/// A querying node is drawn with `seed`; the workload is consumed (pass
/// a fresh instance per run — identical seeds give identical data).
/// If options.fault_plan is set, the plan's clock is advanced in step
/// with the workload so stall windows track simulation time.
///
/// The run opens with BeginInstrumentedRun under `run_label` (default
/// "engine-run"), and the fault plan, if any, shares the tracer and
/// profiler. With options.registry set, the run's final EngineStats and
/// MessageMeter are bridged into it (engine.* / net.* counters) when the
/// run completes.
///
/// With options.auditor set, the harness resolves every tick's audit
/// occasion against the workload's exact-aggregate oracle (RecordTruth),
/// finalizes the run (emitting one audit_slo event when tracing), and
/// bridges the auditor's counters/gauges/histograms into the registry
/// when set.
Result<RunResult> RunEngineExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      const DigestEngineOptions& options,
                                      size_t ticks, uint64_t seed,
                                      const std::string& run_label = "");

/// Runs the ALL+ALL push-everything baseline (exact results).
Result<RunResult> RunPushAllExperiment(Workload& workload,
                                       const ContinuousQuerySpec& spec,
                                       size_t ticks, uint64_t seed);

/// Runs the ALL+FILTER adaptive-filter baseline.
Result<RunResult> RunFilterExperiment(Workload& workload,
                                      const ContinuousQuerySpec& spec,
                                      size_t ticks, uint64_t seed,
                                      OlstonFilterOptions filter_options = {});

}  // namespace digest

#endif  // DIGEST_WORKLOAD_EXPERIMENT_H_
