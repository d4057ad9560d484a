#ifndef DIGEST_OBS_INSTRUMENTS_H_
#define DIGEST_OBS_INSTRUMENTS_H_

namespace digest {
namespace audit {
class PrecisionAuditor;
}  // namespace audit
namespace diag {
class SamplerDiag;
}  // namespace diag
namespace obs {
class Registry;
class Tracer;
}  // namespace obs
namespace prof {
class Profiler;
}  // namespace prof

/// The pure observers a run can attach, moved as one value. Each is
/// optional (null disables, and the instrumented code takes a null fast
/// path) and none is owned. Attaching any of them leaves estimates, RNG
/// streams and MessageMeter totals bit-identical (test-enforced). The
/// peer-health monitor is not here: it steers walk routing, so it is
/// configured next to the bundle (DigestEngineOptions::health,
/// SamplingOperator::SetHealth), not inside it.
struct Instruments {
  /// Structured event sink: per-tick TickEvents, PRED gap predictions,
  /// snapshot execute/skip, sample-budget plans, CI widening, walk-batch
  /// lifecycle. The engine drives its simulated clock (set_now per Tick).
  obs::Tracer* tracer = nullptr;

  /// Metrics registry: the sampler's histograms/counters plus the
  /// engine's per-snapshot sample-count and ρ̂ instruments.
  obs::Registry* registry = nullptr;

  /// Wall-clock profiler, kept strictly out of the deterministic trace:
  /// scoped timers cover Tick, PRED fit/predict, snapshot estimation,
  /// walk batches and stepping. The null fast path reads no clock.
  prof::Profiler* profiler = nullptr;

  /// Precision auditor: one observation per engine tick, resolved by
  /// the driver with ground truth via RecordTruth (see audit/audit.h).
  /// Its only feedback edge is deliberate and deterministic: sustained
  /// drift breaches queue a flip the engine drains at the top of the
  /// next Tick into SessionSupervisor::RecordAuditBreach. One auditor
  /// pins one (δ, ε, p) contract, so it belongs to one query.
  audit::PrecisionAuditor* auditor = nullptr;

  /// Sampler-introspection aggregator over the content-weighted walks:
  /// every batch folds its visit/probe/hop record and closes with
  /// mixing + load diagnostics. A stationary-gap breach stamps the next
  /// snapshot observation's mixing_breach for audit attribution.
  diag::SamplerDiag* diag = nullptr;
};

}  // namespace digest

#endif  // DIGEST_OBS_INSTRUMENTS_H_
