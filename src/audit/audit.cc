#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.h"

namespace digest {
namespace audit {
namespace {

// Fixed, spec-independent bucket layouts: errors are standardized by ε
// before observation, so the same edges audit every workload and the
// exported histograms aggregate across runs.
std::vector<double> AbsErrorBounds() {
  return obs::LinearBuckets(0.125, 4.0, 32);
}
std::vector<double> CostBounds() {
  return obs::ExponentialBuckets(1.0, 2.0, 24);
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  // Checkpoint convention: uint64 counters ride as decimal strings
  // (exact for the full range; see engine_checkpoint.cc).
  *out += '"';
  *out += std::to_string(v);
  *out += '"';
}

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

void AppendRecordJson(std::string* out, const CoverageRecord& r) {
  *out += "{\"tick\":";
  *out += std::to_string(r.tick);
  *out += ",\"estimate\":";
  AppendDouble(out, r.estimate);
  *out += ",\"ci_halfwidth\":";
  AppendDouble(out, r.ci_halfwidth);
  *out += ",\"truth\":";
  AppendDouble(out, r.truth);
  *out += ",\"has_truth\":";
  AppendBool(out, r.has_truth);
  *out += ",\"hit\":";
  AppendBool(out, r.hit);
  *out += ",\"cause\":";
  AppendU64(out, static_cast<uint64_t>(r.cause));
  *out += ",\"degraded\":";
  AppendBool(out, r.degraded);
  *out += ",\"partial\":";
  AppendBool(out, r.partial);
  *out += ",\"timeout\":";
  AppendBool(out, r.timeout);
  *out += ",\"mixing_breach\":";
  AppendBool(out, r.mixing_breach);
  *out += ",\"quarantine\":";
  AppendBool(out, r.quarantine);
  *out += ",\"health\":";
  *out += std::to_string(r.health);
  *out += ",\"total_samples\":";
  AppendU64(out, r.total_samples);
  *out += ",\"fresh_samples\":";
  AppendU64(out, r.fresh_samples);
  *out += ",\"retained_samples\":";
  AppendU64(out, r.retained_samples);
  *out += ",\"message_cost\":";
  AppendU64(out, r.message_cost);
  *out += '}';
}

Result<CoverageRecord> ParseRecordJson(const json::Value& v) {
  CoverageRecord r;
  DIGEST_ASSIGN_OR_RETURN(r.tick, v.GetInt64("tick"));
  DIGEST_ASSIGN_OR_RETURN(r.estimate, v.GetDouble("estimate"));
  DIGEST_ASSIGN_OR_RETURN(r.ci_halfwidth, v.GetDouble("ci_halfwidth"));
  DIGEST_ASSIGN_OR_RETURN(r.truth, v.GetDouble("truth"));
  DIGEST_ASSIGN_OR_RETURN(r.has_truth, v.GetBool("has_truth"));
  DIGEST_ASSIGN_OR_RETURN(r.hit, v.GetBool("hit"));
  uint64_t cause;
  DIGEST_ASSIGN_OR_RETURN(cause, v.GetUInt64("cause"));
  if (cause >= kNumMissCauses) {
    return Status::InvalidArgument("audit: miss cause out of range");
  }
  r.cause = static_cast<MissCause>(cause);
  DIGEST_ASSIGN_OR_RETURN(r.degraded, v.GetBool("degraded"));
  DIGEST_ASSIGN_OR_RETURN(r.partial, v.GetBool("partial"));
  DIGEST_ASSIGN_OR_RETURN(r.timeout, v.GetBool("timeout"));
  DIGEST_ASSIGN_OR_RETURN(r.mixing_breach, v.GetBool("mixing_breach"));
  DIGEST_ASSIGN_OR_RETURN(r.quarantine, v.GetBool("quarantine"));
  int64_t health;
  DIGEST_ASSIGN_OR_RETURN(health, v.GetInt64("health"));
  r.health = static_cast<int>(health);
  DIGEST_ASSIGN_OR_RETURN(r.total_samples, v.GetUInt64("total_samples"));
  DIGEST_ASSIGN_OR_RETURN(r.fresh_samples, v.GetUInt64("fresh_samples"));
  DIGEST_ASSIGN_OR_RETURN(r.retained_samples,
                          v.GetUInt64("retained_samples"));
  DIGEST_ASSIGN_OR_RETURN(r.message_cost, v.GetUInt64("message_cost"));
  return r;
}

void AppendDetectorJson(std::string* out, const DriftDetector& d) {
  *out += "{\"ewma\":";
  AppendDouble(out, d.ewma);
  *out += ",\"initialized\":";
  AppendBool(out, d.initialized);
  *out += ",\"cusum_pos\":";
  AppendDouble(out, d.cusum_pos);
  *out += ",\"cusum_neg\":";
  AppendDouble(out, d.cusum_neg);
  *out += ",\"breaches\":";
  AppendU64(out, d.breaches);
  *out += ",\"streak\":";
  AppendU64(out, d.streak);
  *out += '}';
}

Result<DriftDetector> ParseDetectorJson(const json::Value& v) {
  DriftDetector d;
  DIGEST_ASSIGN_OR_RETURN(d.ewma, v.GetDouble("ewma"));
  DIGEST_ASSIGN_OR_RETURN(d.initialized, v.GetBool("initialized"));
  DIGEST_ASSIGN_OR_RETURN(d.cusum_pos, v.GetDouble("cusum_pos"));
  DIGEST_ASSIGN_OR_RETURN(d.cusum_neg, v.GetDouble("cusum_neg"));
  DIGEST_ASSIGN_OR_RETURN(d.breaches, v.GetUInt64("breaches"));
  DIGEST_ASSIGN_OR_RETURN(d.streak, v.GetUInt64("streak"));
  return d;
}

}  // namespace

const char* MissCauseName(MissCause cause) {
  switch (cause) {
    case MissCause::kNone:
      return "none";
    case MissCause::kVarianceUndershoot:
      return "variance_undershoot";
    case MissCause::kPredResidual:
      return "pred_residual";
    case MissCause::kPartialSnapshot:
      return "partial_snapshot";
    case MissCause::kRetainedPoolFallback:
      return "retained_pool";
    case MissCause::kHedgeTimeout:
      return "hedge_timeout";
    case MissCause::kPoorMixing:
      return "poor_mixing";
    case MissCause::kPeerQuarantine:
      return "peer_quarantine";
  }
  return "unknown";
}

Status AuditOptions::Validate() const {
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    return Status::InvalidArgument("audit: ewma_alpha must be in (0, 1]");
  }
  if (!(cusum_slack >= 0.0)) {
    return Status::InvalidArgument("audit: cusum_slack must be >= 0");
  }
  if (!(cusum_threshold > 0.0)) {
    return Status::InvalidArgument("audit: cusum_threshold must be > 0");
  }
  if (breach_patience < 1) {
    return Status::InvalidArgument("audit: breach_patience must be >= 1");
  }
  return Status::OK();
}

PrecisionAuditor::PrecisionAuditor(AuditOptions options)
    : options_(options),
      abs_error_hist_(AbsErrorBounds()),
      cost_hist_(CostBounds()) {}

void PrecisionAuditor::AttachContract(double delta, double epsilon,
                                      double confidence) {
  delta_ = delta;
  epsilon_ = epsilon;
  confidence_ = confidence;
}

void PrecisionAuditor::BeginRun(const std::string& label) {
  run_label_ = label;
  records_.clear();
  pending_snapshot_ = false;
  pending_unanswered_ = false;
  pending_record_ = CoverageRecord();
  pending_skip_ = false;
  skip_tick_ = 0;
  skip_reported_ = 0.0;
  skip_ci_ = 0.0;
  hits_ = 0;
  misses_ = 0;
  delta_ticks_ = 0;
  delta_misses_ = 0;
  unmatched_truths_ = 0;
  std::memset(cause_counts_, 0, sizeof(cause_counts_));
  error_detector_ = DriftDetector();
  cost_detector_ = DriftDetector();
  supervisor_flips_ = 0;
  pending_flips_ = 0;
  abs_error_hist_ = obs::Histogram(AbsErrorBounds());
  cost_hist_ = obs::Histogram(CostBounds());
}

void PrecisionAuditor::FlushPending() {
  if (pending_snapshot_) {
    // No oracle resolved this occasion: it joins the ledger (and the
    // cost stream) but stays out of the coverage denominator.
    records_.push_back(pending_record_);
    cost_hist_.Observe(static_cast<double>(pending_record_.message_cost));
    pending_snapshot_ = false;
  }
  pending_unanswered_ = false;
  pending_skip_ = false;  // An unresolved skip carries no information.
}

void PrecisionAuditor::RecordSnapshot(const SnapshotObservation& o) {
  FlushPending();
  pending_record_ = CoverageRecord();
  pending_record_.tick = o.tick;
  pending_record_.estimate = o.estimate;
  pending_record_.ci_halfwidth = o.ci_halfwidth;
  pending_record_.degraded = o.degraded;
  pending_record_.partial = o.partial;
  pending_record_.health = o.health;
  pending_record_.total_samples = o.total_samples;
  pending_record_.fresh_samples = o.fresh_samples;
  pending_record_.retained_samples = o.retained_samples;
  pending_record_.message_cost = o.message_cost;
  pending_record_.mixing_breach = o.mixing_breach;
  pending_record_.quarantine = o.quarantine;
  pending_snapshot_ = true;
}

void PrecisionAuditor::RecordTimeout(int64_t tick, double held_value,
                                     double ci_halfwidth,
                                     uint64_t message_cost, int health) {
  FlushPending();
  pending_record_ = CoverageRecord();
  pending_record_.tick = tick;
  pending_record_.estimate = held_value;
  pending_record_.ci_halfwidth = ci_halfwidth;
  pending_record_.degraded = true;
  pending_record_.timeout = true;
  pending_record_.health = health;
  pending_record_.message_cost = message_cost;
  pending_snapshot_ = true;
}

void PrecisionAuditor::RecordUnanswered(int64_t tick, uint64_t message_cost,
                                        int health) {
  RecordTimeout(tick, /*held_value=*/0.0, /*ci_halfwidth=*/0.0, message_cost,
                health);
  pending_unanswered_ = true;
}

void PrecisionAuditor::RecordSkip(int64_t tick, double reported,
                                  double ci_halfwidth) {
  FlushPending();
  pending_skip_ = true;
  skip_tick_ = tick;
  skip_reported_ = reported;
  skip_ci_ = ci_halfwidth;
}

bool PrecisionAuditor::TakePendingBreachFlip() {
  if (pending_flips_ == 0) return false;
  --pending_flips_;
  return true;
}

void PrecisionAuditor::RecordTruth(int64_t tick, double truth) {
  if (pending_snapshot_ && pending_record_.tick == tick) {
    ResolveSnapshot(truth);
  } else if (pending_skip_ && skip_tick_ == tick) {
    ResolveSkip(truth);
  } else {
    ++unmatched_truths_;
  }
}

void PrecisionAuditor::ResolveSnapshot(double truth) {
  CoverageRecord r = pending_record_;
  const bool unanswered = pending_unanswered_;
  pending_snapshot_ = false;
  pending_unanswered_ = false;
  r.truth = truth;
  r.has_truth = true;
  const double error = r.estimate - truth;
  r.hit = std::fabs(error) <= r.ci_halfwidth;
  if (r.hit) {
    r.cause = MissCause::kNone;
    ++hits_;
  } else {
    // Structural attribution, worst subsystem state first: the flags
    // were stamped by the engine/estimator when the occasion ran.
    r.cause = r.timeout         ? MissCause::kHedgeTimeout
              : r.degraded      ? MissCause::kRetainedPoolFallback
              : r.partial       ? MissCause::kPartialSnapshot
              : r.quarantine    ? MissCause::kPeerQuarantine
              : r.mixing_breach ? MissCause::kPoorMixing
                                : MissCause::kVarianceUndershoot;
    ++misses_;
    ++cause_counts_[static_cast<size_t>(r.cause)];
  }
  records_.push_back(r);
  if (!unanswered) abs_error_hist_.Observe(std::fabs(error) / epsilon_);
  cost_hist_.Observe(static_cast<double>(r.message_cost));

  const uint64_t occasions = hits_ + misses_;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditCoverageEvent{r.estimate, truth, r.ci_halfwidth,
                                          r.hit, MissCauseName(r.cause),
                                          occasions, misses_});
    if (!r.hit) {
      const double miss_rate = static_cast<double>(misses_) /
                               static_cast<double>(occasions);
      const double burn = miss_rate / (1.0 - confidence_);
      tracer_->Emit(obs::AuditBudgetEvent{burn, std::max(0.0, 1.0 - burn),
                                          occasions, misses_});
    }
  }

  // Drift detectors, both standardized so thresholds are
  // workload-independent: error in ε units, cost as relative excess
  // over its own EWMA baseline.
  const double a = options_.ewma_alpha;
  if (!unanswered) {
    const double s = error / epsilon_;
    const double error_ewma_next =
        error_detector_.initialized
            ? (1.0 - a) * error_detector_.ewma + a * s
            : s;
    UpdateDetector(&error_detector_, "signed_error", s, error_ewma_next);
  }

  const double cost = static_cast<double>(r.message_cost);
  double relative_excess = 0.0;
  double cost_ewma_next = cost;
  if (cost_detector_.initialized) {
    relative_excess = cost / std::max(cost_detector_.ewma, 1e-12) - 1.0;
    cost_ewma_next = (1.0 - a) * cost_detector_.ewma + a * cost;
  }
  UpdateDetector(&cost_detector_, "message_cost", relative_excess,
                 cost_ewma_next);
}

void PrecisionAuditor::ResolveSkip(double truth) {
  pending_skip_ = false;
  ++delta_ticks_;
  // The per-tick widened contract (EvaluatePrecisionWidened): the
  // extrapolated/held answer must sit within max(ε, ci) + δ of truth.
  const double bound = std::max(epsilon_, skip_ci_) + delta_;
  if (std::fabs(skip_reported_ - truth) > bound) {
    ++delta_misses_;
    ++cause_counts_[static_cast<size_t>(MissCause::kPredResidual)];
  }
}

bool PrecisionAuditor::UpdateDetector(DriftDetector* detector,
                                      const char* name, double value,
                                      double ewma_next) {
  detector->ewma = ewma_next;
  detector->initialized = true;
  const double k = options_.cusum_slack;
  detector->cusum_pos = std::max(0.0, detector->cusum_pos + value - k);
  detector->cusum_neg = std::max(0.0, detector->cusum_neg - value - k);
  const bool breached =
      std::max(detector->cusum_pos, detector->cusum_neg) >
      options_.cusum_threshold;
  if (!breached) {
    detector->streak = 0;
    return false;
  }
  ++detector->breaches;
  ++detector->streak;
  const bool flip = detector->streak >= options_.breach_patience;
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditDriftEvent{
        name, detector->ewma, detector->cusum_pos, detector->cusum_neg,
        options_.cusum_threshold, detector->streak, flip});
  }
  if (flip) {
    // Sustained breach: request one supervisor degradation (the engine
    // drains the flip at its next tick) and re-arm the detector.
    ++supervisor_flips_;
    ++pending_flips_;
    detector->cusum_pos = 0.0;
    detector->cusum_neg = 0.0;
    detector->streak = 0;
  }
  return true;
}

void PrecisionAuditor::FinalizeRun() {
  FlushPending();
  Summary s = Summarize();
  if (obs::Tracing(tracer_)) {
    tracer_->Emit(obs::AuditSloEvent{
        s.label, s.p, s.epsilon, s.delta, s.occasions, s.hits, s.misses,
        s.coverage, s.coverage_floor, s.coverage_ok, s.delta_ticks,
        s.delta_misses, s.delta_compliance, s.budget_burn,
        s.budget_remaining});
  }
  completed_runs_.push_back(std::move(s));
}

PrecisionAuditor::Summary PrecisionAuditor::Summarize() const {
  Summary s;
  s.label = run_label_;
  s.p = confidence_;
  s.epsilon = epsilon_;
  s.delta = delta_;
  s.occasions = hits_ + misses_;
  s.hits = hits_;
  s.misses = misses_;
  if (s.occasions > 0) {
    const double n = static_cast<double>(s.occasions);
    s.coverage = static_cast<double>(hits_) / n;
    s.coverage_floor =
        confidence_ -
        2.0 * std::sqrt(confidence_ * (1.0 - confidence_) / n);
    s.coverage_ok = s.coverage >= s.coverage_floor;
    const double miss_rate = static_cast<double>(misses_) / n;
    s.budget_burn = miss_rate / (1.0 - confidence_);
    s.budget_remaining = std::max(0.0, 1.0 - s.budget_burn);
  }
  s.delta_ticks = delta_ticks_;
  s.delta_misses = delta_misses_;
  if (delta_ticks_ > 0) {
    s.delta_compliance =
        static_cast<double>(delta_ticks_ - delta_misses_) /
        static_cast<double>(delta_ticks_);
  }
  s.ledger_records = records_.size();
  std::memcpy(s.cause_counts, cause_counts_, sizeof(cause_counts_));
  s.error_breaches = error_detector_.breaches;
  s.cost_breaches = cost_detector_.breaches;
  s.supervisor_flips = supervisor_flips_;
  s.p50_abs_error_eps = abs_error_hist_.Quantile(0.5);
  s.p90_abs_error_eps = abs_error_hist_.Quantile(0.9);
  s.p90_snapshot_cost = cost_hist_.Quantile(0.9);
  return s;
}

std::string PrecisionAuditor::SummaryJson() const {
  const Summary s = Summarize();
  std::string out = "{\"label\":\"";
  AppendJsonEscaped(&out, s.label);
  out += "\",\"p\":";
  AppendDouble(&out, s.p);
  out += ",\"epsilon\":";
  AppendDouble(&out, s.epsilon);
  out += ",\"delta\":";
  AppendDouble(&out, s.delta);
  out += ",\"occasions\":";
  out += std::to_string(s.occasions);
  out += ",\"hits\":";
  out += std::to_string(s.hits);
  out += ",\"misses\":";
  out += std::to_string(s.misses);
  out += ",\"coverage\":";
  AppendDouble(&out, s.coverage);
  out += ",\"coverage_floor\":";
  AppendDouble(&out, s.coverage_floor);
  out += ",\"coverage_ok\":";
  AppendBool(&out, s.coverage_ok);
  out += ",\"delta_ticks\":";
  out += std::to_string(s.delta_ticks);
  out += ",\"delta_misses\":";
  out += std::to_string(s.delta_misses);
  out += ",\"delta_compliance\":";
  AppendDouble(&out, s.delta_compliance);
  out += ",\"budget_burn\":";
  AppendDouble(&out, s.budget_burn);
  out += ",\"budget_remaining\":";
  AppendDouble(&out, s.budget_remaining);
  out += ",\"ledger_records\":";
  out += std::to_string(s.ledger_records);
  out += ",\"attribution\":{";
  bool first = true;
  for (size_t i = 1; i < kNumMissCauses; ++i) {  // Skip "none".
    if (!first) out += ',';
    first = false;
    out += '"';
    out += MissCauseName(static_cast<MissCause>(i));
    out += "\":";
    out += std::to_string(s.cause_counts[i]);
  }
  out += "},\"drift_breaches\":{\"signed_error\":";
  out += std::to_string(s.error_breaches);
  out += ",\"message_cost\":";
  out += std::to_string(s.cost_breaches);
  out += "},\"supervisor_flips\":";
  out += std::to_string(s.supervisor_flips);
  out += ",\"p50_abs_error_eps\":";
  AppendDouble(&out, s.p50_abs_error_eps);
  out += ",\"p90_abs_error_eps\":";
  AppendDouble(&out, s.p90_abs_error_eps);
  out += ",\"p90_snapshot_cost\":";
  AppendDouble(&out, s.p90_snapshot_cost);
  out += '}';
  return out;
}

void PrecisionAuditor::ExportToRegistry(obs::Registry* registry) const {
  if (registry == nullptr) return;
  const obs::LabelSet run_labels =
      run_label_.empty() ? obs::LabelSet{}
                         : obs::LabelSet{{"run", run_label_}};
  auto labelled = [&](const char* key, const char* value) {
    obs::LabelSet labels = run_labels;
    labels.emplace_back(key, value);
    return labels;
  };
  const std::pair<const char*, uint64_t> counters[] = {
      {"audit.occasions", hits_ + misses_},
      {"audit.hits", hits_},
      {"audit.misses", misses_},
      {"audit.delta_ticks", delta_ticks_},
      {"audit.delta_misses", delta_misses_},
      {"audit.unmatched_truths", unmatched_truths_},
      {"audit.supervisor_flips", supervisor_flips_},
  };
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    registry->GetCounter(name, run_labels)->Increment(value);
  }
  for (size_t i = 1; i < kNumMissCauses; ++i) {
    const uint64_t count = cause_counts_[i];
    if (count == 0) continue;
    registry
        ->GetCounter("audit.miss_cause",
                     labelled("cause",
                              MissCauseName(static_cast<MissCause>(i))))
        ->Increment(count);
  }
  if (error_detector_.breaches > 0) {
    registry
        ->GetCounter("audit.drift_breaches",
                     labelled("detector", "signed_error"))
        ->Increment(error_detector_.breaches);
  }
  if (cost_detector_.breaches > 0) {
    registry
        ->GetCounter("audit.drift_breaches",
                     labelled("detector", "message_cost"))
        ->Increment(cost_detector_.breaches);
  }
  const Summary s = Summarize();
  registry->GetGauge("audit.coverage", run_labels)->Set(s.coverage);
  registry->GetGauge("audit.coverage_floor", run_labels)
      ->Set(s.coverage_floor);
  registry->GetGauge("audit.delta_compliance", run_labels)
      ->Set(s.delta_compliance);
  registry->GetGauge("audit.budget_burn", run_labels)->Set(s.budget_burn);
  registry->GetGauge("audit.budget_remaining", run_labels)
      ->Set(s.budget_remaining);
  obs::Histogram* abs_error =
      registry->GetHistogram("audit.abs_error_eps", AbsErrorBounds(),
                             run_labels);
  obs::Histogram* cost =
      registry->GetHistogram("audit.snapshot_cost", CostBounds(),
                             run_labels);
  for (const CoverageRecord& r : records_) {
    if (r.has_truth) {
      abs_error->Observe(std::fabs(r.estimate - r.truth) / epsilon_);
    }
    cost->Observe(static_cast<double>(r.message_cost));
  }
}

PrecisionAuditor::State PrecisionAuditor::SaveState() const {
  State s;
  s.run_label = run_label_;
  s.records = records_;
  s.pending_snapshot = pending_snapshot_;
  s.pending_record = pending_record_;
  s.pending_skip = pending_skip_;
  s.skip_tick = skip_tick_;
  s.skip_reported = skip_reported_;
  s.skip_ci = skip_ci_;
  s.hits = hits_;
  s.misses = misses_;
  s.delta_ticks = delta_ticks_;
  s.delta_misses = delta_misses_;
  s.unmatched_truths = unmatched_truths_;
  std::memcpy(s.cause_counts, cause_counts_, sizeof(cause_counts_));
  s.error_detector = error_detector_;
  s.cost_detector = cost_detector_;
  s.supervisor_flips = supervisor_flips_;
  s.pending_flips = pending_flips_;
  return s;
}

void PrecisionAuditor::RestoreState(const State& state) {
  run_label_ = state.run_label;
  records_ = state.records;
  pending_snapshot_ = state.pending_snapshot;
  pending_record_ = state.pending_record;
  pending_skip_ = state.pending_skip;
  skip_tick_ = state.skip_tick;
  skip_reported_ = state.skip_reported;
  skip_ci_ = state.skip_ci;
  hits_ = state.hits;
  misses_ = state.misses;
  delta_ticks_ = state.delta_ticks;
  delta_misses_ = state.delta_misses;
  unmatched_truths_ = state.unmatched_truths;
  std::memcpy(cause_counts_, state.cause_counts, sizeof(cause_counts_));
  error_detector_ = state.error_detector;
  cost_detector_ = state.cost_detector;
  supervisor_flips_ = state.supervisor_flips;
  pending_flips_ = state.pending_flips;
  RebuildHistograms();
}

void PrecisionAuditor::RebuildHistograms() {
  abs_error_hist_ = obs::Histogram(AbsErrorBounds());
  cost_hist_ = obs::Histogram(CostBounds());
  for (const CoverageRecord& r : records_) {
    if (r.has_truth) {
      abs_error_hist_.Observe(std::fabs(r.estimate - r.truth) / epsilon_);
    }
    cost_hist_.Observe(static_cast<double>(r.message_cost));
  }
}

void PrecisionAuditor::AppendStateJson(const State& s, std::string* out) {
  *out += "{\"run_label\":\"";
  AppendJsonEscaped(out, s.run_label);
  *out += "\",\"hits\":";
  AppendU64(out, s.hits);
  *out += ",\"misses\":";
  AppendU64(out, s.misses);
  *out += ",\"delta_ticks\":";
  AppendU64(out, s.delta_ticks);
  *out += ",\"delta_misses\":";
  AppendU64(out, s.delta_misses);
  *out += ",\"unmatched_truths\":";
  AppendU64(out, s.unmatched_truths);
  *out += ",\"cause_counts\":[";
  for (size_t i = 0; i < kNumMissCauses; ++i) {
    if (i > 0) *out += ',';
    AppendU64(out, s.cause_counts[i]);
  }
  *out += "],\"error_detector\":";
  AppendDetectorJson(out, s.error_detector);
  *out += ",\"cost_detector\":";
  AppendDetectorJson(out, s.cost_detector);
  *out += ",\"supervisor_flips\":";
  AppendU64(out, s.supervisor_flips);
  *out += ",\"pending_flips\":";
  AppendU64(out, s.pending_flips);
  *out += ",\"pending_snapshot\":";
  AppendBool(out, s.pending_snapshot);
  if (s.pending_snapshot) {
    *out += ",\"pending_record\":";
    AppendRecordJson(out, s.pending_record);
  }
  *out += ",\"pending_skip\":";
  AppendBool(out, s.pending_skip);
  if (s.pending_skip) {
    *out += ",\"skip_tick\":";
    *out += std::to_string(s.skip_tick);
    *out += ",\"skip_reported\":";
    AppendDouble(out, s.skip_reported);
    *out += ",\"skip_ci\":";
    AppendDouble(out, s.skip_ci);
  }
  *out += ",\"records\":[";
  for (size_t i = 0; i < s.records.size(); ++i) {
    if (i > 0) *out += ',';
    AppendRecordJson(out, s.records[i]);
  }
  *out += "]}";
}

Result<PrecisionAuditor::State> PrecisionAuditor::ParseStateJson(
    const json::Value& v) {
  State s;
  DIGEST_ASSIGN_OR_RETURN(s.run_label, v.GetString("run_label"));
  DIGEST_ASSIGN_OR_RETURN(s.hits, v.GetUInt64("hits"));
  DIGEST_ASSIGN_OR_RETURN(s.misses, v.GetUInt64("misses"));
  DIGEST_ASSIGN_OR_RETURN(s.delta_ticks, v.GetUInt64("delta_ticks"));
  DIGEST_ASSIGN_OR_RETURN(s.delta_misses, v.GetUInt64("delta_misses"));
  DIGEST_ASSIGN_OR_RETURN(s.unmatched_truths,
                          v.GetUInt64("unmatched_truths"));
  DIGEST_ASSIGN_OR_RETURN(const json::Value* causes,
                          v.GetArray("cause_counts"));
  if (causes->array().size() != kNumMissCauses) {
    return Status::InvalidArgument(
        "audit: cause_counts length mismatch (blob from a different "
        "build?)");
  }
  for (size_t i = 0; i < kNumMissCauses; ++i) {
    DIGEST_ASSIGN_OR_RETURN(s.cause_counts[i],
                            causes->array()[i].AsUInt64());
  }
  DIGEST_ASSIGN_OR_RETURN(const json::Value* err,
                          v.GetObject("error_detector"));
  DIGEST_ASSIGN_OR_RETURN(s.error_detector, ParseDetectorJson(*err));
  DIGEST_ASSIGN_OR_RETURN(const json::Value* cost,
                          v.GetObject("cost_detector"));
  DIGEST_ASSIGN_OR_RETURN(s.cost_detector, ParseDetectorJson(*cost));
  DIGEST_ASSIGN_OR_RETURN(s.supervisor_flips,
                          v.GetUInt64("supervisor_flips"));
  DIGEST_ASSIGN_OR_RETURN(s.pending_flips, v.GetUInt64("pending_flips"));
  DIGEST_ASSIGN_OR_RETURN(s.pending_snapshot,
                          v.GetBool("pending_snapshot"));
  if (s.pending_snapshot) {
    DIGEST_ASSIGN_OR_RETURN(const json::Value* rec,
                            v.GetObject("pending_record"));
    DIGEST_ASSIGN_OR_RETURN(s.pending_record, ParseRecordJson(*rec));
  }
  DIGEST_ASSIGN_OR_RETURN(s.pending_skip, v.GetBool("pending_skip"));
  if (s.pending_skip) {
    DIGEST_ASSIGN_OR_RETURN(s.skip_tick, v.GetInt64("skip_tick"));
    DIGEST_ASSIGN_OR_RETURN(s.skip_reported, v.GetDouble("skip_reported"));
    DIGEST_ASSIGN_OR_RETURN(s.skip_ci, v.GetDouble("skip_ci"));
  }
  DIGEST_ASSIGN_OR_RETURN(const json::Value* records,
                          v.GetArray("records"));
  s.records.reserve(records->array().size());
  for (const json::Value& r : records->array()) {
    DIGEST_ASSIGN_OR_RETURN(CoverageRecord rec, ParseRecordJson(r));
    s.records.push_back(rec);
  }
  return s;
}

std::string RenderSloTable(
    const std::vector<PrecisionAuditor::Summary>& runs) {
  std::string out = "== audit SLO ==\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-24s %6s %9s %9s %4s %8s %7s %6s\n", "run", "occ",
                "coverage", "floor", "ok", "delta", "burn", "flips");
  out += buf;
  for (const PrecisionAuditor::Summary& s : runs) {
    std::snprintf(
        buf, sizeof(buf),
        "  %-24s %6llu %9.4f %9.4f %4s %8.4f %7.3f %6llu\n",
        s.label.empty() ? "(unlabelled)" : s.label.c_str(),
        static_cast<unsigned long long>(s.occasions), s.coverage,
        s.coverage_floor, s.coverage_ok ? "yes" : "NO",
        s.delta_compliance, s.budget_burn,
        static_cast<unsigned long long>(s.supervisor_flips));
    out += buf;
  }
  if (runs.empty()) out += "  (no completed runs)\n";
  return out;
}

}  // namespace audit
}  // namespace digest
