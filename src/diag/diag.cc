#include "diag/diag.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace digest {
namespace diag {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Field(std::string* out, const char* key, const std::string& value) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  out->append(value);
}

void Field(std::string* out, const char* key, uint64_t value) {
  Field(out, key, std::to_string(value));
}

}  // namespace

void SamplerDiag::FoldWalk(const WalkDiagBuffer& buffer) {
  batch_visits_.insert(batch_visits_.end(), buffer.visits.begin(),
                       buffer.visits.end());
  series_ends_.push_back(batch_visits_.size());
  batch_edges_.insert(batch_edges_.end(), buffer.probes.begin(),
                      buffer.probes.end());
  batch_edges_.insert(batch_edges_.end(), buffer.hops.begin(),
                      buffer.hops.end());
}

void SamplerDiag::FinishBatch(const WalkContext& context, uint64_t proposals,
                              uint64_t accepted, obs::Tracer* tracer,
                              obs::Registry* registry) {
  BatchDiagnostics d;
  d.walks = series_ends_.size();
  d.proposals = proposals;
  d.accepted = accepted;
  d.acceptance_rate =
      proposals > 0
          ? static_cast<double>(accepted) / static_cast<double>(proposals)
          : 0.0;

  // --- Stationary target, rebased on the current live membership. ---
  // π(v) = w(v)/Σw over the context's live nodes: a peer that left the
  // overlay since the visits were recorded contributes no target mass,
  // and its visits are pruned from the empirical histogram (but
  // counted, so a churn-heavy run shows how much walk effort landed on
  // dead peers). Every sum runs in ascending NodeId order.
  const NodeId ids = context.NextId();
  visit_counts_.assign(ids, 0);
  d.steps = batch_visits_.size();
  for (const NodeId v : batch_visits_) {
    if (context.Live(v)) {
      ++visit_counts_[v];
      ++d.live_visits;
    } else {
      ++d.dropped_dead_visits;
    }
  }
  double total_weight = 0.0;
  for (NodeId v = 0; v < ids; ++v) {
    if (!context.Live(v)) continue;
    ++d.live_peers;
    total_weight += context.Weight(v);
  }
  if (total_weight > 0.0 && d.live_visits > 0) {
    const double n = static_cast<double>(d.live_visits);
    for (NodeId v = 0; v < ids; ++v) {
      if (!context.Live(v)) continue;
      const double target = context.Weight(v) / total_weight;
      const double empirical = static_cast<double>(visit_counts_[v]) / n;
      d.tv_distance += 0.5 * std::fabs(empirical - target);
      if (target > 0.0) {
        const double gap = empirical - target;
        d.chi_square += gap * gap / target;
      }
    }
  }
  d.breach = d.live_visits >= options_.min_visits &&
             d.tv_distance > options_.tv_breach_threshold;

  // --- Burn-in adequacy from the per-walk scalar series xₜ = w(vₜ). ---
  // Pooled lag-1 autocorrelation (walk-mean-centered, weighted by lag
  // pairs), per-walk ESS = n(1−ρ)/(1+ρ) clamped to [1, n], and the
  // cross-walk Gelman–Rubin R̂ from between/within-walk variance. Dead
  // visits are excluded: the weight of a departed peer is undefined.
  double autocov_sum = 0.0;
  double var_sum = 0.0;
  std::vector<double> walk_means;
  std::vector<double> walk_vars;  // Sample variance, denominator n−1.
  double length_sum = 0.0;
  std::vector<double> x;
  size_t series_begin = 0;
  for (const size_t series_end : series_ends_) {
    x.clear();
    for (size_t k = series_begin; k < series_end; ++k) {
      const NodeId v = batch_visits_[k];
      if (context.Live(v)) x.push_back(context.Weight(v));
    }
    series_begin = series_end;
    const size_t n = x.size();
    if (n == 0) continue;
    double mean = 0.0;
    for (const double v : x) mean += v;
    mean /= static_cast<double>(n);
    if (n < 2) {
      d.ess += 1.0;
      continue;
    }
    double var0 = 0.0;   // Σ(xₜ−μ)², denominator-free.
    double cov1 = 0.0;   // Σ(xₜ−μ)(xₜ₊₁−μ).
    for (size_t t = 0; t < n; ++t) {
      const double c = x[t] - mean;
      var0 += c * c;
      if (t + 1 < n) cov1 += c * (x[t + 1] - mean);
    }
    autocov_sum += cov1;
    var_sum += var0;
    const double rho = var0 > 0.0 ? cov1 / var0 : 0.0;
    const double nd = static_cast<double>(n);
    double ess = var0 > 0.0 ? nd * (1.0 - rho) / (1.0 + rho) : nd;
    d.ess += std::min(nd, std::max(1.0, ess));
    walk_means.push_back(mean);
    walk_vars.push_back(var0 / (nd - 1.0));
    length_sum += nd;
  }
  d.lag1_autocorr = var_sum > 0.0 ? autocov_sum / var_sum : 0.0;
  if (walk_means.size() >= 2) {
    const double m = static_cast<double>(walk_means.size());
    const double nbar = length_sum / m;
    double grand = 0.0;
    for (const double mu : walk_means) grand += mu;
    grand /= m;
    double between = 0.0;  // B = n̄/(m−1)·Σ(μ_w−μ)².
    for (const double mu : walk_means) {
      between += (mu - grand) * (mu - grand);
    }
    between *= nbar / (m - 1.0);
    double within = 0.0;  // W = mean per-walk sample variance.
    for (const double v : walk_vars) within += v;
    within /= m;
    if (within > 0.0 && nbar > 0.0) {
      const double var_plus =
          (nbar - 1.0) / nbar * within + between / nbar;
      d.rhat = std::sqrt(var_plus / within);
    }
  }

  // --- Per-peer / per-link message load and hot-peer detection. ---
  // Every probe and every accepted hop is one message over a concrete
  // link; both endpoints carry it. Peers are scanned in ascending id
  // order, so ties resolve to the smallest peer id deterministically;
  // links are counted as distinct packed (min, max) keys.
  size_t load_ids = ids;
  for (const auto& [from, to] : batch_edges_) {
    load_ids = std::max<size_t>(load_ids, size_t{std::max(from, to)} + 1);
  }
  peer_load_.assign(load_ids, 0);
  link_keys_.clear();
  for (const auto& [from, to] : batch_edges_) {
    ++peer_load_[from];
    ++peer_load_[to];
    link_keys_.push_back(static_cast<uint64_t>(std::min(from, to)) << 32 |
                         std::max(from, to));
  }
  std::sort(link_keys_.begin(), link_keys_.end());
  d.loaded_links = static_cast<uint64_t>(
      std::unique(link_keys_.begin(), link_keys_.end()) - link_keys_.begin());
  uint64_t total_touches = 0;
  for (size_t peer = 0; peer < load_ids; ++peer) {
    const uint64_t load = peer_load_[peer];
    if (load == 0) continue;
    ++d.loaded_peers;
    total_touches += load;
    if (load > d.max_load) {
      d.max_load = load;
      d.hot_peer = static_cast<NodeId>(peer);
    }
  }
  d.mean_load = d.loaded_peers > 0 ? static_cast<double>(total_touches) /
                                         static_cast<double>(d.loaded_peers)
                                   : 0.0;
  d.hot = d.loaded_peers >= 2 &&
          static_cast<double>(d.max_load) >
              options_.hot_peer_factor * d.mean_load;

  // --- Export: trace events and registry keys. ---
  if (obs::Tracing(tracer)) {
    obs::WalkMixingEvent mixing;
    mixing.walks = d.walks;
    mixing.steps = d.steps;
    mixing.lag1_autocorr = d.lag1_autocorr;
    mixing.ess = d.ess;
    mixing.rhat = d.rhat;
    tracer->Emit(mixing);
    obs::StationaryGapEvent gap;
    gap.tv_distance = d.tv_distance;
    gap.chi_square = d.chi_square;
    gap.live_peers = d.live_peers;
    gap.visits = d.live_visits;
    gap.dropped_dead_visits = d.dropped_dead_visits;
    gap.breach = d.breach;
    tracer->Emit(gap);
    obs::PeerLoadEvent load;
    load.peers = d.loaded_peers;
    load.links = d.loaded_links;
    load.hot_peer = d.hot_peer;
    load.max_load = d.max_load;
    load.mean_load = d.mean_load;
    load.hot = d.hot;
    tracer->Emit(load);
    obs::AcceptanceRateEvent acc;
    acc.proposals = d.proposals;
    acc.accepted = d.accepted;
    acc.rate = d.acceptance_rate;
    tracer->Emit(acc);
  }
  if (registry != nullptr) {
    registry->GetCounter("diag.batches")->Increment();
    registry->GetCounter("diag.visits")->Increment(d.live_visits);
    registry->GetCounter("diag.dropped_dead_visits")
        ->Increment(d.dropped_dead_visits);
    if (d.breach) {
      registry->GetCounter("diag.stationary_breaches")->Increment();
    }
    if (d.hot) registry->GetCounter("diag.hot_batches")->Increment();
    registry->GetGauge("diag.tv_distance")->Set(d.tv_distance);
    registry->GetGauge("diag.chi_square")->Set(d.chi_square);
    registry->GetGauge("diag.lag1_autocorr")->Set(d.lag1_autocorr);
    registry->GetGauge("diag.ess")->Set(d.ess);
    registry->GetGauge("diag.rhat")->Set(d.rhat);
    registry->GetGauge("diag.acceptance_rate")->Set(d.acceptance_rate);
    registry->GetGauge("diag.hot_peer")
        ->Set(static_cast<double>(d.hot_peer));
    registry->GetGauge("diag.max_load")
        ->Set(static_cast<double>(d.max_load));
    registry->GetGauge("diag.mean_load")->Set(d.mean_load);
    registry
        ->GetHistogram("diag.tv_per_batch", obs::LinearBuckets(0.1, 1.0, 10))
        ->Observe(d.tv_distance);
  }

  // --- Run summary. ---
  ++batches_;
  walks_ += d.walks;
  steps_ += d.steps;
  live_visits_ += d.live_visits;
  dropped_dead_visits_ += d.dropped_dead_visits;
  proposals_ += d.proposals;
  accepted_ += d.accepted;
  if (d.breach) {
    ++breaches_;
    breach_since_read_ = true;
  }
  if (d.hot) ++hot_batches_;
  tv_sum_ += d.tv_distance;
  tv_max_ = std::max(tv_max_, d.tv_distance);

  last_batch_ = d;
  batch_visits_.clear();
  series_ends_.clear();
  batch_edges_.clear();
}

void SamplerDiag::Reset() {
  batch_visits_.clear();
  series_ends_.clear();
  batch_edges_.clear();
  last_batch_ = BatchDiagnostics{};
  breach_since_read_ = false;
  batches_ = 0;
  walks_ = 0;
  steps_ = 0;
  live_visits_ = 0;
  dropped_dead_visits_ = 0;
  proposals_ = 0;
  accepted_ = 0;
  breaches_ = 0;
  hot_batches_ = 0;
  tv_sum_ = 0.0;
  tv_max_ = 0.0;
}

std::string SamplerDiag::SummaryJson() const {
  std::string out = "{";
  Field(&out, "acceptance_rate",
        Num(proposals_ > 0 ? static_cast<double>(accepted_) /
                                 static_cast<double>(proposals_)
                           : 0.0));
  Field(&out, "accepted", accepted_);
  Field(&out, "batches", batches_);
  Field(&out, "breaches", breaches_);
  Field(&out, "dropped_dead_visits", dropped_dead_visits_);
  Field(&out, "ess_last", Num(last_batch_.ess));
  Field(&out, "hot_batches", hot_batches_);
  Field(&out, "hot_peer_last", static_cast<uint64_t>(last_batch_.hot_peer));
  Field(&out, "lag1_last", Num(last_batch_.lag1_autocorr));
  Field(&out, "live_visits", live_visits_);
  Field(&out, "max_load_last", last_batch_.max_load);
  Field(&out, "proposals", proposals_);
  Field(&out, "rhat_last", Num(last_batch_.rhat));
  Field(&out, "steps", steps_);
  Field(&out, "tv_last", Num(last_batch_.tv_distance));
  Field(&out, "tv_max", Num(tv_max_));
  Field(&out, "tv_mean",
        Num(batches_ > 0 ? tv_sum_ / static_cast<double>(batches_) : 0.0));
  Field(&out, "walks", walks_);
  out.push_back('}');
  return out;
}

std::string SamplerDiag::SummaryText() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "  batches %llu  walks %llu  visits %llu (dead %llu)  tv last/mean/max "
      "%.3f/%.3f/%.3f  breaches %llu\n",
      static_cast<unsigned long long>(batches_),
      static_cast<unsigned long long>(walks_),
      static_cast<unsigned long long>(live_visits_),
      static_cast<unsigned long long>(dropped_dead_visits_),
      last_batch_.tv_distance,
      batches_ > 0 ? tv_sum_ / static_cast<double>(batches_) : 0.0, tv_max_,
      static_cast<unsigned long long>(breaches_));
  std::string out = buf;
  std::snprintf(
      buf, sizeof(buf),
      "  ess %.1f  lag1 %.3f  rhat %.3f  accept %.3f  hot batches %llu\n",
      last_batch_.ess, last_batch_.lag1_autocorr, last_batch_.rhat,
      proposals_ > 0
          ? static_cast<double>(accepted_) / static_cast<double>(proposals_)
          : 0.0,
      static_cast<unsigned long long>(hot_batches_));
  out += buf;
  return out;
}

}  // namespace diag
}  // namespace digest
