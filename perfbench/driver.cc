// Closed-loop benchmark driver for the Digest library.
//
// One querying peer issues its continuous queries and ticks the
// simulated network back to back: each tick advances the workload,
// computes the exact aggregate (the oracle), then ticks the engine or
// node and scores every answer against that oracle. A run repeats whole
// sessions (workload build, engine creation, one paper-length query
// session) until its time budget is spent; sessions cycle over a few
// sub-seeds derived from --seed, and every repeat of one sub-seed must
// do identical work.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--size full|tiny]
//
// --trace 0 prints the end-to-end metrics, measured with no profiler and
// no spans. --trace 1 prints the per-layer metrics from four passes:
// the untraced base, a traced pass (benchmark-side spans around every
// public call plus the library's prof::Profiler hooks), a pass with the
// audit and diagnostics instruments toggled, and a pass at
// num_threads = min(4, nproc). Spans, the profiler's phase JSON and a
// per-layer table are written under .bench_out/<workload>/.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "common/json.h"
#include "core/digest_node.h"
#include "core/engine.h"
#include "diag/diag.h"
#include "net/fault_plan.h"
#include "net/message_meter.h"
#include "net/peer_health.h"
#include "prof/profiler.h"
#include "workload/memory.h"
#include "workload/temperature.h"

namespace digest {
namespace {

// ---------------------------------------------------------------------
// Workloads.

enum class Size { kFull, kTiny };

struct WorkloadDef {
  const char* name;
  bool memory;        ///< MEMORY + churn + faults + instruments.
  size_t queries;     ///< 1: one DigestEngine; more: one DigestNode.
  size_t ticks;       ///< Ticks per session (full size).
  size_t sub_seeds;   ///< Sessions per cycle, one dataset instance each.
  size_t traced_sub_seeds;  ///< The same, for the four --trace 1 passes.
  const char* query;
  double delta;
  double eps_lo;      ///< ε of the first query; the last gets eps_hi.
  double eps_hi;
  double p;
};

// 1095 ticks are the paper's 18 months of twice-daily readings. How
// often PRED samples depends strongly on the walk randomness (one
// session's message count moves by 10-20% between seeds on
// temp_node_8q), so a cycle pools several sessions.
constexpr WorkloadDef kWorkloads[] = {
    {"temp_node_8q", false, 8, 1095, 12, 2,
     "SELECT AVG(temperature) FROM R", 8.0, 0.5, 2.0, 0.95},
    {"mem_churn_faults", true, 1, 1095, 14, 3, "SELECT AVG(memory) FROM R",
     1.0, 2.0, 2.0, 0.9},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

size_t SessionTicks(const WorkloadDef& def, Size size) {
  return size == Size::kTiny ? 120 : def.ticks;
}

double QueryEpsilon(const WorkloadDef& def, size_t i) {
  if (def.queries == 1) return def.eps_lo;
  return def.eps_lo + (def.eps_hi - def.eps_lo) * static_cast<double>(i) /
                          static_cast<double>(def.queries - 1);
}

TemperatureConfig TemperatureFor(Size size, size_t dataset) {
  TemperatureConfig config;  // Table II: 8000 units on 530 stations.
  if (size == Size::kTiny) {
    config.num_units = 400;
    config.num_nodes = 40;
  }
  config.seed += dataset;
  return config;
}

MemoryConfig MemoryFor(Size size, size_t dataset) {
  MemoryConfig config;  // Table II: 1000 units on 820 peers, 0.8/0.8 churn.
  if (size == Size::kTiny) {
    config.num_units = 200;
    config.num_nodes = 150;
  }
  config.seed += dataset;
  return config;
}

FaultPlanConfig Faults() {
  FaultPlanConfig faults;
  faults.message_loss = 0.05;
  faults.agent_drop = 0.02;
  faults.edge_spread = 0.5;
  faults.stall_fraction = 0.1;
  return faults;
}

// ---------------------------------------------------------------------
// Clock, seeds, spans.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Sub-seed k runs the k-th dataset instance (the Table II generator's
/// own seed plus k, the same in every run); --seed draws the querying
/// peer, the engine's random streams and the fault schedule.
struct SessionSeeds {
  size_t dataset;
  uint64_t engine;
  uint64_t faults;
};

SessionSeeds SeedsFor(uint64_t run_seed, size_t sub_seed) {
  const uint64_t base = SplitMix(run_seed * 64 + sub_seed);
  return {sub_seed, SplitMix(base + 2), SplitMix(base + 3)};
}

/// One benchmark-side span. `parent` indexes the span log (-1: root);
/// `tick` identifies the loop tick the span belongs to, unique within
/// the log (-1: session-level).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  int64_t tick;
};

/// In-memory span log; a disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int64_t Begin(const char* name, int64_t parent, int64_t tick) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, tick});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  void Add(const char* name, uint64_t start_ns, uint64_t end_ns,
           int64_t parent, int64_t tick) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, parent, tick});
  }
  int64_t NewTickId() { return next_tick_id_++; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t next_tick_id_ = 0;
  std::vector<Span> spans_;
};

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what, result.status());
  return std::move(result.value());
}

// ---------------------------------------------------------------------
// One session.

/// How a pass departs from the workload's base configuration.
struct Variant {
  bool traced = false;             ///< Spans + profiler.
  bool flip_instruments = false;   ///< Toggle audit + diag.
  size_t num_threads = 0;          ///< 0: the default serial walk path.
};

/// The work a session did. Repeats of one sub-seed must match exactly.
struct Work {
  uint64_t sim_ticks = 0;
  uint64_t query_ticks = 0;
  uint64_t snapshots = 0;
  uint64_t total_samples = 0;
  uint64_t fresh_samples = 0;
  uint64_t messages = 0;
  uint64_t walk_hops = 0;
  uint64_t retry_msgs = 0;  ///< Retries + losses + agent restarts.
  uint64_t failed = 0;      ///< Query-ticks whose Tick returned an error.
  uint64_t degraded = 0;
  uint64_t updates = 0;     ///< Result-update query-ticks.
  uint64_t covered = 0;     ///< Updates with |X̂ − X| ≤ ε.
  uint64_t within = 0;      ///< Query-ticks with |X̂ − X| ≤ ε + δ.
  uint64_t snapshot_ticks = 0;   ///< Ticks that ran >= 1 occasion.
  uint64_t coalesced_ticks = 0;  ///< Node ticks sharing one batch.
  uint64_t answer_hash = 0;      ///< Hash of every reported value.

  bool operator==(const Work&) const = default;
};

struct SessionOut {
  Work work;
  bool finite = true;
  std::string first_error;
  uint64_t setup_ns = 0;         ///< Build → first fully answered tick.
  uint64_t build_ns = 0;         ///< Workload::Create.
  uint64_t first_answer_ns = 0;  ///< Engine/node create → first answer.
  uint64_t session_tick_ns = 0;  ///< Every Tick call of the session.
  // The measured loop: the ticks after set-up.
  uint64_t loop_ns = 0;
  uint64_t loop_tick_ns = 0;
  uint64_t loop_advance_ns = 0;
  uint64_t loop_oracle_ns = 0;
  uint64_t loop_sim_ticks = 0;
  uint64_t loop_query_ticks = 0;
  std::vector<double> snapshot_us;  ///< Loop Tick calls with an occasion.
  std::vector<double> skip_us;      ///< Loop Tick calls without one.
  uint64_t diag_batches = 0;
  uint64_t diag_breaches = 0;
};

uint64_t HashMix(uint64_t h, uint64_t v) { return SplitMix(h ^ v); }

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Scores one query-tick against the oracle.
void Score(const WorkloadDef& def, double eps, double truth,
           const Result<EngineTickResult>& r, SessionOut* out) {
  Work& w = out->work;
  ++w.query_ticks;
  if (!r.ok()) {
    ++w.failed;
    w.answer_hash = HashMix(w.answer_hash, 0xfa11ed);
    if (out->first_error.empty()) out->first_error = r.status().ToString();
    return;
  }
  const EngineTickResult& tick = *r;
  if (tick.degraded) ++w.degraded;
  w.answer_hash = HashMix(w.answer_hash, Bits(tick.reported_value));
  w.answer_hash = HashMix(w.answer_hash, (tick.snapshot_executed ? 1 : 0) |
                                             (tick.result_updated ? 2 : 0) |
                                             (tick.degraded ? 4 : 0));
  if (!tick.has_result) return;
  if (!std::isfinite(tick.reported_value) ||
      !std::isfinite(tick.ci_halfwidth)) {
    out->finite = false;
    return;
  }
  const double err = std::fabs(tick.reported_value - truth);
  if (err <= eps + def.delta) ++w.within;
  if (tick.result_updated) {
    ++w.updates;
    if (err <= eps) ++w.covered;
  }
}

SessionOut RunSession(const WorkloadDef& def, Size size,
                      const SessionSeeds& seeds, const Variant& variant,
                      prof::Profiler* profiler, SpanLog* spans) {
  SessionOut out;
  const uint64_t t_start = NowNs();
  const int64_t session_span = spans->Begin("session", -1, -1);

  std::unique_ptr<Workload> workload;
  const uint64_t b0 = NowNs();
  if (def.memory) {
    workload = Unwrap(MemoryWorkload::Create(MemoryFor(size, seeds.dataset)),
                      "MemoryWorkload::Create");
  } else {
    workload = Unwrap(
        TemperatureWorkload::Create(TemperatureFor(size, seeds.dataset)),
        "TemperatureWorkload::Create");
  }
  const uint64_t b1 = NowNs();
  out.build_ns = b1 - b0;
  spans->Add("workload.create", b0, b1, session_span, -1);

  const uint64_t c0 = NowNs();
  Rng rng(seeds.engine);
  const NodeId self =
      Unwrap(workload->graph().RandomLiveNode(rng), "RandomLiveNode");
  workload->ProtectNode(self);

  // Instruments: the MEMORY workload runs with audit + diag + health;
  // the TEMPERATURE workloads with none. A flipped pass toggles audit
  // and diag; health steers routing and stays as the base has it.
  const bool instruments = def.memory != variant.flip_instruments;
  std::optional<FaultPlan> plan;
  if (def.memory) {
    plan.emplace(Faults(), seeds.faults);
    plan->SetProfiler(profiler);
    plan->set_now(workload->now());
  }
  diag::SamplerDiag diag;
  PeerHealthMonitor health;
  std::vector<std::unique_ptr<audit::PrecisionAuditor>> auditors;

  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kPred;
  options.estimator = EstimatorKind::kRepeated;
  options.sampler = SamplerKind::kTwoStageMcmc;
  options.extrapolator.history_points = 3;
  options.num_threads = variant.num_threads;
  options.profiler = profiler;
  if (def.memory) {
    options.fault_plan = &*plan;
    options.estimator_options.allow_partial = true;
    options.health = &health;
  }
  if (instruments) options.diag = &diag;

  std::vector<ContinuousQuerySpec> specs;
  std::vector<double> eps;
  for (size_t i = 0; i < def.queries; ++i) {
    eps.push_back(QueryEpsilon(def, i));
    specs.push_back(Unwrap(
        ContinuousQuerySpec::Create(def.query,
                                    PrecisionSpec{def.delta, eps[i], def.p}),
        "ContinuousQuerySpec::Create"));
    if (instruments) {
      auditors.push_back(std::make_unique<audit::PrecisionAuditor>());
      auditors.back()->BeginRun(def.name);
    }
  }
  auto query_options = [&](size_t i) {
    DigestEngineOptions o = options;
    if (instruments) o.auditor = auditors[i].get();
    return o;
  };

  MessageMeter meter;
  std::unique_ptr<DigestEngine> engine;
  std::unique_ptr<DigestNode> node;
  std::vector<QueryId> ids;
  if (def.queries == 1) {
    const uint64_t e0 = NowNs();
    engine = Unwrap(DigestEngine::Create(&workload->graph(), &workload->db(),
                                         specs[0], self, rng.Fork(), &meter,
                                         query_options(0)),
                    "DigestEngine::Create");
    spans->Add("core.create", e0, NowNs(), session_span, -1);
  } else {
    const uint64_t n0 = NowNs();
    node = Unwrap(DigestNode::Create(&workload->graph(), &workload->db(),
                                     self, rng.Fork(), &meter, options),
                  "DigestNode::Create");
    const uint64_t n1 = NowNs();
    spans->Add("node.create", n0, n1, session_span, -1);
    for (size_t i = 0; i < def.queries; ++i) {
      const uint64_t q0 = NowNs();
      ids.push_back(Unwrap(node->IssueQuery(specs[i], query_options(i)),
                           "DigestNode::IssueQuery"));
      spans->Add("node.issue", q0, NowNs(), session_span, -1);
    }
  }

  const AggregateQuery& oracle_query = specs[0].query;
  const size_t ticks = SessionTicks(def, size);
  bool measuring = false;
  uint64_t loop_start = 0;
  Work& w = out.work;
  for (size_t t = 0; t < ticks; ++t) {
    const int64_t tick_id = spans->NewTickId();
    const int64_t tick_span = spans->Begin("tick", session_span, tick_id);
    const uint64_t a0 = NowNs();
    const Status advanced = workload->Advance();
    const uint64_t a1 = NowNs();
    if (!advanced.ok()) Fatal("Workload::Advance", advanced);
    if (plan) plan->set_now(workload->now());
    const double truth = Unwrap(workload->db().ExactAggregate(oracle_query),
                                "P2PDatabase::ExactAggregate");
    const uint64_t o1 = NowNs();
    spans->Add("workload.advance", a0, a1, tick_span, tick_id);
    spans->Add("db.oracle", a1, o1, tick_span, tick_id);

    bool occasion = false;
    bool answered = true;
    uint64_t k0 = 0;
    uint64_t k1 = 0;
    if (engine) {
      k0 = NowNs();
      Result<EngineTickResult> r = engine->Tick(workload->now());
      k1 = NowNs();
      spans->Add("core.tick", k0, k1, tick_span, tick_id);
      occasion = !r.ok() || r->snapshot_executed;
      answered = r.ok() && r->has_result;
      Score(def, eps[0], truth, r, &out);
    } else {
      const uint64_t coalesced_before = node->coalesced_ticks();
      k0 = NowNs();
      auto r = node->Tick(workload->now());
      k1 = NowNs();
      spans->Add("node.tick", k0, k1, tick_span, tick_id);
      if (!r.ok()) {
        occasion = true;
        answered = false;
        for (size_t i = 0; i < def.queries; ++i) {
          Score(def, eps[i], truth, Result<EngineTickResult>(r.status()),
                &out);
        }
      } else {
        for (size_t i = 0; i < r->size(); ++i) {
          const EngineTickResult& tick = (*r)[i].second;
          occasion = occasion || tick.snapshot_executed;
          answered = answered && tick.has_result;
          Score(def, eps[i], truth, Result<EngineTickResult>(tick), &out);
        }
      }
      w.coalesced_ticks += node->coalesced_ticks() - coalesced_before;
    }
    ++w.sim_ticks;
    if (occasion) ++w.snapshot_ticks;
    out.session_tick_ns += k1 - k0;
    for (auto& auditor : auditors) auditor->RecordTruth(workload->now(), truth);
    spans->End(tick_span);

    if (!measuring) {
      if (answered) {
        const uint64_t now = NowNs();
        out.setup_ns = now - t_start;
        out.first_answer_ns = now - c0;
        measuring = true;
        loop_start = now;
      }
      continue;
    }
    out.loop_tick_ns += k1 - k0;
    out.loop_advance_ns += a1 - a0;
    out.loop_oracle_ns += o1 - a1;
    ++out.loop_sim_ticks;
    out.loop_query_ticks += def.queries;
    (occasion ? out.snapshot_us : out.skip_us)
        .push_back(static_cast<double>(k1 - k0) / 1e3);
  }
  const uint64_t t_end = NowNs();
  if (!measuring) {
    // No tick ever answered every query: the whole session is set-up.
    out.setup_ns = t_end - t_start;
    out.first_answer_ns = t_end - c0;
  } else {
    out.loop_ns = t_end - loop_start;
  }
  spans->End(session_span);

  auto add_stats = [&](const EngineStats& s) {
    w.snapshots += s.snapshots;
    w.total_samples += s.total_samples;
    w.fresh_samples += s.fresh_samples;
  };
  if (engine) {
    add_stats(engine->stats());
  } else {
    for (QueryId id : ids) {
      add_stats(Unwrap(node->engine(id), "DigestNode::engine")->stats());
    }
  }
  for (auto& auditor : auditors) auditor->FinalizeRun();
  w.messages = meter.Total();
  w.walk_hops = meter.walk_hops();
  w.retry_msgs = meter.retries() + meter.losses() + meter.agent_restarts();
  if (instruments) {
    out.diag_batches = diag.batches();
    Result<json::Value> summary = json::Parse(diag.SummaryJson());
    if (summary.ok()) {
      Result<uint64_t> breaches = summary->GetUInt64("breaches");
      if (breaches.ok()) out.diag_breaches = *breaches;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Passes: whole cycles of sub-seed sessions until the budget is spent.

struct Pass {
  std::vector<std::vector<SessionOut>> cycles;  ///< [cycle][sub_seed]
  /// A rerun of sub-seed 0 when only one cycle fit: it exists for the
  /// identical-work check and is left out of every timing.
  std::vector<SessionOut> repeats;
  std::unique_ptr<prof::Profiler> profiler;
  SpanLog spans{false};
};

/// Runs whole cycles of `sub_seeds` sessions: at least one, and more
/// while the next cycle is expected to end within `budget_s`. With
/// `ensure_repeat`, a single cycle is followed by a rerun of sub-seed 0,
/// so the run always repeats some work exactly.
Pass RunPass(const WorkloadDef& def, Size size, uint64_t seed,
             size_t sub_seeds, const Variant& variant, double budget_s,
             bool ensure_repeat) {
  Pass pass;
  pass.spans = SpanLog(variant.traced);
  if (variant.traced) {
    // Phase counters only; the benchmark's own spans carry the timeline.
    pass.profiler = std::make_unique<prof::Profiler>(
        prof::ProfilerOptions{.capture_spans = false});
  }
  const uint64_t start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(budget_s * 1e9);
  uint64_t longest_cycle_ns = 0;
  while (pass.cycles.empty() ||
         NowNs() - start + longest_cycle_ns <= budget_ns) {
    const uint64_t cycle_start = NowNs();
    std::vector<SessionOut> cycle;
    for (size_t k = 0; k < sub_seeds; ++k) {
      cycle.push_back(RunSession(def, size, SeedsFor(seed, k), variant,
                                 pass.profiler.get(), &pass.spans));
    }
    pass.cycles.push_back(std::move(cycle));
    longest_cycle_ns = std::max(longest_cycle_ns, NowNs() - cycle_start);
  }
  if (ensure_repeat && pass.cycles.size() == 1) {
    pass.repeats.push_back(RunSession(def, size, SeedsFor(seed, 0), variant,
                                      pass.profiler.get(), &pass.spans));
  }
  return pass;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of `v` (q in [0, 100]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Sum of one field over every session of a pass.
template <typename F>
double PassSum(const Pass& pass, F field) {
  double sum = 0.0;
  for (const auto& cycle : pass.cycles) {
    for (const SessionOut& s : cycle) sum += static_cast<double>(field(s));
  }
  return sum;
}

/// Work of one whole cycle (identical in every cycle of a pass).
Work CycleWork(const std::vector<SessionOut>& cycle) {
  Work total;
  for (const SessionOut& s : cycle) {
    const Work& w = s.work;
    total.sim_ticks += w.sim_ticks;
    total.query_ticks += w.query_ticks;
    total.snapshots += w.snapshots;
    total.total_samples += w.total_samples;
    total.fresh_samples += w.fresh_samples;
    total.messages += w.messages;
    total.walk_hops += w.walk_hops;
    total.retry_msgs += w.retry_msgs;
    total.failed += w.failed;
    total.degraded += w.degraded;
    total.updates += w.updates;
    total.covered += w.covered;
    total.within += w.within;
    total.snapshot_ticks += w.snapshot_ticks;
    total.coalesced_ticks += w.coalesced_ticks;
  }
  return total;
}

struct Checks {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Every session finite; every repeat of a sub-seed identical to the
/// first cycle (and to `reference` when given: a pass that must do the
/// same work as another).
void CheckPass(const char* label, const Pass& pass, const Pass* reference,
               Checks* checks) {
  const auto& first = pass.cycles.front();
  std::vector<std::vector<SessionOut>> all = pass.cycles;
  all.push_back(pass.repeats);
  for (const auto& cycle : all) {
    for (size_t k = 0; k < cycle.size(); ++k) {
      const SessionOut& s = cycle[k];
      checks->attempted += s.work.query_ticks;
      checks->failed += s.work.failed;
      if (!s.first_error.empty()) {
        std::fprintf(stderr, "perfbench: %s: sub-seed %zu: %llu failed "
                     "query-ticks, first: %s\n", label, k,
                     static_cast<unsigned long long>(s.work.failed),
                     s.first_error.c_str());
      }
      if (!s.finite) {
        checks->Fail(std::string(label) + ": non-finite answer");
      }
      if (!(s.work == first[k].work)) {
        checks->Fail(std::string(label) + ": sub-seed " + std::to_string(k) +
                     " repeat did different work");
      }
      if (reference != nullptr &&
          !(s.work == reference->cycles.front()[k].work)) {
        checks->Fail(std::string(label) + ": sub-seed " + std::to_string(k) +
                     " differs from the untraced base");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB.
}

size_t HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string MetaJson(const WorkloadDef& def, Size size, uint64_t seed,
                     double seconds, int trace, const Pass& base) {
  std::string eps_list;
  for (size_t i = 0; i < def.queries; ++i) {
    if (i > 0) eps_list += ",";
    eps_list += Num(QueryEpsilon(def, i));
  }
  std::string s = "{\"meta\":{";
  s += "\"workload\":" + Quote(def.name);
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"seconds\":" + Num(seconds);
  s += ",\"trace\":" + std::to_string(trace);
  s += ",\"size\":" + Quote(size == Size::kTiny ? "tiny" : "full");
  s += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  s += ",\"compiler\":" + Quote(PERFBENCH_COMPILER);
  s += ",\"nproc\":" + std::to_string(HostThreads());
  s += ",\"loop\":\"closed, one querying peer, ticks back to back\"";
  s += ",\"config\":{";
  if (def.memory) {
    const MemoryConfig m = MemoryFor(size, 0);
    const FaultPlanConfig f = Faults();
    s += "\"dataset\":\"MEMORY\",\"nodes\":" + std::to_string(m.num_nodes);
    s += ",\"units\":" + std::to_string(m.num_units);
    s += ",\"join_rate\":" + Num(m.join_rate);
    s += ",\"leave_rate\":" + Num(m.leave_rate);
    s += ",\"message_loss\":" + Num(f.message_loss);
    s += ",\"agent_drop\":" + Num(f.agent_drop);
    s += ",\"edge_spread\":" + Num(f.edge_spread);
    s += ",\"stall_fraction\":" + Num(f.stall_fraction);
    s += ",\"allow_partial\":true";
    s += ",\"instruments\":[\"audit\",\"diag\",\"health\"]";
  } else {
    const TemperatureConfig t = TemperatureFor(size, 0);
    s += "\"dataset\":\"TEMPERATURE\",\"nodes\":" +
         std::to_string(t.num_nodes);
    s += ",\"units\":" + std::to_string(t.num_units);
    s += ",\"instruments\":[]";
  }
  s += ",\"query\":" + Quote(def.query);
  s += ",\"queries\":" + std::to_string(def.queries);
  s += ",\"scheduler\":\"PRED-3\",\"estimator\":\"RPT\"";
  s += ",\"sampler\":\"two-stage MCMC\",\"num_threads\":0";
  s += ",\"delta\":" + Num(def.delta);
  s += ",\"epsilon\":[" + eps_list + "]";
  s += ",\"p\":" + Num(def.p);
  s += ",\"ticks_per_session\":" + std::to_string(SessionTicks(def, size));
  s += ",\"sessions_per_cycle\":" +
       std::to_string(base.cycles.front().size());
  const Work w = CycleWork(base.cycles.front());
  s += "},\"cycles\":" + std::to_string(base.cycles.size());
  s += ",\"work_per_cycle\":{\"ticks\":" + std::to_string(w.sim_ticks);
  s += ",\"query_ticks\":" + std::to_string(w.query_ticks);
  s += ",\"snapshots\":" + std::to_string(w.snapshots);
  s += ",\"snapshot_ticks\":" + std::to_string(w.snapshot_ticks);
  s += ",\"updates\":" + std::to_string(w.updates);
  s += ",\"samples\":" + std::to_string(w.total_samples);
  s += ",\"messages\":" + std::to_string(w.messages);
  s += ",\"failed\":" + std::to_string(w.failed);
  s += ",\"degraded\":" + std::to_string(w.degraded) + "}";
  // Per session, [Tick seconds, measured-loop seconds], by cycle.
  s += ",\"session_seconds\":[";
  for (size_t c = 0; c < base.cycles.size(); ++c) {
    s += c > 0 ? ",[" : "[";
    for (size_t k = 0; k < base.cycles[c].size(); ++k) {
      const SessionOut& session = base.cycles[c][k];
      s += (k > 0 ? ",[" : "[") +
           Num(static_cast<double>(session.loop_tick_ns) / 1e9) + "," +
           Num(static_cast<double>(session.loop_ns) / 1e9) + "]";
    }
    s += "]";
  }
  s += "]}}";
  return s;
}

std::string ResultJson(const Checks& checks,
                       const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += checks.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(checks.attempted);
  s += ", \"failed\": " + std::to_string(checks.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
         ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  s += "}}";
  return s;
}

// ---------------------------------------------------------------------
// End-to-end metrics (--trace 0).

std::vector<Metric> EndToEnd(const Pass& base, Checks* checks) {
  std::vector<double> setup;
  for (const auto& cycle : base.cycles) {
    for (const SessionOut& s : cycle) {
      setup.push_back(static_cast<double>(s.setup_ns) / 1e9);
    }
  }
  const Work w = CycleWork(base.cycles.front());
  const double answer_rate = Div(
      PassSum(base, [](const SessionOut& s) { return s.loop_query_ticks; }),
      PassSum(base, [](const SessionOut& s) { return s.loop_tick_ns; }) / 1e9);
  const double sim_rate = Div(
      PassSum(base, [](const SessionOut& s) { return s.loop_sim_ticks; }),
      PassSum(base, [](const SessionOut& s) { return s.loop_ns; }) / 1e9);
  std::vector<double> snapshot_us;
  for (const auto& cycle : base.cycles) {
    for (const SessionOut& s : cycle) {
      snapshot_us.insert(snapshot_us.end(), s.snapshot_us.begin(),
                         s.snapshot_us.end());
    }
  }
  const double qt = static_cast<double>(w.query_ticks);
  const double coverage = Div(static_cast<double>(w.covered),
                              static_cast<double>(w.updates));
  const double within = Div(static_cast<double>(w.within), qt);
  // Gross sanity: an engine whose answers sit outside ε + δ of the
  // oracle on most ticks is broken, whatever its speed.
  if (within < 0.5) {
    checks->Fail("within_tol_frac " + Num(within) + " < 0.5");
  }
  if (w.updates == 0) checks->Fail("no result-update ticks to score");
  return {
      {"setup_s", Median(setup), "s"},
      {"answer_ticks_per_s", answer_rate, "query-ticks/s"},
      {"sim_ticks_per_s", sim_rate, "ticks/s"},
      {"snapshot_p50_us", Percentile(snapshot_us, 50), "us"},
      {"snapshot_p95_us", Percentile(snapshot_us, 95), "us"},
      {"msgs_per_tick",
       Div(static_cast<double>(w.messages), static_cast<double>(w.sim_ticks)),
       "msgs"},
      {"coverage", coverage, "fraction"},
      {"within_tol_frac", within, "fraction"},
      {"answered_tick_frac", 1.0 - Div(static_cast<double>(w.failed), qt),
       "fraction"},
      {"undegraded_tick_frac", 1.0 - Div(static_cast<double>(w.degraded), qt),
       "fraction"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// ---------------------------------------------------------------------
// Per-layer metrics (--trace 1).

/// Mean Tick time of one cycle of a pass (ns).
double CycleTickNs(const Pass& pass) {
  return PassSum(pass, [](const SessionOut& s) { return s.session_tick_ns; }) /
         static_cast<double>(pass.cycles.size());
}

std::vector<Metric> PerLayer(const WorkloadDef& def, const Pass& base,
                             const Pass& traced, const Pass& flipped,
                             const Pass& parallel) {
  const prof::Profiler& prof = *traced.profiler;
  auto phase_ns = [&](prof::Phase p) {
    return static_cast<double>(prof.stats(p).total_ns);
  };
  auto phase_items = [&](prof::Phase p) {
    return static_cast<double>(prof.stats(p).items);
  };
  // Work and loop timings summed over the traced pass.
  Work w;
  double loop_ns = 0, loop_tick_ns = 0, loop_advance_ns = 0,
         loop_oracle_ns = 0, loop_sim_ticks = 0;
  std::vector<double> build_ms, first_answer_ms, snapshot_us, skip_us;
  for (const auto& cycle : traced.cycles) {
    const Work cw = CycleWork(cycle);
    w.sim_ticks += cw.sim_ticks;
    w.snapshots += cw.snapshots;
    w.total_samples += cw.total_samples;
    w.fresh_samples += cw.fresh_samples;
    w.messages += cw.messages;
    w.walk_hops += cw.walk_hops;
    w.retry_msgs += cw.retry_msgs;
    w.snapshot_ticks += cw.snapshot_ticks;
    w.coalesced_ticks += cw.coalesced_ticks;
    for (const SessionOut& s : cycle) {
      loop_ns += static_cast<double>(s.loop_ns);
      loop_tick_ns += static_cast<double>(s.loop_tick_ns);
      loop_advance_ns += static_cast<double>(s.loop_advance_ns);
      loop_oracle_ns += static_cast<double>(s.loop_oracle_ns);
      loop_sim_ticks += static_cast<double>(s.loop_sim_ticks);
      build_ms.push_back(static_cast<double>(s.build_ns) / 1e6);
      first_answer_ms.push_back(static_cast<double>(s.first_answer_ns) / 1e6);
      snapshot_us.insert(snapshot_us.end(), s.snapshot_us.begin(),
                         s.snapshot_us.end());
      skip_us.insert(skip_us.end(), s.skip_us.begin(), s.skip_us.end());
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return Div(sum, static_cast<double>(v.size()));
  };
  const double snaps = static_cast<double>(w.snapshots);
  const double engine_ns = phase_ns(prof::Phase::kEngineTick);
  const double batch_ns = phase_ns(prof::Phase::kWalkBatch);
  const double advance_ns = phase_ns(prof::Phase::kWalkAdvance);

  // The pass with audit + diag on, and the one with them off.
  const Pass& instr_on = def.memory ? base : flipped;
  const Pass& instr_off = def.memory ? flipped : base;
  uint64_t diag_batches = 0, diag_breaches = 0;
  for (const SessionOut& s : instr_on.cycles.front()) {
    diag_batches += s.diag_batches;
    diag_breaches += s.diag_breaches;
  }
  const double base_tick_ns = CycleTickNs(base);

  return {
      {"workload.build_ms", Median(build_ms), "ms"},
      {"workload.advance_us_per_tick", Div(loop_advance_ns / 1e3,
                                           loop_sim_ticks), "us"},
      {"db.oracle_us_per_tick", Div(loop_oracle_ns / 1e3, loop_sim_ticks),
       "us"},
      {"core.first_answer_ms", Median(first_answer_ms), "ms"},
      {"core.snapshot_tick_us", mean(snapshot_us), "us"},
      {"core.skip_tick_us", mean(skip_us), "us"},
      {"core.estimator_self_us_per_snapshot",
       Div((phase_ns(prof::Phase::kEstimatorEvaluate) - batch_ns) / 1e3,
           snaps),
       "us"},
      {"core.pred_us_per_snapshot",
       Div((phase_ns(prof::Phase::kExtrapolatorFit) +
            phase_ns(prof::Phase::kExtrapolatorPredict)) /
               1e3,
           snaps),
       "us"},
      {"core.snapshots_per_tick", Div(snaps, static_cast<double>(w.sim_ticks)),
       "snapshots"},
      {"core.samples_per_snapshot",
       Div(static_cast<double>(w.total_samples), snaps), "samples"},
      {"core.fresh_sample_frac",
       Div(static_cast<double>(w.fresh_samples),
           static_cast<double>(w.total_samples)),
       "fraction"},
      {"node.coalesced_tick_frac",
       Div(static_cast<double>(w.coalesced_ticks),
           static_cast<double>(w.snapshot_ticks)),
       "fraction"},
      {"sampling.walk_share", Div(batch_ns, engine_ns), "fraction"},
      {"sampling.ns_per_hop",
       Div(advance_ns, phase_items(prof::Phase::kWalkAdvance)), "ns"},
      // One walk per fresh sample: walk_advance calls count the walks.
      {"sampling.ns_per_sample",
       Div(batch_ns,
           static_cast<double>(prof.stats(prof::Phase::kWalkAdvance).calls)),
       "ns"},
      {"sampling.batch_overhead_share",
       Div(batch_ns - advance_ns, batch_ns), "fraction"},
      {"sampling.hops_per_sample",
       Div(static_cast<double>(w.walk_hops),
           static_cast<double>(w.fresh_samples)),
       "hops"},
      {"sampling.msgs_per_sample",
       Div(static_cast<double>(w.messages),
           static_cast<double>(w.total_samples)),
       "msgs"},
      {"net.retry_msg_frac",
       Div(static_cast<double>(w.retry_msgs), static_cast<double>(w.messages)),
       "fraction"},
      {"net.fault_draw_share",
       Div(phase_ns(prof::Phase::kFaultDraw), engine_ns), "fraction"},
      {"instr.overhead_ratio",
       Div(CycleTickNs(instr_on), CycleTickNs(instr_off)), "ratio"},
      {"diag.breach_batch_frac",
       Div(static_cast<double>(diag_breaches),
           static_cast<double>(diag_batches)),
       "fraction"},
      {"exec.parallel_speedup", Div(base_tick_ns, CycleTickNs(parallel)),
       "ratio"},
      {"trace.overhead_ratio", Div(CycleTickNs(traced), base_tick_ns),
       "ratio"},
      {"unattributed_share",
       Div(loop_ns - loop_tick_ns - loop_advance_ns - loop_oracle_ns, loop_ns),
       "fraction"},
  };
}

void WriteTraceFiles(const std::string& dir, const std::string& meta,
                     const Pass& traced, const std::vector<Metric>& layers) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream f(dir + "/spans.json");
    f << "{\"clock\":\"steady_ns\",\"spans\":[\n";
    const auto& spans = traced.spans.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      f << (i > 0 ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"tick\":" << s.tick << "}";
    }
    f << "\n]}\n";
  }
  {
    std::ofstream f(dir + "/profile.json");
    f << traced.profiler->ToJson() << "\n";
  }
  {
    std::ofstream f(dir + "/layers.txt");
    f << meta << "\n";
    for (const Metric& m : layers) {
      char line[160];
      std::snprintf(line, sizeof line, "%-40s %16.6g %s\n", m.name.c_str(),
                    m.value, m.unit);
      f << line;
    }
  }
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  Size size = Size::kFull;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--size") {
      size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadDef* def = FindWorkload(workload_name);
  if (def == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "temp_node_8q|mem_churn_faults --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny]\n");
    return 2;
  }

  Checks checks;
  std::vector<Metric> metrics;
  std::string meta;
  if (trace == 0) {
    const Pass base =
        RunPass(*def, size, seed, def->sub_seeds, Variant{}, seconds, true);
    CheckPass("base", base, nullptr, &checks);
    metrics = EndToEnd(base, &checks);
    meta = MetaJson(*def, size, seed, seconds, trace, base);
  } else {
    const double share = seconds / 4.0;
    const size_t k = def->traced_sub_seeds;
    const Pass base =
        RunPass(*def, size, seed, k, Variant{}, share, false);
    Variant traced_v;
    traced_v.traced = true;
    const Pass traced =
        RunPass(*def, size, seed, k, traced_v, share, false);
    Variant flipped_v;
    flipped_v.flip_instruments = true;
    const Pass flipped =
        RunPass(*def, size, seed, k, flipped_v, share, false);
    Variant parallel_v;
    parallel_v.num_threads = std::min<size_t>(4, HostThreads());
    const Pass parallel =
        RunPass(*def, size, seed, k, parallel_v, share, false);
    CheckPass("base", base, nullptr, &checks);
    CheckPass("traced", traced, &base, &checks);
    CheckPass("instruments", flipped, &base, &checks);
    CheckPass("parallel", parallel, nullptr, &checks);
    metrics = PerLayer(*def, base, traced, flipped, parallel);
    meta = MetaJson(*def, size, seed, seconds, trace, base);
    WriteTraceFiles(std::string(".bench_out/") + def->name, meta, traced,
                    metrics);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) checks.Fail(m.name + " is not finite");
  }
  for (const std::string& problem : checks.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n%s\n", meta.c_str(), ResultJson(checks, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace digest

int main(int argc, char** argv) { return digest::Main(argc, argv); }
