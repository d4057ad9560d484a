#include "sampling/sampling_operator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "diag/diag.h"
#include "exec/worker_pool.h"
#include "net/peer_health.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "prof/profiler.h"

namespace digest {
namespace {

size_t AutoLength(size_t node_count, double factor, bool squared) {
  const double ln_n = std::log(std::max<size_t>(node_count, 2));
  const double raw = squared ? factor * ln_n * ln_n : factor * ln_n;
  return static_cast<size_t>(std::ceil(std::max(raw, 1.0)));
}

// Registry digests of one completed (or timed-out) batch. Buckets are
// fixed so dumps from different runs aggregate cleanly.
void ObserveBatch(obs::Registry* registry, const WalkTelemetry& telemetry,
                  size_t samples, bool timed_out) {
  if (registry == nullptr) return;
  registry->GetCounter("walk.batches")->Increment();
  registry->GetCounter("walk.samples")->Increment(samples);
  if (timed_out) registry->GetCounter("walk.timeouts")->Increment();
  registry->GetCounter("walk.agent_restarts")->Increment(telemetry.drops);
  // Metropolis decision counters, reconcilable against MessageMeter:
  // every proposal sent one weight probe, every accepted move sent one
  // walk-hop message (obs_reconcile_test holds both equalities on a
  // static fault-free overlay).
  registry->GetCounter("walk.proposals")->Increment(telemetry.proposals);
  registry->GetCounter("walk.accepted")->Increment(telemetry.accepted);
  registry->GetCounter("walk.rejected")
      ->Increment(telemetry.proposals - telemetry.accepted);
  // Hedge counters only materialize once a hedge fires, so metric dumps
  // of non-hedged runs are byte-identical to the pre-hedge layout.
  if (telemetry.hedges > 0) {
    registry->GetCounter("walk.hedges")->Increment(telemetry.hedges);
    registry->GetCounter("walk.hedge_wins")->Increment(telemetry.hedge_wins);
  }
  if (telemetry.proposals > 0) {
    registry
        ->GetHistogram("walk.acceptance_rate",
                       obs::LinearBuckets(0.0, 1.0, 11))
        ->Observe(static_cast<double>(telemetry.accepted) /
                  static_cast<double>(telemetry.proposals));
  }
  if (samples > 0) {
    registry
        ->GetHistogram("walk.hops_per_sample",
                       obs::ExponentialBuckets(1.0, 2.0, 16))
        ->Observe(static_cast<double>(telemetry.attempts) /
                  static_cast<double>(samples));
  }
  registry
      ->GetHistogram("walk.retry_latency_ticks",
                     obs::ExponentialBuckets(1.0, 4.0, 12))
      ->Observe(static_cast<double>(telemetry.backoff_units));
}

// Sums every per-walk telemetry counter into the batch aggregate (the
// walk-index-ordered merge).
void MergeTelemetry(WalkTelemetry& into, const WalkTelemetry& from) {
  into.attempts += from.attempts;
  into.retries += from.retries;
  into.losses += from.losses;
  into.drops += from.drops;
  into.abandoned += from.abandoned;
  into.stale_probes += from.stale_probes;
  into.stalled_steps += from.stalled_steps;
  into.proposals += from.proposals;
  into.accepted += from.accepted;
  into.backoff_units += from.backoff_units;
  into.hedges += from.hedges;
  into.hedge_wins += from.hedge_wins;
}

}  // namespace

SamplingOperator::SamplingOperator(const Graph* graph, WeightFn weight,
                                   Rng rng, MessageMeter* meter,
                                   SamplingOperatorOptions options)
    : graph_(graph),
      weight_(std::move(weight)),
      rng_(rng),
      meter_(meter),
      options_(options) {
  context_.set_retry(options_.retry);
}

SamplingOperator::~SamplingOperator() = default;

size_t SamplingOperator::EffectiveWalkLength() const {
  if (options_.walk_length > 0) return options_.walk_length;
  return AutoLength(graph_->NodeCount(), options_.mixing_factor,
                    /*squared=*/true);
}

size_t SamplingOperator::EffectiveResetLength() const {
  if (options_.reset_length > 0) return options_.reset_length;
  return AutoLength(graph_->NodeCount(), options_.reset_factor,
                    /*squared=*/false);
}

Status HedgePolicy::Validate() const {
  if (!(straggler_factor >= 1.0)) {
    return Status::InvalidArgument("straggler_factor must be >= 1");
  }
  if (min_observations < 1) {
    return Status::InvalidArgument("min_observations must be >= 1");
  }
  return Status::OK();
}

uint64_t SamplingOperator::HedgeThreshold(size_t steps) const {
  if (!options_.hedge.enabled || faults_ == nullptr) return 0;
  if (done_walks_ < options_.hedge.min_observations || done_steps_ == 0) {
    return 0;
  }
  // Expected attempts for this agent = planned steps × the observed mean
  // attempts-per-step of completed walks (>= 1: a step costs at least
  // one attempt). Integer ceil keeps the threshold deterministic.
  const double mean_per_step =
      std::max(1.0, static_cast<double>(done_attempts_) /
                        static_cast<double>(done_steps_));
  return static_cast<uint64_t>(
      std::ceil(options_.hedge.straggler_factor * mean_per_step *
                static_cast<double>(steps)));
}

// One walk of a batch: everything it produces, written only by the
// thread that runs it and read back by the walk-index-ordered merge.
// Slots are reused across batches, so once their buffers have grown the
// steady state does no per-walk heap allocation.
struct SamplingOperator::WalkSlot {
  size_t steps = 0;  // Planned steps (feeds the hedge statistics).
  NodeId final_pos = 0;
  WalkIo io;  // Telemetry, plus pointers to the buffers below.
  MessageMeter meter;
  diag::WalkDiagBuffer diag;
  WalkHealthBuffer health;
  obs::BufferTracer trace;
  uint64_t fault_losses = 0;
  uint64_t fault_drops = 0;
  uint64_t fault_stale = 0;
  bool timed_out = false;  // Self-capped at the pooled budget.
};

Result<PartialBatch> SamplingOperator::SampleNodes(NodeId origin, size_t n) {
  // DESIGN.md "Parallel execution & determinism model". Every source of
  // randomness, fault injection, accounting, and tracing is keyed by
  // WALK INDEX and lands in the walk's slot; a walk never touches shared
  // state, and the slots merge in walk-index order once all walks have
  // run. num_threads <= 1 runs the walks inline on the calling thread,
  // >= 2 on the worker pool: the same kernel and the same merge, so
  // every output is bit-identical at any num_threads by construction.
  prof::ScopedTimer batch_timer(instruments_.profiler,
                                prof::Phase::kWalkBatch);
  if (graph_->NodeCount() == 0) {
    return Status::FailedPrecondition("cannot sample an empty network");
  }
  NodeId fallback = origin;
  if (!graph_->HasNode(fallback)) {
    DIGEST_ASSIGN_OR_RETURN(fallback, graph_->RandomLiveNode(rng_));
  }
  last_telemetry_ = WalkTelemetry();
  // Quarantine view, frozen before any walk launches: every walk in
  // this batch routes against the same breaker snapshot, and outcome
  // folds (which may flip breakers) happen only in the merge.
  const QuarantineView health_view =
      health_ != nullptr ? health_->SnapshotView() : QuarantineView();
  // The walk kernel's read-only snapshot (DESIGN.md "Walk kernel"):
  // adjacency rebuilt only if the graph churned since the last batch,
  // weights, quarantine routing and draw thresholds refreshed now.
  // Nothing writes it until the next batch, so the pool's threads share
  // it unsynchronized.
  context_.Refresh(*graph_, weight_,
                   health_ != nullptr ? &health_view : nullptr);
  context_.set_fallback(fallback);
  const size_t warm = options_.warm_walks ? std::min(n, agents_.size()) : 0;
  const size_t walk_len = EffectiveWalkLength();
  const size_t reset_len = EffectiveResetLength();
  // Batch attempt budget, provisioned up front: a batch planned to take
  // S hops total may spend at most ceil(hop_budget_factor · S) attempt
  // units (hops, retries, and backoff delays) before it times out. The
  // budget is pooled across the whole batch so one unlucky agent (e.g.
  // repeatedly dropped mid-walk) can borrow slack from the others.
  uint64_t budget = 0;
  if (faults_ != nullptr) {
    const uint64_t planned =
        static_cast<uint64_t>(warm) * reset_len +
        static_cast<uint64_t>(n - warm) * walk_len;
    budget = static_cast<uint64_t>(std::ceil(
        options_.retry.hop_budget_factor * static_cast<double>(planned)));
  }
  const bool tracing = obs::Tracing(instruments_.tracer);
  if (tracing) {
    instruments_.tracer->Emit(
        obs::WalkBatchEvent{n, warm, walk_len, reset_len, budget});
  }

  // The batch key is the ONLY draw this batch takes from the operator's
  // stream: walk i's randomness comes from Split(2i) of an rng seeded by
  // the key, its fault substream key from Split(2i+1) — pure functions
  // of (stream state, i), identical on any thread and schedule.
  const Rng substream_base(rng_.NextU64());
  if (slots_.size() < n) slots_.resize(n);

  // The per-walk kernel. It reads only start-of-batch state (agent
  // positions, hedge statistics, the walk context), which nothing
  // mutates until the merge.
  const auto run_walk = [&](size_t i, prof::Track* track) -> Status {
    WalkSlot& out = slots_[i];
    out.meter.Reset();
    out.diag.Clear();
    out.health.Clear();
    out.trace.payloads().clear();
    out.timed_out = false;
    WalkIo& io = out.io;
    io = WalkIo();
    io.meter = meter_ != nullptr ? &out.meter : nullptr;
    io.diag = instruments_.diag != nullptr ? &out.diag : nullptr;
    io.health = health_ != nullptr ? &out.health : nullptr;
    WalkTelemetry& telemetry = io.telemetry;
    const bool is_warm = i < warm;
    out.steps = is_warm ? reset_len : walk_len;
    Rng walk_rng = substream_base.Split(2 * i);
    RandomWalk agent(is_warm ? agents_[i].current() : fallback,
                     options_.laziness);
    // One agent's stepping to convergence (cold mix or warm reset);
    // items count the attempted hops.
    prof::ScopedTrackTimer advance_timer(track, prof::Phase::kWalkAdvance);
    if (faults_ == nullptr) {
      advance_timer.AddItems(out.steps);
      DIGEST_RETURN_IF_ERROR(
          agent.Advance(context_, walk_rng, io, out.steps));
      out.final_pos = agent.current();
      return Status::OK();
    }
    FaultPlan sub = faults_->SpawnSubstream(
        substream_base.Split(2 * i + 1).NextU64());
    io.faults = &sub;
    if (tracing) sub.SetTracer(&out.trace);
    if (faults_->profiler() != nullptr) sub.SetTrack(track);
    const uint64_t threshold = HedgeThreshold(out.steps);
    size_t remaining = out.steps;
    // Hedge race state: once the primary agent overruns the straggler
    // threshold, a redundant walk races it in virtual time (consumed
    // attempt units — the deterministic stand-in for wall clock). Each
    // round the walker that has spent fewer attempt units since the
    // launch steps next, so a primary burning retries in a lossy
    // neighborhood yields turns to a cheaply-progressing hedge, just as
    // two parallel walks would resolve in a real overlay.
    RandomWalk hedge(fallback, options_.laziness);
    size_t hedge_remaining = 0;
    bool hedged = false;
    uint64_t primary_spent = 0;  // Attempt units since the hedge launch.
    uint64_t hedge_spent = 0;
    while (remaining > 0) {
      if (!hedged && threshold > 0 && telemetry.attempts >= threshold) {
        // Straggler detected: launch the redundant walk. Injecting the
        // agent costs one message; its hops are charged as ordinary
        // walk hops as it steps. The duplicate forks from walk i-1's
        // start-of-batch agent when that agent is warm and live —
        // already mixed, so a reset suffices, and in a different
        // neighborhood than wherever the straggler is stuck — and
        // otherwise walks cold from the origin.
        hedged = true;
        const bool warm_donor = i > 0 && i <= warm &&
                                context_.Live(agents_[i - 1].current());
        hedge = RandomWalk(warm_donor ? agents_[i - 1].current() : fallback,
                           options_.laziness);
        hedge_remaining = warm_donor ? reset_len : walk_len;
        primary_spent = 0;
        hedge_spent = 0;
        ++telemetry.hedges;
        if (io.meter != nullptr) io.meter->AddHedgeLaunch();
        if (tracing) {
          out.trace.Emit(
              obs::WalkHedgedEvent{i, telemetry.attempts, threshold});
        }
      }
      advance_timer.AddItems(1);
      if (telemetry.attempts >= budget) {
        // This walk alone exhausted the pooled budget; whether the
        // BATCH times out is decided at the merge, in index order.
        out.timed_out = true;
        break;
      }
      const bool step_hedge = hedged && hedge_spent <= primary_spent;
      RandomWalk* walker = step_hedge ? &hedge : &agent;
      size_t* walker_remaining = step_hedge ? &hedge_remaining : &remaining;
      const uint64_t drops_before = telemetry.drops;
      const uint64_t attempts_before = telemetry.attempts;
      DIGEST_RETURN_IF_ERROR(walker->Step(context_, walk_rng, io));
      if (io.diag != nullptr) io.diag->RecordVisit(walker->current());
      const uint64_t spent = telemetry.attempts - attempts_before;
      if (step_hedge) {
        hedge_spent += spent;
      } else if (hedged) {
        primary_spent += spent;
      }
      if (telemetry.drops > drops_before) {
        // The walker was lost in transit and re-injected at the
        // origin: it must re-mix from cold before its position counts.
        *walker_remaining = walk_len;
        if (tracing) out.trace.Emit(obs::AgentRestartEvent{i});
      } else {
        --*walker_remaining;
      }
      if (hedged && hedge_remaining == 0) {
        // The hedge finished first in virtual time: its position
        // becomes the warm agent and the straggling primary is
        // abandoned mid-walk, its remaining hops never sent.
        agent = hedge;
        ++telemetry.hedge_wins;
        break;
      }
    }
    // The race resolved: the losing walk's eventual delivery is
    // suppressed at the originator — bandwidth spent, no sample.
    if (hedged && !out.timed_out && io.meter != nullptr) {
      io.meter->AddHedgedDuplicate();
    }
    io.faults = nullptr;  // `sub` dies with this call.
    out.fault_losses = sub.losses_injected();
    out.fault_drops = sub.drops_injected();
    out.fault_stale = sub.stale_injected();
    out.final_pos = agent.current();
    return Status::OK();
  };

  // Like the pool, the inline loop runs every walk and reports the
  // lowest-index failure. Worker wall time folds into the profiler only
  // after the walks; its calls and items are per-walk counts, so they
  // are schedule-independent.
  Status walk_status;
  if (options_.num_threads <= 1) {
    prof::Track track(instruments_.profiler);
    for (size_t i = 0; i < n; ++i) {
      const Status status = run_walk(i, &track);
      if (walk_status.ok()) walk_status = status;
    }
    if (instruments_.profiler != nullptr) {
      instruments_.profiler->FoldTrack(0, track);
    }
  } else {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<exec::WorkerPool>(options_.num_threads);
    }
    std::vector<prof::Track> tracks(pool_->num_threads(),
                                    prof::Track(instruments_.profiler));
    walk_status = pool_->ParallelFor(n, [&](size_t i, size_t worker) {
      return run_walk(i, &tracks[worker]);
    });
    if (instruments_.profiler != nullptr) {
      for (size_t w = 0; w < tracks.size(); ++w) {
        instruments_.profiler->FoldTrack(w, tracks[w]);
      }
    }
  }
  DIGEST_RETURN_IF_ERROR(walk_status);

  // Ordered merge: accept walks in index order until the pooled budget
  // is crossed. Each accepted or charged walk commits its meter counts,
  // fault injections, buffered trace events (stamped with lane = walk
  // index), telemetry, and final agent position. The walk that crosses
  // the budget is charged (bandwidth was spent) but delivers no sample
  // only if it alone exhausted the budget; the walks after the crossing
  // are discarded as if they had never launched, their agents keeping
  // their start-of-batch positions.
  std::vector<NodeId> out;
  out.reserve(n);
  uint64_t cum_attempts = 0;
  bool cut = false;
  for (size_t i = 0; i < n; ++i) {
    if (faults_ != nullptr && cum_attempts >= budget) {
      cut = true;
      break;
    }
    WalkSlot& o = slots_[i];
    if (meter_ != nullptr) meter_->Merge(o.meter);
    if (faults_ != nullptr) {
      faults_->AbsorbInjections(o.fault_losses, o.fault_drops,
                                o.fault_stale);
    }
    if (tracing) {
      for (obs::EventPayload& payload : o.trace.payloads()) {
        instruments_.tracer->EmitLane(std::move(payload),
                                      static_cast<int64_t>(i));
      }
    }
    MergeTelemetry(last_telemetry_, o.io.telemetry);
    if (i < agents_.size()) {
      agents_[i] = RandomWalk(o.final_pos, options_.laziness);
    } else {
      agents_.emplace_back(o.final_pos, options_.laziness);
    }
    if (o.timed_out) {
      cut = true;
      break;
    }
    out.push_back(o.final_pos);
    if (instruments_.diag != nullptr) instruments_.diag->FoldWalk(o.diag);
    if (health_ != nullptr) health_->FoldWalk(o.health);
    cum_attempts += o.io.telemetry.attempts;
    if (faults_ != nullptr) {
      // Completed-walk statistics feed later batches' straggler
      // thresholds.
      ++done_walks_;
      done_attempts_ += o.io.telemetry.attempts;
      done_steps_ += o.steps;
    }
    // The agent reports the sampled node back to the originator.
    if (meter_ != nullptr) meter_->AddSampleTransfer();
  }

  if (cut) {
    // Hop budget exhausted: the overlay is too lossy or stalled to
    // finish this batch in time. Hand back what completed, flagged; the
    // caller degrades on it or finalizes a partial snapshot from it.
    if (tracing) {
      instruments_.tracer->Emit(
          obs::HopBudgetExhaustedEvent{last_telemetry_.attempts, budget});
    }
  } else {
    if (!options_.warm_walks) agents_.clear();
    if (tracing) {
      if (last_telemetry_.stalled_steps > 0) {
        instruments_.tracer->Emit(
            obs::FaultStallEvent{last_telemetry_.stalled_steps});
      }
      instruments_.tracer->Emit(obs::WalkBatchDoneEvent{
          out.size(), last_telemetry_.attempts, last_telemetry_.retries,
          last_telemetry_.losses, last_telemetry_.drops,
          last_telemetry_.stalled_steps, last_telemetry_.hedges,
          last_telemetry_.hedge_wins});
    }
  }
  ObserveBatch(instruments_.registry, last_telemetry_, out.size(), cut);
  if (instruments_.diag != nullptr) {
    instruments_.diag->FinishBatch(
        context_, last_telemetry_.proposals, last_telemetry_.accepted,
        instruments_.tracer, instruments_.registry);
  }
  if (health_ != nullptr) health_->FinishBatch(graph_->NodeCount());
  return PartialBatch{std::move(out), cut};
}

SamplingOperator::State SamplingOperator::SaveState() const {
  State state;
  state.agent_positions.reserve(agents_.size());
  for (const RandomWalk& agent : agents_) {
    state.agent_positions.push_back(agent.current());
  }
  state.rng = rng_.SaveState();
  state.done_walks = done_walks_;
  state.done_attempts = done_attempts_;
  state.done_steps = done_steps_;
  return state;
}

void SamplingOperator::RestoreState(const State& state) {
  agents_.clear();
  agents_.reserve(state.agent_positions.size());
  for (NodeId position : state.agent_positions) {
    agents_.emplace_back(position, options_.laziness);
  }
  rng_.RestoreState(state.rng);
  done_walks_ = state.done_walks;
  done_attempts_ = state.done_attempts;
  done_steps_ = state.done_steps;
  last_telemetry_ = WalkTelemetry();
}

}  // namespace digest
