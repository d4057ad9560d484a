#include "sampling/random_walk.h"

#include "diag/diag.h"
#include "net/peer_health.h"
#include "sampling/metropolis.h"

namespace digest {
namespace {

// Saturating add for the telemetry budget counters: BackoffCost already
// saturates at SIZE_MAX, and a saturated cost added to a running total
// must pin at the ceiling rather than wrap past it.
uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return UINT64_MAX;
  return sum;
}

// Delivers one message over (from, to) under faults, retransmitting
// with exponential backoff. The first transmission is pre-charged by
// the caller in its own meter category (probe/hop); this helper charges
// only the recovery traffic: one retry message per retransmission, plus
// the backoff delay in budget units. Returns false when the message is
// abandoned after RetryPolicy::max_attempts sends (or the receiver is
// blackholed and every send goes unanswered). Every transmission's
// (receiver, delivered) outcome lands in `health` (may be null) — the
// raw evidence the peer-health monitor accrues suspicion from.
bool TryDeliver(FaultPlan& faults, const RetryPolicy& retry, NodeId from,
                NodeId to, MessageMeter* meter, WalkTelemetry& telemetry,
                WalkHealthBuffer* health) {
  const bool blackholed = faults.IsBlackholed(to);
  for (size_t attempt = 1;; ++attempt) {
    const bool lost = blackholed || faults.LoseMessage(from, to);
    if (!lost) {
      if (health != nullptr) health->RecordSuccess(to);
      return true;
    }
    if (health != nullptr) health->RecordFailure(to);
    if (meter != nullptr) meter->AddLoss();
    ++telemetry.losses;
    if (attempt >= retry.max_attempts) return false;
    // Retransmit after the deterministic backoff delay. A cost that
    // saturated to UINT64_MAX is a wait no hop budget could ever
    // afford: abandon the message instead of retransmitting, so an
    // adversarial max_attempts cannot turn total loss into an
    // unbounded retry loop (the budget check lives between steps).
    const uint64_t cost = retry.BackoffCost(attempt);
    if (cost == UINT64_MAX) return false;
    if (meter != nullptr) meter->AddRetry();
    ++telemetry.retries;
    telemetry.attempts = SatAdd(telemetry.attempts, cost);
    telemetry.backoff_units = SatAdd(telemetry.backoff_units, cost);
  }
}

}  // namespace

Status RandomWalk::Step(const WalkContext& context, Rng& rng, WalkIo& io) {
  WalkTelemetry& telemetry = io.telemetry;
  MessageMeter* const meter = io.meter;
  FaultPlan* const faults = io.faults;
  WalkHealthBuffer* const health = io.health;
  ++telemetry.attempts;
  if (!context.Live(current_)) {
    // The node hosting the agent left the network; the originator
    // restarts the agent (one message to re-inject it).
    if (!context.Live(context.fallback())) {
      return Status::Unavailable("walk origin left the network");
    }
    current_ = context.fallback();
    if (meter != nullptr) meter->AddWalkHop();
  }
  if (faults != nullptr && faults->IsBlackholed(current_)) {
    // The host is stalled: the agent is frozen until the node wakes up.
    // A frozen step is also health evidence against the host.
    ++telemetry.stalled_steps;
    if (health != nullptr) health->RecordFailure(current_);
    return Status::OK();
  }
  // Laziness: self-loop with the configured probability, free of
  // messages (½ in the paper, Eq. 12's prefactor).
  if (laziness_ > 0.0 && rng.NextBernoulli(laziness_)) {
    return Status::OK();
  }
  const WalkContext::Row& here = context.row(current_);
  if (here.bound == 0) {
    // Isolated node (transiently possible under churn), or every
    // neighbor is quarantined: hold position this step (the next batch
    // routes against a fresh view).
    return Status::OK();
  }
  // The proposal is uniform over the node's support: all neighbors, or
  // under a non-empty quarantine view the live (non-quarantined) ones,
  // whose live degrees are then both corrections below.
  const NodeId* neighbors = context.neighbors(here);
  uint64_t pick = rng.NextIndex(here.bound, here.threshold);
  NodeId proposal = kInvalidNode;
  if (!context.routed()) {
    proposal = neighbors[pick];
  } else {
    for (uint32_t k = 0; k < here.degree; ++k) {
      if (context.row(neighbors[k]).quarantined) continue;
      if (pick == 0) {
        proposal = neighbors[k];
        break;
      }
      --pick;
    }
  }
  // Probing the neighbor's weight costs one message (charged whether or
  // not the transmission survives — the sender pays for the send).
  if (meter != nullptr) meter->AddWeightProbe();
  ++telemetry.proposals;
  if (io.diag != nullptr) io.diag->RecordProbe(current_, proposal);
  if (faults != nullptr) {
    if (!TryDeliver(*faults, context.retry(), current_, proposal, meter,
                    telemetry, health)) {
      // Probe never answered within the retry budget: abandon the
      // transition, the agent stays put.
      ++telemetry.abandoned;
      return Status::OK();
    }
  } else if (health != nullptr) {
    health->RecordSuccess(proposal);
  }
  const WalkContext::Row& there = context.row(proposal);
  double proposal_weight = there.weight;
  if (faults != nullptr && faults->StaleProbe()) {
    // The probe was answered from a stale cache: the acceptance test
    // sees a distorted weight. The chain's target distribution bends
    // accordingly — degradation the widened intervals account for.
    proposal_weight = faults->DistortWeight(proposal_weight);
    ++telemetry.stale_probes;
  }
  const double accept = MetropolisAcceptance(here.weight, here.bound,
                                             proposal_weight, there.bound);
  if (rng.NextBernoulli(accept)) {
    if (meter != nullptr) meter->AddWalkHop();
    ++telemetry.accepted;
    if (io.diag != nullptr) io.diag->RecordHop(current_, proposal);
    if (faults != nullptr) {
      if (!TryDeliver(*faults, context.retry(), current_, proposal, meter,
                      telemetry, health)) {
        // Forward message abandoned: the agent never left.
        ++telemetry.abandoned;
        return Status::OK();
      }
      if (faults->DropAgent()) {
        // Delivered, but the agent state was lost in transit. The
        // originator re-injects the agent from the origin — the same
        // recovery as a churn-stranded agent, except the walk must
        // re-mix (the caller extends its remaining steps).
        if (meter != nullptr) meter->AddAgentRestart();
        ++telemetry.drops;
        if (!context.Live(context.fallback())) {
          return Status::Unavailable(
              "dropped agent's origin left the network");
        }
        current_ = context.fallback();
        return Status::OK();
      }
    } else if (health != nullptr) {
      health->RecordSuccess(proposal);
    }
    current_ = proposal;
  }
  return Status::OK();
}

Status RandomWalk::Advance(const WalkContext& context, Rng& rng, WalkIo& io,
                           size_t steps) {
  for (size_t i = 0; i < steps; ++i) {
    DIGEST_RETURN_IF_ERROR(Step(context, rng, io));
    if (io.diag != nullptr) io.diag->RecordVisit(current_);
  }
  return Status::OK();
}

}  // namespace digest
