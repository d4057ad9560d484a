// Full-engine robustness battery: sweeps message-loss and agent-drop
// rates over ring / mesh / power-law overlays and checks that the
// (ε, p) contract degrades gracefully — wider intervals, honest
// degraded flags — with no tick ever failing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "core/engine.h"
#include "db/p2p_database.h"
#include "net/fault_plan.h"
#include "net/topology.h"
#include "numeric/rng.h"
#include "workload/experiment.h"
#include "workload/workload.h"

namespace digest {
namespace {

/// Static-membership workload over an arbitrary topology: every node
/// hosts kTuplesPerNode tuples whose single attribute follows an AR(1)
/// process, so ground truth drifts while the overlay stays fixed —
/// isolating the injected faults from churn effects.
class StaticDriftWorkload : public Workload {
 public:
  static constexpr size_t kTuplesPerNode = 8;

  StaticDriftWorkload(Graph graph, uint64_t seed)
      : graph_(std::move(graph)),
        rng_(seed),
        db_(std::make_unique<P2PDatabase>(
            Schema::Create({"load"}).value())) {
    for (NodeId node : graph_.LiveNodes()) {
      (void)db_->AddNode(node);
      LocalStore* store = db_->StoreAt(node).value();
      for (size_t i = 0; i < kTuplesPerNode; ++i) {
        Entry entry;
        entry.node = node;
        entry.value = rng_.NextGaussian(50.0, 10.0);
        entry.id = store->Insert({entry.value});
        entries_.push_back(entry);
      }
    }
  }

  Graph& graph() override { return graph_; }
  const Graph& graph() const override { return graph_; }
  P2PDatabase& db() override { return *db_; }
  const P2PDatabase& db() const override { return *db_; }
  const char* attribute() const override { return "load"; }
  int64_t now() const override { return now_; }

  Status Advance() override {
    ++now_;
    for (Entry& entry : entries_) {
      entry.value =
          50.0 + 0.8 * (entry.value - 50.0) + rng_.NextGaussian(0.0, 2.0);
      DIGEST_ASSIGN_OR_RETURN(LocalStore * store, db_->StoreAt(entry.node));
      DIGEST_RETURN_IF_ERROR(
          store->UpdateAttribute(entry.id, 0, entry.value));
    }
    return Status::OK();
  }

 private:
  struct Entry {
    NodeId node = kInvalidNode;
    LocalTupleId id = 0;
    double value = 0.0;
  };

  Graph graph_;
  Rng rng_;
  std::unique_ptr<P2PDatabase> db_;
  std::vector<Entry> entries_;
  int64_t now_ = 0;
};

Graph MakeTopology(const std::string& name) {
  if (name == "ring") return MakeRing(60).value();
  if (name == "mesh") return MakeMesh(8, 8).value();
  Rng rng(2024);
  return MakeBarabasiAlbert(80, 3, rng).value();
}

constexpr size_t kTicks = 20;

Result<RunResult> RunStress(const std::string& topology, double loss,
                            double drop, FaultPlanConfig extra = {}) {
  StaticDriftWorkload workload(MakeTopology(topology), /*seed=*/777);
  DIGEST_ASSIGN_OR_RETURN(
      const ContinuousQuerySpec spec,
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9}));
  FaultPlanConfig config = extra;
  config.message_loss = loss;
  config.agent_drop = drop;
  DIGEST_RETURN_IF_ERROR(config.Validate());
  FaultPlan plan(config, /*seed=*/4242);
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.fault_plan = &plan;
  return RunEngineExperiment(workload, spec, options, kTicks, /*seed=*/11);
}

void CheckSweep(const std::string& topology) {
  for (double loss : {0.0, 0.05, 0.10}) {
    for (double drop : {0.0, 0.05}) {
      SCOPED_TRACE(topology + " loss=" + std::to_string(loss) +
                   " drop=" + std::to_string(drop));
      Result<RunResult> run = RunStress(topology, loss, drop);
      // Every tick must produce an answer: a fault never fails the run.
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->reported.size(), kTicks);
      EXPECT_EQ(run->ci_halfwidths.size(), kTicks);
      if (loss == 0.0 && drop == 0.0) {
        // The fault-free lane of the sweep is the control: nothing
        // injected, nothing degraded, no retry overhead.
        EXPECT_EQ(run->degraded_ticks, 0u);
        EXPECT_EQ(run->stats.degraded_ticks, 0u);
        EXPECT_EQ(run->meter.losses(), 0u);
        EXPECT_EQ(run->meter.FaultOverhead(), 0u);
      } else if (loss > 0.0) {
        // Faults really were exercised, and every loss was retried.
        EXPECT_GT(run->meter.losses(), 0u);
        EXPECT_GT(run->meter.retries(), 0u);
      }
      // The widened per-tick contract (max(ε, ci[t]) + δ) holds for a
      // clear majority of ticks even at 10% loss; p = 0.9 with modest
      // sample sizes justifies a conservative floor.
      EXPECT_GE(run->widened_precision.within_tolerance_fraction, 0.5);
      // Degraded ticks never report an interval tighter than ε.
      for (size_t t = 0; t < run->ci_halfwidths.size(); ++t) {
        EXPECT_GE(run->ci_halfwidths[t], 0.0);
      }
    }
  }
}

TEST(FaultStressTest, RingSweepAnswersEveryTickWithinWidenedContract) {
  CheckSweep("ring");
}

TEST(FaultStressTest, MeshSweepAnswersEveryTickWithinWidenedContract) {
  CheckSweep("mesh");
}

TEST(FaultStressTest, PowerLawSweepAnswersEveryTickWithinWidenedContract) {
  CheckSweep("power-law");
}

TEST(FaultStressTest, StallsAndStaleProbesStillAnswerEveryTick) {
  FaultPlanConfig extra;
  extra.stall_fraction = 0.2;
  extra.stall_every = 8;
  extra.stall_length = 2;
  extra.stale_probe = 0.2;
  extra.edge_spread = 0.5;
  Result<RunResult> run = RunStress("mesh", 0.05, 0.02, extra);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->reported.size(), kTicks);
  EXPECT_GE(run->widened_precision.within_tolerance_fraction, 0.5);
}

TEST(FaultStressTest, UnanswerableFirstOccasionIsAnUnansweredTick) {
  // A partition that isolates (nearly) every peer covers the first two
  // ticks, and a tight hop budget turns the stranded walks into a batch
  // timeout. The first occasion then has no retained pool and no
  // earlier result to hold: those ticks must come back ok and
  // unanswered — a supervisor timeout and an audit timeout record, not
  // an error — and the query must answer once the partition heals.
  StaticDriftWorkload workload(MakeTopology("mesh"), /*seed=*/777);
  const ContinuousQuerySpec spec =
      ContinuousQuerySpec::Create("SELECT AVG(load) FROM R",
                                  PrecisionSpec{1.0, 4.0, 0.9})
          .value();
  FaultPlanConfig config;
  config.partition_every = 1000;
  config.partition_length = 3;  // Ticks 0-2 of every 1000.
  config.partition_components = 1000;
  ASSERT_TRUE(config.Validate().ok());
  FaultPlan plan(config, /*seed=*/4242);
  audit::PrecisionAuditor auditor;
  DigestEngineOptions options;
  options.scheduler = SchedulerKind::kAll;
  options.estimator = EstimatorKind::kRepeated;
  options.sampling_options.walk_length = 16;
  options.sampling_options.reset_length = 4;
  options.sampling_options.retry.hop_budget_factor = 2.0;
  options.fault_plan = &plan;
  options.auditor = &auditor;
  Rng rng(11);
  const NodeId querying = workload.graph().RandomLiveNode(rng).value();
  workload.ProtectNode(querying);
  MessageMeter meter;
  std::unique_ptr<DigestEngine> engine =
      DigestEngine::Create(&workload.graph(), &workload.db(), spec,
                           querying, rng.Fork(), &meter, options)
          .value();
  auditor.BeginRun("unanswered-first-occasion");

  size_t unanswered = 0;
  bool answered = false;
  for (int i = 0; i < 6 && !answered; ++i) {
    ASSERT_TRUE(workload.Advance().ok());
    plan.set_now(workload.now());
    Result<EngineTickResult> tick = engine->Tick(workload.now());
    ASSERT_TRUE(tick.ok()) << tick.status().message();
    auditor.RecordTruth(workload.now(),
                        workload.db().ExactAggregate(spec.query).value());
    if (tick->has_result) {
      answered = true;
      EXPECT_GE(workload.now(), config.partition_length);
    } else {
      ++unanswered;
      EXPECT_TRUE(tick->degraded);
      EXPECT_FALSE(tick->snapshot_executed);
    }
  }
  EXPECT_GE(unanswered, 1u) << "the partition never stalled an occasion";
  EXPECT_TRUE(answered) << "the query never answered after the heal";
  EXPECT_EQ(engine->supervisor().outcome_count(SnapshotOutcome::kTimeout),
            unanswered);
  EXPECT_EQ(engine->stats().snapshots, 1u);
  // Each unanswered occasion is a timeout miss in the ledger; it feeds
  // neither the error histogram nor the signed-error drift detector.
  const audit::PrecisionAuditor::Summary summary = auditor.Summarize();
  EXPECT_EQ(summary.cause_counts[static_cast<size_t>(
                audit::MissCause::kHedgeTimeout)],
            unanswered);
  EXPECT_EQ(summary.error_breaches, 0u);
  size_t timeouts = 0;
  for (const audit::CoverageRecord& r : auditor.records()) {
    if (r.timeout) ++timeouts;
  }
  EXPECT_EQ(timeouts, unanswered);
}

}  // namespace
}  // namespace digest
