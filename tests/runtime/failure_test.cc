// Failure-injection tests: the price protocol must recover from endpoint
// blackouts (crashed or partitioned nodes) because every message carries
// absolute state — the first exchange after healing repairs everything.
// Crash-restart (DESIGN.md §7.7) is stronger: the node loses its state, so
// recovery additionally needs the incarnation protocol (peers discard its
// pre-crash prices as stale) and either the repair exchange (cold restart)
// or a snapshot (checkpoint restart).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/bus.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

/// Collects recovery.* trace events (ignores per-iteration records).
class EventCollector final : public obs::TraceSink {
 public:
  void OnIteration(const obs::IterationTrace&) override {}
  void OnEvent(const obs::TraceEvent& event) override {
    types.push_back(event.type);
  }
  std::vector<std::string> types;
};

std::uint64_t CounterValue(obs::MetricRegistry* metrics, const char* name) {
  return metrics->GetCounter(name)->value();
}

TEST(BusBlackoutTest, DropsMessagesDuringWindow) {
  net::InProcessBus bus;
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  const net::EndpointId b = bus.Register("b", nullptr);

  bus.BlackoutEndpoint(a, 10.0);
  EXPECT_TRUE(bus.IsBlackedOut(a));

  net::Message message;
  message.sender = b;
  message.receiver = a;
  message.payload = net::ResourcePriceUpdate{ResourceId(0u), 1.0, 0, false};
  bus.Send(message);
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);

  // After the window, delivery resumes.
  bus.RunUntil(11.0);
  EXPECT_FALSE(bus.IsBlackedOut(a));
  bus.Send(message);
  bus.RunAll();
  EXPECT_EQ(received, 1);
}

TEST(BusBlackoutTest, InFlightMessagesIntoWindowAreDropped) {
  net::BusConfig config;
  config.base_delay_ms = 5.0;
  net::InProcessBus bus(config);
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  net::Message message;
  message.sender = a;
  message.receiver = a;
  message.payload = net::ResourcePriceUpdate{ResourceId(0u), 1.0, 0, false};
  bus.Send(message);            // delivery at t=5
  bus.BlackoutEndpoint(a, 8.0);  // window covers the delivery
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(BusBlackoutTest, TimersKeepFiringDuringBlackout) {
  net::InProcessBus bus;
  int fired = 0;
  const net::EndpointId a =
      bus.Register("a", nullptr, [&](std::uint64_t) { ++fired; });
  bus.BlackoutEndpoint(a, 100.0);
  bus.ScheduleTimer(a, 10.0, 1);
  bus.RunUntil(20.0);
  EXPECT_EQ(fired, 1);  // the node is partitioned, not stopped
}

// Pins the blackout boundary semantics the crash-restart machinery relies
// on: a window set via BlackoutEndpoint(e, T) is half-open [now, T) — a
// message delivered at exactly t == T is DELIVERED (Dispatch advances the
// clock before the receiver check, and IsBlackedOut uses strict <), while
// one delivered strictly inside the window drops.
TEST(BusBlackoutTest, WindowIsHalfOpenAtExpiry) {
  net::BusConfig config;
  config.base_delay_ms = 5.0;
  net::InProcessBus bus(config);
  int received = 0;
  const net::EndpointId a =
      bus.Register("a", [&](const net::Message&) { ++received; });
  const net::EndpointId b = bus.Register("b", nullptr);
  net::Message message;
  message.sender = b;  // healthy sender: the drop decision is receiver-side
  message.receiver = a;
  message.payload = net::ResourcePriceUpdate{ResourceId(0u), 1.0, 0, false};

  // Send first: a message sent while the receiver is already dark is
  // dropped at Send time and never tests the delivery-side boundary.
  bus.Send(message);             // sent at t=0, delivery at exactly t=5.0
  bus.BlackoutEndpoint(a, 5.0);  // window [0, 5) covers up to the delivery
  bus.RunAll();
  EXPECT_EQ(received, 1);  // boundary delivery goes through
  EXPECT_EQ(bus.stats().dropped, 0u);

  const double until = bus.now_ms() + 5.0 + 0.25;
  bus.Send(message);  // delivery lands 0.25 ms inside the window
  bus.BlackoutEndpoint(a, until);
  bus.RunAll();
  EXPECT_EQ(received, 1);  // still 1: the in-window delivery dropped
  EXPECT_EQ(bus.stats().dropped, 1u);
  EXPECT_TRUE(bus.IsBlackedOut(a));  // clock is at 10.0, inside the window
  bus.RunUntil(until);
  EXPECT_FALSE(bus.IsBlackedOut(a));  // now == until => no longer out
}

TEST(FailureRecoveryTest, ResourcePartitionHealsAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 3;
  Coordinator coordinator(w, model, config);

  // Converge, then partition the busiest resource for 5 s of virtual time.
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.PartitionResource(ResourceId(0u), 5000.0);
  coordinator.RunAsync(5000.0);
  // During the partition the controllers stop hearing resource 0's price;
  // they keep optimizing against a stale mu.  After healing, the system
  // must return to the same optimum.
  coordinator.RunAsync(250000.0);
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              0.01 * std::fabs(before));
  EXPECT_GT(coordinator.bus().stats().dropped, 0u);
}

TEST(FailureRecoveryTest, ControllerPartitionHealsAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 5;
  Coordinator coordinator(w, model, config);
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.PartitionController(TaskId(1u), 8000.0);
  coordinator.RunAsync(8000.0);
  coordinator.RunAsync(250000.0);
  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              0.01 * std::fabs(before));
}

TEST(FailureRecoveryTest, RepeatedPartitionsDoNotWedgeTheProtocol) {
  auto workload = MakePrototypeWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 1.0;
  config.bus.seed = 7;
  Coordinator coordinator(w, model, config);
  for (int round = 0; round < 5; ++round) {
    coordinator.PartitionResource(
        ResourceId(static_cast<std::size_t>(round % 3)), 2000.0);
    coordinator.RunAsync(30000.0);
  }
  coordinator.RunAsync(120000.0);
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  // Fast subtasks end at the uncorrected equilibrium as usual.
  const Assignment assignment = coordinator.CurrentAssignment();
  EXPECT_NEAR(model.share(SubtaskId(0u)).Share(assignment[0]), 0.2857,
              0.02);
}

// --- Crash-restart recovery (DESIGN.md §7.7).

CoordinatorConfig RecoveryConfig(obs::MetricRegistry* metrics,
                                 obs::TraceSink* sink = nullptr) {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  // A grace window that covers the repair round trip under the jitter
  // below (the default 3 ticks assumes a near-zero-delay bus).
  config.step.repair_grace_ticks = 12;
  config.bus.base_delay_ms = 1.0;
  // Jitter much larger than the outage below: some prices the agent sent
  // before its crash are still in flight when it restarts, so they arrive
  // AFTER the repair exchange fast-forwarded the controllers' incarnation
  // watermarks — the stale-rejection path must fire, observably.
  config.bus.jitter_ms = 60.0;
  config.bus.seed = 13;
  config.metrics = metrics;
  config.trace_sink = sink;
  return config;
}

// Cold restart of every resource agent, one at a time: total state loss,
// repair exchange, stale pre-crash prices rejected, and re-convergence to
// the no-failure utility within 1e-6 (relative).
TEST(CrashRestartTest, ColdRestartOfEachResourceAgentReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);

  // The no-failure reference: same config, no fault injected.
  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, RecoveryConfig(&ref_metrics));
  reference.RunAsync(250000.0);
  ASSERT_TRUE(reference.Converged());
  const double no_failure = reference.CurrentUtility();

  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    SCOPED_TRACE(::testing::Message() << "resource " << r);
    obs::MetricRegistry metrics;
    EventCollector events;
    Coordinator coordinator(w, model, RecoveryConfig(&metrics, &events));
    coordinator.RunAsync(250000.0);
    ASSERT_TRUE(coordinator.Converged());

    coordinator.CrashEndpoint(ResourceId(r));
    EXPECT_TRUE(coordinator.agent(ResourceId(r)).crashed());
    coordinator.RunAsync(2.0);  // much shorter than the in-flight tail
    coordinator.RestartEndpoint(ResourceId(r));  // cold: state lost
    EXPECT_FALSE(coordinator.agent(ResourceId(r)).crashed());
    coordinator.RunAsync(250000.0);

    EXPECT_TRUE(coordinator.Converged());
    EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
    EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
                1e-6 * std::fabs(no_failure));

    // The incarnation protocol observably rejected pre-crash prices, the
    // repair exchange ran, and the restart was counted and traced.
    EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
    EXPECT_GE(CounterValue(&metrics, "recovery.stale_rejected"), 1u);
    EXPECT_GE(CounterValue(&metrics, "recovery.repair_rounds"), 1u);
    EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                         "recovery.crash"),
              1);
    EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                         "recovery.restart"),
              1);
  }
}

// Checkpoint restart: the agent resumes from a snapshot taken before the
// crash — bounded staleness, no repair exchange needed.
TEST(CrashRestartTest, CheckpointRestartSkipsRepairAndReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, RecoveryConfig(&metrics));
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  const ResourceId victim(0u);
  const ResourceAgentSnapshot snapshot =
      coordinator.CheckpointResource(victim);
  EXPECT_EQ(snapshot.resource, victim);

  coordinator.CrashEndpoint(victim);
  coordinator.RunAsync(25.0);
  coordinator.RestartEndpoint(victim, snapshot);
  coordinator.RunAsync(250000.0);

  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              1e-6 * std::fabs(before));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  // Restoring from the snapshot needs no peer repair.
  EXPECT_EQ(CounterValue(&metrics, "recovery.repair_rounds"), 0u);
}

// Controller crash-restart: controllers rebuild their price cache from the
// resources' unprompted periodic broadcasts, so a cold controller restart
// needs no explicit repair exchange either.
TEST(CrashRestartTest, ColdControllerRestartReconverges) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, RecoveryConfig(&metrics));
  coordinator.RunAsync(250000.0);
  ASSERT_TRUE(coordinator.Converged());
  const double before = coordinator.CurrentUtility();

  coordinator.CrashEndpoint(TaskId(1u));
  coordinator.RunAsync(25.0);
  coordinator.RestartEndpoint(TaskId(1u));
  coordinator.RunAsync(250000.0);

  EXPECT_TRUE(coordinator.Converged());
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), before,
              1e-6 * std::fabs(before));
  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
}

// A cold controller restart must never expose an out-of-domain latency: the
// monitor samples between the restart and the controller's next allocation
// read its latencies, and a latency of 0 made the share W/0 infinite (and
// tripped the share domain assert in Debug builds).
TEST(CrashRestartTest, ColdControllerRestartKeepsMonitorSamplesFinite) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok());
  const Workload& w = workload.value();
  LatencyModel model(w);
  obs::MetricRegistry metrics;
  Coordinator coordinator(w, model, RecoveryConfig(&metrics));
  coordinator.RunAsync(2500.0);
  coordinator.CrashEndpoint(TaskId(1u));
  coordinator.RunAsync(25.0);
  const std::size_t restart_sample = coordinator.history().size();
  coordinator.RestartEndpoint(TaskId(1u));
  for (const double latency : coordinator.controller(TaskId(1u)).latencies()) {
    EXPECT_GT(latency, 0.0);
  }
  coordinator.RunAsync(2500.0);
  const auto& history = coordinator.history();
  ASSERT_GT(history.size(), restart_sample);
  for (std::size_t i = restart_sample; i < history.size(); ++i) {
    EXPECT_TRUE(std::isfinite(history[i].total_utility)) << "sample " << i;
    EXPECT_TRUE(std::isfinite(history[i].max_resource_excess))
        << "sample " << i;
    EXPECT_TRUE(std::isfinite(history[i].max_path_ratio)) << "sample " << i;
  }
}

// Sharded per-resource fault injection (DESIGN.md §7.10-7.11): crashing a
// resource inside a ShardAgent freezes only that resource — the shard's
// endpoint stays up, its other resources keep exchanging batched messages —
// and a cold restart runs the repair exchange for just that resource and
// reconverges to the no-failure utility.
TEST(CrashRestartTest, ShardedColdRestartOfOneResourceReconverges) {
  RandomWorkloadConfig workload_config;
  workload_config.seed = 7;
  workload_config.num_resources = 16;
  workload_config.num_tasks = 12;
  workload_config.min_subtasks = 12;
  workload_config.max_subtasks = 16;
  auto workload = MakeRandomWorkload(workload_config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  auto sharded_config = [](obs::MetricRegistry* metrics,
                           obs::TraceSink* sink) {
    CoordinatorConfig config;
    config.step.gamma0 = 3.0;
    config.bus.base_delay_ms = 0.0;
    config.num_shards = 4;
    // Tighter than the default 1e-5 so both runs settle close enough for
    // the 1e-6-relative utility comparison below.
    config.convergence.rel_tol = 1e-8;
    config.metrics = metrics;
    config.trace_sink = sink;
    return config;
  };

  obs::MetricRegistry ref_metrics;
  Coordinator reference(w, model, sharded_config(&ref_metrics, nullptr));
  ASSERT_TRUE(reference.sharded());
  const RunResult reference_run = reference.RunSync(4000);
  ASSERT_TRUE(reference_run.converged);
  const double no_failure = reference.CurrentUtility();

  obs::MetricRegistry metrics;
  EventCollector events;
  Coordinator coordinator(w, model, sharded_config(&metrics, &events));
  ASSERT_TRUE(coordinator.RunSync(4000).converged);

  const ResourceId victim(5u);
  std::size_t shard = 0;
  while (!coordinator.shard_agent(shard).Hosts(victim)) ++shard;
  const ShardAgent& agent = coordinator.shard_agent(shard);
  ASSERT_GE(agent.resource_count(), 2u);  // the shard hosts survivors too

  coordinator.CrashEndpoint(victim);
  EXPECT_TRUE(agent.resource_crashed(victim));
  // The shard endpoint stays up through the outage: its round epoch keeps
  // advancing while the crashed resource's price goes out stale.
  const std::uint32_t epoch_at_crash = agent.epoch();
  for (int round = 0; round < 5; ++round) coordinator.RunSyncRound();
  EXPECT_GT(agent.epoch(), epoch_at_crash);
  EXPECT_TRUE(agent.resource_crashed(victim));

  coordinator.RestartEndpoint(victim);  // cold: the resource's state is lost
  EXPECT_FALSE(agent.resource_crashed(victim));
  const RunResult recovered = coordinator.RunSync(4000);
  EXPECT_TRUE(recovered.converged);
  EXPECT_FALSE(agent.resource_awaiting_repair(victim));
  EXPECT_TRUE(coordinator.CurrentFeasibility().feasible);
  EXPECT_NEAR(coordinator.CurrentUtility(), no_failure,
              1e-6 * std::fabs(no_failure));

  EXPECT_EQ(CounterValue(&metrics, "recovery.restarts"), 1u);
  EXPECT_GE(CounterValue(&metrics, "recovery.repair_rounds"), 1u);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.crash"),
            1);
  EXPECT_EQ(std::count(events.types.begin(), events.types.end(),
                       "recovery.restart"),
            1);
}

// Async start: the monitor's first sample (at monitor_period_ms = 10)
// precedes the first allocation of every controller phased at 10 ms or
// later.  Their latencies must already sit inside the share domain — a
// placeholder 0 made the share W/0 infinite (and tripped the share domain
// assert in Debug builds).
TEST(AsyncStartTest, SamplesBeforeFirstAllocationAreFinite) {
  RandomWorkloadConfig config;
  config.num_tasks = 16;
  auto workload = MakeRandomWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  Coordinator coordinator(w, model, CoordinatorConfig{});
  coordinator.RunAsync(12.0);
  const auto& history = coordinator.history();
  ASSERT_FALSE(history.empty());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_TRUE(std::isfinite(history[i].total_utility)) << "sample " << i;
    EXPECT_TRUE(std::isfinite(history[i].max_resource_excess))
        << "sample " << i;
    EXPECT_TRUE(std::isfinite(history[i].max_path_ratio)) << "sample " << i;
  }
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameSnapshot(const TaskControllerSnapshot& a,
                  const TaskControllerSnapshot& b) {
  return a.task == b.task && SameBits(a.local_latencies, b.local_latencies) &&
         SameBits(a.local_lambdas, b.local_lambdas) &&
         SameBits(a.path_gamma_multiplier, b.path_gamma_multiplier) &&
         a.resources == b.resources && SameBits(a.mu, b.mu) &&
         a.resource_congested == b.resource_congested &&
         a.resource_epoch == b.resource_epoch;
}

// A controller snapshot is O(own task): one price-cache entry per resource
// the task uses, whatever the workload's resource count.
TEST(ControllerSnapshotTest, SizeDoesNotDependOnResourceCount) {
  for (const int resources : {8, 512}) {
    RandomWorkloadConfig config;
    config.num_resources = resources;
    config.num_tasks = 12;
    auto workload = MakeRandomWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.error();
    const Workload& w = workload.value();
    LatencyModel model(w);
    CoordinatorConfig coordinator_config;
    coordinator_config.bus.base_delay_ms = 0.0;
    Coordinator coordinator(w, model, coordinator_config);
    coordinator.RunSync(20);
    for (const TaskInfo& task : w.tasks()) {
      std::vector<ResourceId> used;
      for (SubtaskId sid : task.subtasks) {
        used.push_back(w.subtask(sid).resource);
      }
      std::sort(used.begin(), used.end());
      used.erase(std::unique(used.begin(), used.end()), used.end());
      const TaskControllerSnapshot snapshot =
          coordinator.CheckpointController(task.id);
      EXPECT_EQ(snapshot.resources, used) << "R=" << resources;
      EXPECT_EQ(snapshot.mu.size(), used.size());
      EXPECT_EQ(snapshot.resource_congested.size(), used.size());
      EXPECT_EQ(snapshot.resource_epoch.size(), used.size());
      EXPECT_LE(snapshot.mu.size(), task.subtasks.size());
      for (std::size_t k = 0; k < used.size(); ++k) {
        EXPECT_EQ(snapshot.mu[k],
                  coordinator.controller(task.id).mu_seen(used[k]));
      }
    }
  }
}

// Checkpoint -> restore of every controller mid-run is invisible: the
// restored snapshot reads back bit-identical, and the run continues on
// the bit-identical trajectory of an uninterrupted twin (sharded and
// unsharded).
TEST(ControllerSnapshotTest, CheckpointRestoreIsBitIdentical) {
  RandomWorkloadConfig config;
  config.num_resources = 12;
  config.num_tasks = 10;
  auto workload = MakeRandomWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  for (const int shards : {0, 3}) {
    CoordinatorConfig coordinator_config;
    coordinator_config.bus.base_delay_ms = 0.0;
    coordinator_config.num_shards = shards;
    Coordinator reference(w, model, coordinator_config);
    Coordinator restored(w, model, coordinator_config);
    for (int round = 0; round < 15; ++round) {
      reference.RunSyncRound();
      restored.RunSyncRound();
    }
    for (const TaskInfo& task : w.tasks()) {
      const TaskControllerSnapshot snapshot =
          restored.CheckpointController(task.id);
      restored.RestartEndpoint(task.id, snapshot);
      EXPECT_TRUE(SameSnapshot(restored.CheckpointController(task.id),
                               snapshot))
          << "shards=" << shards << " task " << task.id.value();
    }
    for (int round = 0; round < 15; ++round) {
      reference.RunSyncRound();
      restored.RunSyncRound();
    }
    EXPECT_TRUE(SameBits(reference.CurrentAssignment(),
                         restored.CurrentAssignment()))
        << "shards=" << shards;
    EXPECT_TRUE(SameBits(reference.CurrentPrices().mu,
                         restored.CurrentPrices().mu))
        << "shards=" << shards;
    EXPECT_TRUE(SameBits(reference.CurrentPrices().lambda,
                         restored.CurrentPrices().lambda))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace lla::runtime
