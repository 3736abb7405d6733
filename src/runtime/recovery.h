// Crash-restart recovery for the distributed runtime (DESIGN.md §7.7).
//
// Two restart flavors exist, both driven through the Coordinator's
// fault-injection API:
//
//   * Cold restart — the agent lost everything.  Its message endpoint's
//     incarnation is bumped (so peers can reject its pre-crash traffic and
//     it can prove its own freshness), its dual state resets, and it runs
//     the repair exchange: a RepairRequest to every client controller, each
//     answering with its absolute view (cached mu_r + current subtask
//     latencies).  Broadcasts hold for a few grace ticks while repair is in
//     flight so a mu=0 cold price never hits the network.
//
//   * Checkpoint restart — the agent restored a snapshot taken earlier by
//     Coordinator::CheckpointResource/CheckpointController.  It rejoins with
//     bounded staleness (whatever moved since the snapshot) and needs no
//     repair exchange.
//
// This header holds the snapshot structs and the counter bundle; the agent
// logic lives in resource_agent / task_controller, the injection API on the
// Coordinator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "obs/metrics.h"

namespace lla::runtime {

/// Durable state of one ResourceAgent (everything ComputePriceAndBroadcast
/// reads), captured by Coordinator::CheckpointResource.
struct ResourceAgentSnapshot {
  ResourceId resource;
  double mu = 0.0;
  double gamma_multiplier = 1.0;
  std::uint32_t epoch = 0;
  /// Latest latency inputs, indexed like workload.resource(id).subtasks.
  std::vector<double> latencies_ms;
  /// Accelerated-dynamics state (DESIGN.md §7.12).  Snapshots taken before
  /// the momentum port — or by a plain-dynamics agent — leave has_dynamics
  /// false and restore as FRESH momentum (velocity/phase zero, base re-seeded
  /// at mu), mirroring the v1 -> v2 engine-snapshot precedent: an old
  /// checkpoint is a valid operating point, just without acceleration
  /// history.
  bool has_dynamics = false;
  double velocity = 0.0;
  /// Nesterov base iterate x (the published mu is the extrapolated point y).
  double dynamics_base = 0.0;
  /// Steps since the component's last adaptive restart (the ramp clock).
  double phase = 0.0;
};

/// Durable state of one TaskController, captured by
/// Coordinator::CheckpointController.
struct TaskControllerSnapshot {
  TaskId task;
  std::vector<double> local_latencies;
  std::vector<double> local_lambdas;
  std::vector<double> path_gamma_multiplier;
  /// The price cache, O(own task): entry k is the cached view of
  /// resources[k], one entry per resource the task uses, ascending.  A
  /// restore matches entries by resource id.
  std::vector<ResourceId> resources;
  std::vector<double> mu;
  std::vector<std::uint8_t> resource_congested;
  std::vector<std::uint32_t> resource_epoch;
};

/// Recovery counters, resolved once from a registry and shared by the
/// coordinator with every agent (all null when metrics are disabled, so the
/// hot paths pay one pointer test).
struct RecoveryHooks {
  /// Endpoint restarts injected (cold + checkpointed).
  obs::Counter* restarts = nullptr;
  /// Messages rejected because their incarnation predates the sender's
  /// latest known restart.
  obs::Counter* stale_rejected = nullptr;
  /// RepairResponses absorbed by restarted resource agents.
  obs::Counter* repair_rounds = nullptr;

  static RecoveryHooks Resolve(obs::MetricRegistry* metrics) {
    RecoveryHooks hooks;
    if (metrics != nullptr) {
      hooks.restarts = metrics->GetCounter("recovery.restarts");
      hooks.stale_rejected = metrics->GetCounter("recovery.stale_rejected");
      hooks.repair_rounds = metrics->GetCounter("recovery.repair_rounds");
    }
    return hooks;
  }
};

}  // namespace lla::runtime
