// TracedDeployment: the Coordinator's synchronous deployment assembled from
// the runtime's public pieces (ControllerShared, TaskController,
// ResourceAgent / ShardAgent, InProcessBus, ThreadPool), with a span around
// every call into a layer.  Rounds follow Coordinator::RunSyncRound step for
// step — controllers, RunAll, price step, RunAll, monitor sweep — so after
// the same rounds the assignment is bit-identical to the Coordinator's; the
// traced runs check that.
//
// Spans are kept as per-layer accumulators in memory.  Handler spans are
// recorded by the bus handlers the harness registers; in a parallel round
// they run on pool threads, so each thread accumulates into its own slot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "runtime/resource_agent.h"
#include "runtime/shard_agent.h"
#include "runtime/task_controller.h"

namespace perfbench {

/// Accumulated self time per layer, in ms, over every traced round.
struct LayerTimes {
  double allocate_ms = 0.0;      ///< TaskController::AllocateAndSend
  double absorb_ms = 0.0;        ///< TaskController::OnMessage
  double shard_apply_ms = 0.0;   ///< ShardAgent::OnMessage
  double shard_price_ms = 0.0;   ///< ShardAgent::ComputePricesAndBroadcast
  double agent_apply_ms = 0.0;   ///< ResourceAgent::OnMessage
  double agent_price_ms = 0.0;   ///< ResourceAgent::ComputePriceAndBroadcast
  double dispatch_ms = 0.0;      ///< InProcessBus::RunAll minus handlers
  double monitor_ms = 0.0;       ///< assignment gather + Fill* + summary
  double region_ms = 0.0;        ///< ThreadPool::RunRegion wall
  double lane_busy_ms = 0.0;     ///< summed lane time inside regions
  double lane_wait_ms = 0.0;     ///< lanes x region wall - lane busy
  double commit_ms = 0.0;        ///< lane-order outbox commit
  double prepare_ms = 0.0;       ///< serial LatencySolver::PrepareSolve
  double parallel_dispatch_ms = 0.0;  ///< InProcessBus::RunAllParallel wall
  double round_ms = 0.0;         ///< traced round wall
  std::uint64_t controller_calls = 0;
  std::uint64_t rounds = 0;
  std::vector<double> round_samples_ms;

  /// Sum of the self times that partition a serial round.
  double SerialSelfMs() const {
    return allocate_ms + absorb_ms + shard_apply_ms + shard_price_ms +
           agent_apply_ms + agent_price_ms + dispatch_ms + monitor_ms;
  }
};

class TracedDeployment {
 public:
  /// `registry` (may be null) receives the recovery counters, as the
  /// Coordinator's config.metrics would.
  TracedDeployment(const lla::Workload& workload,
                   const lla::LatencyModel& model,
                   lla::runtime::CoordinatorConfig config,
                   lla::obs::MetricRegistry* registry);

  TracedDeployment(const TracedDeployment&) = delete;
  TracedDeployment& operator=(const TracedDeployment&) = delete;

  /// One traced synchronous round; returns the monitor sample.
  lla::runtime::RoundStats RunRound();

  lla::Assignment CurrentAssignment() const;

  /// Unsharded deployments only: snapshot and restore every endpoint, in
  /// the order the Coordinator's Checkpoint*/RestartEndpoint calls use.
  void Checkpoint(
      std::vector<lla::runtime::ResourceAgentSnapshot>* resources,
      std::vector<lla::runtime::TaskControllerSnapshot>* controllers) const;
  void Restore(
      const std::vector<lla::runtime::ResourceAgentSnapshot>& resources,
      const std::vector<lla::runtime::TaskControllerSnapshot>& controllers);

  const LayerTimes& times() const { return times_; }
  /// Clears the accumulators, e.g. after a warm-up round.
  void ResetTimes() { times_ = LayerTimes{}; }
  const lla::net::BusStats& bus_stats() const { return bus_->stats(); }

 private:
  void SerialPhases();
  void ParallelPhases();
  /// Runs RunAll (or RunAllParallel) and books its wall time minus the
  /// handler spans recorded meanwhile.
  void Dispatch(bool parallel);
  void Sample(lla::runtime::RoundStats* stats);

  const lla::Workload* workload_;
  const lla::LatencyModel* model_;
  lla::runtime::CoordinatorConfig config_;
  std::unique_ptr<lla::net::InProcessBus> bus_;
  std::unique_ptr<lla::ThreadPool> pool_;
  std::unique_ptr<lla::runtime::ControllerShared> shared_;
  std::vector<std::unique_ptr<lla::runtime::TaskController>> controllers_;
  std::vector<std::unique_ptr<lla::runtime::ResourceAgent>> agents_;
  std::vector<std::unique_ptr<lla::runtime::ShardAgent>> shards_;
  std::vector<lla::net::EndpointId> controller_endpoints_;
  std::vector<lla::net::EndpointId> resource_endpoints_;
  std::vector<lla::net::EndpointId> shard_endpoints_;
  std::vector<std::uint32_t> resource_shard_;
  lla::runtime::RecoveryHooks hooks_;

  std::vector<lla::PriceVector> lane_prices_;
  std::vector<std::vector<lla::net::Message>> lane_outboxes_;
  std::vector<double> lane_busy_;

  int round_ = 0;
  LayerTimes times_;
  lla::Assignment scratch_assignment_;
  std::vector<double> share_sums_;
  std::vector<double> path_latencies_;
  std::vector<double> task_weighted_;
  std::vector<double> task_utilities_;
};

}  // namespace perfbench
