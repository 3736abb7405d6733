#include "runtime/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/engine_batch.h"

namespace lla::runtime {
namespace {
constexpr std::uint64_t kControllerTimer = 1;
constexpr std::uint64_t kResourceTimer = 2;
constexpr std::uint64_t kMonitorTimer = 3;
}  // namespace

Coordinator::Coordinator(const Workload& workload, const LatencyModel& model,
                         CoordinatorConfig config)
    : workload_(&workload), model_(&model), config_(config) {
  // CoordinatorConfig::dynamics is authoritative for the agents' mu updates
  // (DESIGN.md §7.12); copy it into the step config every agent receives.
  config_.step.dynamics = config_.dynamics;
  if (config_.metrics != nullptr) {
    rounds_counter_ = config_.metrics->GetCounter("coordinator.rounds");
    samples_counter_ = config_.metrics->GetCounter("coordinator.samples");
    enactments_counter_ =
        config_.metrics->GetCounter("coordinator.enactments");
    sync_round_timer_ = config_.metrics->GetTimer("coordinator.sync_round");
    if (config_.bus.metrics == nullptr) {
      config_.bus.metrics = config_.metrics;
    }
  }
  bus_ = std::make_unique<net::InProcessBus>(config_.bus);
  if (config_.round_threads > 1) {
    round_pool_ = std::make_unique<ThreadPool>(config_.round_threads);
  }

  // Create agents, register endpoints into the member vectors, then bind
  // (agents keep pointers into the member vectors, so the vectors must be in
  // their final location and fully populated before binding).
  controller_shared_ = std::make_unique<ControllerShared>(
      workload, model, config_.solver);
  controllers_.reserve(workload.task_count());
  for (const TaskInfo& task : workload.tasks()) {
    controllers_.push_back(std::make_unique<TaskController>(
        workload, model, task.id, config_.step, controller_shared_.get()));
  }
  const bool sharded = config_.num_shards > 0;
  if (sharded) {
    const std::size_t resources = workload.resource_count();
    const std::size_t shards = std::min<std::size_t>(
        static_cast<std::size_t>(config_.num_shards),
        std::max<std::size_t>(resources, 1));
    resource_shard_.assign(resources, 0);
    shard_agents_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      // Contiguous partition: shard s owns [R*s/S, R*(s+1)/S).
      const std::size_t first = resources * s / shards;
      const std::size_t last = resources * (s + 1) / shards;
      shard_agents_.push_back(std::make_unique<ShardAgent>(
          workload, model, static_cast<std::uint32_t>(s),
          ResourceId(static_cast<std::uint32_t>(first)), last - first,
          config_.step));
      for (std::size_t r = first; r < last; ++r) {
        resource_shard_[r] = static_cast<std::uint32_t>(s);
      }
    }
  } else {
    agents_.reserve(workload.resource_count());
    for (const ResourceInfo& resource : workload.resources()) {
      agents_.push_back(std::make_unique<ResourceAgent>(
          workload, model, resource.id, config_.step));
    }
  }

  // Message endpoints; periodic async timers live on separate endpoints
  // created by ArmAsyncTimers.
  // (kept as members for failure injection)
  controller_endpoints_.resize(workload.task_count());
  for (const TaskInfo& task : workload.tasks()) {
    TaskController* controller = controllers_[task.id.value()].get();
    controller_endpoints_[task.id.value()] = bus_->Register(
        "controller/" + task.name,
        [controller](const net::Message& m) { controller->OnMessage(m); });
  }
  if (sharded) {
    shard_endpoints_.resize(shard_agents_.size());
    for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
      ShardAgent* agent = shard_agents_[s].get();
      shard_endpoints_[s] = bus_->Register(
          "shard/" + std::to_string(s),
          [agent](const net::Message& m) { agent->OnMessage(m); });
    }
  } else {
    resource_endpoints_.resize(workload.resource_count());
    for (const ResourceInfo& resource : workload.resources()) {
      ResourceAgent* agent = agents_[resource.id.value()].get();
      resource_endpoints_[resource.id.value()] = bus_->Register(
          "resource/" + resource.name,
          [agent](const net::Message& m) { agent->OnMessage(m); });
    }
  }
  monitor_endpoint_ = bus_->Register(
      "monitor", nullptr, [this](std::uint64_t token) {
        if (token != kMonitorTimer) return;
        RecordSample(bus_->now_ms());
        bus_->ScheduleTimer(monitor_endpoint_, config_.monitor_period_ms,
                            kMonitorTimer);
      });

  for (const TaskInfo& task : workload.tasks()) {
    TaskController* controller = controllers_[task.id.value()].get();
    controller->Bind(bus_.get(), controller_endpoints_[task.id.value()],
                     &resource_endpoints_);
    if (sharded) controller->BindShards(&shard_endpoints_, &resource_shard_);
  }
  if (sharded) {
    for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
      shard_agents_[s]->Bind(bus_.get(), shard_endpoints_[s],
                             &controller_endpoints_);
    }
  } else {
    for (const ResourceInfo& resource : workload.resources()) {
      agents_[resource.id.value()]->Bind(
          bus_.get(), resource_endpoints_[resource.id.value()],
          &controller_endpoints_);
    }
  }

  recovery_hooks_ = RecoveryHooks::Resolve(config_.metrics);
  for (auto& controller : controllers_) {
    controller->set_recovery_hooks(recovery_hooks_);
  }
  for (auto& agent : agents_) agent->set_recovery_hooks(recovery_hooks_);
  for (auto& shard : shard_agents_) shard->set_recovery_hooks(recovery_hooks_);
}

void Coordinator::RequireUnsharded(const char* what) const {
  if (!sharded()) return;
  std::fprintf(stderr,
               "Coordinator::%s is unsharded-only (it indexes the "
               "per-resource agent/endpoint tables, which are empty when "
               "sharded): this coordinator runs %zu shard agents.  Use the "
               "per-resource shard fault APIs (CrashEndpoint / "
               "RestartEndpoint cold) instead.\n",
               what, shard_agents_.size());
  std::abort();
}

void Coordinator::EmitRecoveryEvent(const char* type,
                                    net::EndpointId endpoint,
                                    bool is_resource, double index,
                                    bool cold) {
  if (config_.trace_sink == nullptr) return;
  obs::TraceEvent event;
  event.type = type;
  event.fields = {
      {"at_ms", bus_->now_ms()},
      {is_resource ? "resource" : "task", index},
      {"cold", cold ? 1.0 : 0.0},
      {"incarnation", static_cast<double>(bus_->incarnation(endpoint))},
  };
  config_.trace_sink->OnEvent(event);
}

void Coordinator::CrashEndpoint(ResourceId resource) {
  if (sharded()) {
    // Sharded: the failing unit is the resource's state inside its shard
    // agent, not the transport — the shard endpoint stays up (its other
    // resources keep exchanging messages), so there is no bus-side crash
    // and no incarnation bump.
    const std::uint32_t shard = resource_shard_[resource.value()];
    shard_agents_[shard]->CrashResource(resource);
    EmitRecoveryEvent("recovery.crash", shard_endpoints_[shard],
                      /*is_resource=*/true,
                      static_cast<double>(resource.value()), /*cold=*/false);
    return;
  }
  const net::EndpointId endpoint = resource_endpoints_[resource.value()];
  bus_->CrashEndpoint(endpoint);
  agents_[resource.value()]->Crash();
  EmitRecoveryEvent("recovery.crash", endpoint, /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/false);
}

void Coordinator::CrashEndpoint(TaskId task) {
  const net::EndpointId endpoint = controller_endpoints_[task.value()];
  bus_->CrashEndpoint(endpoint);
  controllers_[task.value()]->Crash();
  EmitRecoveryEvent("recovery.crash", endpoint, /*is_resource=*/false,
                    static_cast<double>(task.value()), /*cold=*/false);
}

void Coordinator::RestartEndpoint(ResourceId resource) {
  if (sharded()) {
    const std::uint32_t shard = resource_shard_[resource.value()];
    shard_agents_[shard]->ColdRestartResource(resource);
    if (recovery_hooks_.restarts != nullptr) {
      recovery_hooks_.restarts->Increment();
    }
    EmitRecoveryEvent("recovery.restart", shard_endpoints_[shard],
                      /*is_resource=*/true,
                      static_cast<double>(resource.value()), /*cold=*/true);
    return;
  }
  const net::EndpointId endpoint = resource_endpoints_[resource.value()];
  bus_->RestartEndpoint(endpoint);
  agents_[resource.value()]->ColdRestart();
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", endpoint, /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/true);
}

void Coordinator::RestartEndpoint(TaskId task) {
  const net::EndpointId endpoint = controller_endpoints_[task.value()];
  bus_->RestartEndpoint(endpoint);
  controllers_[task.value()]->ColdRestart();
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", endpoint, /*is_resource=*/false,
                    static_cast<double>(task.value()), /*cold=*/true);
}

void Coordinator::RestartEndpoint(ResourceId resource,
                                  const ResourceAgentSnapshot& snapshot) {
  RequireUnsharded("RestartEndpoint(resource, snapshot)");
  const net::EndpointId endpoint = resource_endpoints_[resource.value()];
  bus_->RestartEndpoint(endpoint);
  agents_[resource.value()]->RestoreFromSnapshot(snapshot);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", endpoint, /*is_resource=*/true,
                    static_cast<double>(resource.value()), /*cold=*/false);
}

void Coordinator::RestartEndpoint(TaskId task,
                                  const TaskControllerSnapshot& snapshot) {
  const net::EndpointId endpoint = controller_endpoints_[task.value()];
  bus_->RestartEndpoint(endpoint);
  controllers_[task.value()]->RestoreFromSnapshot(snapshot);
  if (recovery_hooks_.restarts != nullptr) {
    recovery_hooks_.restarts->Increment();
  }
  EmitRecoveryEvent("recovery.restart", endpoint, /*is_resource=*/false,
                    static_cast<double>(task.value()), /*cold=*/false);
}

ResourceAgentSnapshot Coordinator::CheckpointResource(
    ResourceId resource) const {
  RequireUnsharded("CheckpointResource");
  return agents_[resource.value()]->Snapshot();
}

TaskControllerSnapshot Coordinator::CheckpointController(TaskId task) const {
  return controllers_[task.value()]->Snapshot();
}

void Coordinator::PartitionResource(ResourceId resource,
                                    double duration_ms) {
  RequireUnsharded("PartitionResource");
  bus_->BlackoutEndpoint(resource_endpoints_[resource.value()],
                         bus_->now_ms() + duration_ms);
}

void Coordinator::PartitionController(TaskId task, double duration_ms) {
  bus_->BlackoutEndpoint(controller_endpoints_[task.value()],
                         bus_->now_ms() + duration_ms);
}

void Coordinator::EnsureLaneScratch(int lanes) {
  while (static_cast<int>(lane_prices_.size()) < lanes) {
    lane_prices_.push_back(PriceVector::Zero(*workload_));
  }
  if (static_cast<int>(lane_outboxes_.size()) < lanes) {
    lane_outboxes_.resize(static_cast<std::size_t>(lanes));
  }
}

void Coordinator::CommitLaneOutboxes(int lanes) {
  for (int lane = 0; lane < lanes; ++lane) {
    for (net::Message& message : lane_outboxes_[lane]) {
      bus_->Send(std::move(message));
    }
    lane_outboxes_[lane].clear();
  }
}

RoundStats Coordinator::RunSyncRound() {
  obs::ScopedTimer timing(sync_round_timer_);
  ThreadPool* pool = round_pool_.get();
  if (pool == nullptr || pool->size() <= 1) {
    for (auto& controller : controllers_) controller->AllocateAndSend();
    bus_->RunAll();
    for (auto& agent : agents_) agent->ComputePriceAndBroadcast();
    for (auto& agent : shard_agents_) agent->ComputePricesAndBroadcast();
    bus_->RunAll();
  } else {
    // Parallel round (DESIGN.md §7.11).  Each phase fans disjoint endpoints
    // across the pool with sends deferred to per-lane outboxes; committing
    // the lanes in order reproduces the serial send order exactly (lanes own
    // contiguous ascending chunks), so the bus sees the same (seq, payload)
    // stream and the fixed point is bit-identical at any thread count.
    controller_shared_->solver.PrepareSolve();
    const int lanes =
        pool->ParticipantsFor(controllers_.size(), /*min_items_per_thread=*/1);
    EnsureLaneScratch(std::max(lanes, pool->size()));
    pool->RunRegion(lanes, [&](int index, int total) {
      const auto [begin, end] = ChunkRange(controllers_.size(), total, index);
      for (std::size_t t = begin; t < end; ++t) {
        controllers_[t]->AllocateAndSend(&lane_prices_[index],
                                         &lane_outboxes_[index]);
      }
    });
    CommitLaneOutboxes(lanes);
    bus_->RunAllParallel(pool);
    // Unsharded agents are cheap single-resource updates; only the sharded
    // agents carry enough per-call work to fan out.
    for (auto& agent : agents_) agent->ComputePriceAndBroadcast();
    if (!shard_agents_.empty()) {
      const int shard_lanes = pool->ParticipantsFor(shard_agents_.size(),
                                                    /*min_items_per_thread=*/1);
      pool->RunRegion(shard_lanes, [&](int index, int total) {
        const auto [begin, end] =
            ChunkRange(shard_agents_.size(), total, index);
        for (std::size_t s = begin; s < end; ++s) {
          shard_agents_[s]->ComputePricesAndBroadcast(&lane_outboxes_[index]);
        }
      });
      CommitLaneOutboxes(shard_lanes);
    }
    bus_->RunAllParallel(pool);
  }
  ++round_;
  if (rounds_counter_ != nullptr) rounds_counter_->Increment();
  RecordSample(bus_->now_ms());
  return history_.empty() ? RoundStats{} : history_.back();
}

RunResult Coordinator::RunSync(int max_rounds) {
  assert(max_rounds >= 1);
  RunResult result;
  for (int i = 0; i < max_rounds; ++i) {
    const RoundStats stats = RunSyncRound();
    result.final_utility = stats.total_utility;
    if (converged_) break;
  }
  result.converged = converged_;
  result.iterations = round_;
  result.final_feasibility = CurrentFeasibility();
  return result;
}

void Coordinator::ArmAsyncTimers() {
  if (async_armed_) return;
  async_armed_ = true;
  // The monitor's first sample can precede a controller's first allocation
  // (controllers are phased up to T * phase_spread_ms in), so seed every
  // controller that has not allocated yet at the solver's upper bound:
  // the sample then reads a latency inside the share domain.
  for (auto& controller : controllers_) controller->SeedUnallocatedLatencies();
  // Controllers fire first (they own the initial latencies), staggered so no
  // two agents act at the same instant.
  double phase = 0.0;
  for (std::size_t t = 0; t < controllers_.size(); ++t) {
    TaskController* controller = controllers_[t].get();
    const net::EndpointId endpoint =
        bus_->Register("controller-timer/" + std::to_string(t), nullptr,
                       [this, controller, endpoint_slot = t](std::uint64_t) {
                         controller->AllocateAndSend();
                         bus_->ScheduleTimer(
                             controller_timer_endpoints_[endpoint_slot],
                             config_.controller_period_ms, kControllerTimer);
                       });
    controller_timer_endpoints_.push_back(endpoint);
    bus_->ScheduleTimer(endpoint, phase, kControllerTimer);
    phase += config_.phase_spread_ms;
  }
  phase = 0.5 * config_.resource_period_ms;
  for (std::size_t r = 0; r < agents_.size(); ++r) {
    ResourceAgent* agent = agents_[r].get();
    const net::EndpointId endpoint =
        bus_->Register("resource-timer/" + std::to_string(r), nullptr,
                       [this, agent, endpoint_slot = r](std::uint64_t) {
                         agent->ComputePriceAndBroadcast();
                         bus_->ScheduleTimer(
                             resource_timer_endpoints_[endpoint_slot],
                             config_.resource_period_ms, kResourceTimer);
                       });
    resource_timer_endpoints_.push_back(endpoint);
    bus_->ScheduleTimer(endpoint, phase, kResourceTimer);
    phase += config_.phase_spread_ms;
  }
  for (std::size_t s = 0; s < shard_agents_.size(); ++s) {
    ShardAgent* agent = shard_agents_[s].get();
    const net::EndpointId endpoint =
        bus_->Register("shard-timer/" + std::to_string(s), nullptr,
                       [this, agent, endpoint_slot = s](std::uint64_t) {
                         agent->ComputePricesAndBroadcast();
                         bus_->ScheduleTimer(
                             resource_timer_endpoints_[endpoint_slot],
                             config_.resource_period_ms, kResourceTimer);
                       });
    resource_timer_endpoints_.push_back(endpoint);
    bus_->ScheduleTimer(endpoint, phase, kResourceTimer);
    phase += config_.phase_spread_ms;
  }
  bus_->ScheduleTimer(monitor_endpoint_, config_.monitor_period_ms,
                      kMonitorTimer);
}

void Coordinator::RunAsync(double duration_ms) {
  ArmAsyncTimers();
  bus_->RunUntil(bus_->now_ms() + duration_ms);
}

void Coordinator::CollectAssignment(Assignment* latencies) const {
  latencies->resize(workload_->subtask_count());
  for (const TaskInfo& task : workload_->tasks()) {
    const auto& local = controllers_[task.id.value()]->latencies();
    for (std::size_t i = 0; i < task.subtasks.size(); ++i) {
      (*latencies)[task.subtasks[i].value()] = local[i];
    }
  }
}

Assignment Coordinator::CurrentAssignment() const {
  Assignment latencies;
  CollectAssignment(&latencies);
  return latencies;
}

void Coordinator::InvalidateModelCache() {
  controller_shared_->solver.InvalidateModelCache();
}

PriceVector Coordinator::CurrentPrices() const {
  PriceVector prices = PriceVector::Zero(*workload_);
  if (sharded()) {
    for (const ResourceInfo& resource : workload_->resources()) {
      const ShardAgent& agent =
          *shard_agents_[resource_shard_[resource.id.value()]];
      prices.mu[resource.id.value()] = agent.mu(resource.id);
    }
  } else {
    for (const ResourceInfo& resource : workload_->resources()) {
      prices.mu[resource.id.value()] = agents_[resource.id.value()]->mu();
    }
  }
  for (const TaskInfo& task : workload_->tasks()) {
    const auto& lambdas = controllers_[task.id.value()]->lambdas();
    for (std::size_t p = 0; p < task.paths.size(); ++p) {
      prices.lambda[task.paths[p].value()] = lambdas[p];
    }
  }
  return prices;
}

std::vector<RunResult> Coordinator::EvaluateScenarios(
    const std::vector<LlaConfig>& configs, int max_iterations,
    int num_threads) const {
  const PriceVector prices = CurrentPrices();
  EngineBatch batch(num_threads);
  for (const LlaConfig& config : configs) {
    const int index = batch.Add(*workload_, *model_, config);
    // WarmStart primes the engine's active set at the running system's
    // operating point, so scenario re-convergence steps are incremental
    // from the first iteration (only constraints the what-if perturbs
    // re-solve) instead of resetting to dense work.
    batch.engine(index).WarmStart(prices);
  }
  std::vector<RunResult> results = batch.RunAll(max_iterations);
  if (config_.metrics != nullptr) {
    std::uint64_t solves = 0;
    for (const RunResult& result : results) solves += result.subtask_solves;
    config_.metrics->GetCounter("coordinator.scenario.runs")
        ->Increment(results.size());
    config_.metrics->GetCounter("coordinator.scenario.subtask_solves")
        ->Increment(solves);
  }
  return results;
}

double Coordinator::CurrentUtility() const {
  return TotalUtility(*workload_, CurrentAssignment(),
                      config_.solver.variant);
}

FeasibilityReport Coordinator::CurrentFeasibility() const {
  return CheckFeasibility(*workload_, *model_, CurrentAssignment(),
                          config_.convergence.feasibility_tol);
}

void Coordinator::RecordSample(double at_ms) {
  // One fused evaluation sweep into reused buffers (same arrays the engine's
  // StepWorkspace uses), instead of re-walking the workload per quantity.
  CollectAssignment(&scratch_assignment_);
  FillResourceShareSums(*workload_, *model_, scratch_assignment_,
                        &scratch_share_sums_);
  FillPathLatencies(*workload_, scratch_assignment_,
                    &scratch_path_latencies_);
  FillTaskAggregates(*workload_, scratch_assignment_, config_.solver.variant,
                     &scratch_task_weighted_, &scratch_task_utilities_);
  double utility = 0.0;
  for (double task_utility : scratch_task_utilities_) utility += task_utility;
  const FeasibilitySummary summary =
      SummarizeFeasibility(*workload_, scratch_share_sums_,
                           scratch_path_latencies_,
                           config_.convergence.feasibility_tol);
  if (config_.record_history) {
    RoundStats stats;
    stats.round = round_;
    stats.at_ms = at_ms;
    stats.total_utility = utility;
    stats.max_resource_excess = summary.max_resource_excess;
    stats.max_path_ratio = summary.max_path_ratio;
    stats.feasible = summary.feasible;
    history_.push_back(std::move(stats));
  }
  if (samples_counter_ != nullptr) samples_counter_->Increment();
  if (config_.trace_sink != nullptr) EmitTrace(at_ms, utility, summary);
  UpdateConvergence(utility, summary.feasible);
  MaybeEnact(at_ms);
}

void Coordinator::EmitTrace(double at_ms, double utility,
                            const FeasibilitySummary& summary) {
  // Share sums and path latencies come from the scratch buffers RecordSample
  // just filled; the dual state is collected from the agents (mu lives on
  // the resource agents, lambda on the task controllers).
  trace_.iteration = round_;
  trace_.at_ms = at_ms;
  trace_.total_utility = utility;
  trace_.feasible = summary.feasible;
  trace_.max_resource_excess = summary.max_resource_excess;
  trace_.max_path_ratio = summary.max_path_ratio;
  trace_.resource_share_sums = scratch_share_sums_;
  trace_.path_latencies = scratch_path_latencies_;
  trace_.resource_mu.resize(workload_->resource_count());
  trace_.resource_step.resize(workload_->resource_count());
  for (const ResourceInfo& resource : workload_->resources()) {
    if (sharded()) {
      const ShardAgent& agent =
          *shard_agents_[resource_shard_[resource.id.value()]];
      trace_.resource_mu[resource.id.value()] = agent.mu(resource.id);
      trace_.resource_step[resource.id.value()] =
          config_.step.gamma0 * agent.step_multiplier(resource.id);
    } else {
      const ResourceAgent& agent = *agents_[resource.id.value()];
      trace_.resource_mu[resource.id.value()] = agent.mu();
      trace_.resource_step[resource.id.value()] =
          config_.step.gamma0 * agent.step_multiplier();
    }
  }
  trace_.path_lambda.resize(workload_->path_count());
  trace_.path_step.resize(workload_->path_count());
  for (const TaskInfo& task : workload_->tasks()) {
    const TaskController& controller = *controllers_[task.id.value()];
    const auto& lambdas = controller.lambdas();
    const auto& multipliers = controller.path_step_multipliers();
    for (std::size_t p = 0; p < task.paths.size(); ++p) {
      trace_.path_lambda[task.paths[p].value()] = lambdas[p];
      trace_.path_step[task.paths[p].value()] =
          config_.step.gamma0 * multipliers[p];
    }
  }
  config_.trace_sink->OnIteration(trace_);
}

void Coordinator::UpdateConvergence(double utility, bool feasible) {
  const ConvergenceConfig& conv = config_.convergence;
  recent_utilities_.push_back(utility);
  while (static_cast<int>(recent_utilities_.size()) > conv.window) {
    recent_utilities_.pop_front();
  }
  if (static_cast<int>(recent_utilities_.size()) < conv.window) {
    converged_ = false;
    return;
  }
  const auto [min_it, max_it] =
      std::minmax_element(recent_utilities_.begin(), recent_utilities_.end());
  const double spread = *max_it - *min_it;
  const double scale = std::max(1.0, std::fabs(*max_it));
  bool settled = spread <= conv.rel_tol * scale;
  if (settled && conv.require_feasible) {
    settled = feasible;
  }
  converged_ = settled;
}

void Coordinator::MaybeEnact(double at_ms) {
  const double utility = recent_utilities_.back();
  if (!enactments_.empty()) {
    const double last = enactments_.back().utility;
    const double scale = std::max(1.0, std::fabs(last));
    if (std::fabs(utility - last) <= config_.enactment_threshold * scale) {
      return;
    }
  }
  Enactment enactment;
  enactment.round = round_;
  enactment.at_ms = at_ms;
  enactment.utility = utility;
  enactment.latencies = CurrentAssignment();
  enactments_.push_back(std::move(enactment));
  if (enactments_counter_ != nullptr) enactments_counter_->Increment();
}

}  // namespace lla::runtime
