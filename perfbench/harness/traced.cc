#include "traced.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "model/evaluation.h"

namespace perfbench {
namespace {

using lla::runtime::ResourceAgent;
using lla::runtime::ShardAgent;
using lla::runtime::TaskController;

enum HandlerKind { kAbsorb = 0, kShardApply, kAgentApply, kHandlerKinds };

/// One thread's handler spans, padded so pool threads do not share a line.
struct alignas(64) HandlerSlot {
  double ms[kHandlerKinds] = {};
  std::uint64_t calls[kHandlerKinds] = {};
};

constexpr int kMaxHandlerThreads = 256;
HandlerSlot g_slots[kMaxHandlerThreads];
std::atomic<int> g_slots_used{0};

HandlerSlot& ThisThreadSlot() {
  thread_local int index = -1;
  if (index < 0) {
    index = g_slots_used.fetch_add(1);
    if (index >= kMaxHandlerThreads) {
      std::fprintf(stderr, "perfbench: more than %d handler threads\n",
                   kMaxHandlerThreads);
      std::abort();
    }
  }
  return g_slots[index];
}

/// Sums and clears every thread's handler spans.  Called only while no
/// handler runs (after RunAll / RunAllParallel returned, which joins).
HandlerSlot DrainHandlerSlots() {
  HandlerSlot total;
  const int used = std::min(g_slots_used.load(), kMaxHandlerThreads);
  for (int i = 0; i < used; ++i) {
    for (int k = 0; k < kHandlerKinds; ++k) {
      total.ms[k] += g_slots[i].ms[k];
      total.calls[k] += g_slots[i].calls[k];
    }
    g_slots[i] = HandlerSlot{};
  }
  return total;
}

template <typename Fn>
void TimedHandler(HandlerKind kind, Fn&& fn) {
  HandlerSlot& slot = ThisThreadSlot();
  const double start = NowMs();
  fn();
  slot.ms[kind] += NowMs() - start;
  ++slot.calls[kind];
}

}  // namespace

TracedDeployment::TracedDeployment(const lla::Workload& workload,
                                   const lla::LatencyModel& model,
                                   lla::runtime::CoordinatorConfig config,
                                   lla::obs::MetricRegistry* registry)
    : workload_(&workload), model_(&model), config_(config) {
  config_.step.dynamics = config_.dynamics;
  bus_ = std::make_unique<lla::net::InProcessBus>(config_.bus);
  if (config_.round_threads > 1) {
    pool_ = std::make_unique<lla::ThreadPool>(config_.round_threads);
  }
  shared_ = std::make_unique<lla::runtime::ControllerShared>(
      workload, model, config_.solver);
  for (const lla::TaskInfo& task : workload.tasks()) {
    controllers_.push_back(std::make_unique<TaskController>(
        workload, model, task.id, config_.step, shared_.get()));
  }
  const bool sharded = config_.num_shards > 0;
  if (sharded) {
    const std::size_t resources = workload.resource_count();
    const std::size_t shards = std::min<std::size_t>(
        static_cast<std::size_t>(config_.num_shards),
        std::max<std::size_t>(resources, 1));
    resource_shard_.assign(resources, 0);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t first = resources * s / shards;
      const std::size_t last = resources * (s + 1) / shards;
      shards_.push_back(std::make_unique<ShardAgent>(
          workload, model, static_cast<std::uint32_t>(s),
          lla::ResourceId(static_cast<std::uint32_t>(first)), last - first,
          config_.step));
      for (std::size_t r = first; r < last; ++r) {
        resource_shard_[r] = static_cast<std::uint32_t>(s);
      }
    }
  } else {
    for (const lla::ResourceInfo& resource : workload.resources()) {
      agents_.push_back(std::make_unique<ResourceAgent>(
          workload, model, resource.id, config_.step));
    }
  }

  // Endpoints in the Coordinator's registration order, so ids and the bus's
  // event sequence match it exactly.
  controller_endpoints_.resize(workload.task_count());
  for (const lla::TaskInfo& task : workload.tasks()) {
    TaskController* controller = controllers_[task.id.value()].get();
    controller_endpoints_[task.id.value()] = bus_->Register(
        "controller/" + task.name, [controller](const lla::net::Message& m) {
          TimedHandler(kAbsorb, [&] { controller->OnMessage(m); });
        });
  }
  if (sharded) {
    shard_endpoints_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardAgent* agent = shards_[s].get();
      shard_endpoints_[s] = bus_->Register(
          "shard/" + std::to_string(s), [agent](const lla::net::Message& m) {
            TimedHandler(kShardApply, [&] { agent->OnMessage(m); });
          });
    }
  } else {
    resource_endpoints_.resize(workload.resource_count());
    for (const lla::ResourceInfo& resource : workload.resources()) {
      ResourceAgent* agent = agents_[resource.id.value()].get();
      resource_endpoints_[resource.id.value()] = bus_->Register(
          "resource/" + resource.name, [agent](const lla::net::Message& m) {
            TimedHandler(kAgentApply, [&] { agent->OnMessage(m); });
          });
    }
  }
  bus_->Register("monitor", nullptr, [](std::uint64_t) {});

  for (const lla::TaskInfo& task : workload.tasks()) {
    TaskController* controller = controllers_[task.id.value()].get();
    controller->Bind(bus_.get(), controller_endpoints_[task.id.value()],
                     &resource_endpoints_);
    if (sharded) controller->BindShards(&shard_endpoints_, &resource_shard_);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->Bind(bus_.get(), shard_endpoints_[s], &controller_endpoints_);
  }
  for (std::size_t r = 0; r < agents_.size(); ++r) {
    agents_[r]->Bind(bus_.get(), resource_endpoints_[r],
                     &controller_endpoints_);
  }

  hooks_ = lla::runtime::RecoveryHooks::Resolve(registry);
  for (auto& controller : controllers_) controller->set_recovery_hooks(hooks_);
  for (auto& agent : agents_) agent->set_recovery_hooks(hooks_);
  for (auto& shard : shards_) shard->set_recovery_hooks(hooks_);
}

void TracedDeployment::Dispatch(bool parallel) {
  const double start = NowMs();
  if (parallel) {
    bus_->RunAllParallel(pool_.get());
  } else {
    bus_->RunAll();
  }
  const double wall = NowMs() - start;
  const HandlerSlot handlers = DrainHandlerSlots();
  times_.absorb_ms += handlers.ms[kAbsorb];
  times_.shard_apply_ms += handlers.ms[kShardApply];
  times_.agent_apply_ms += handlers.ms[kAgentApply];
  times_.controller_calls += handlers.calls[kAbsorb];
  if (parallel) {
    times_.parallel_dispatch_ms += wall;
  } else {
    times_.dispatch_ms += wall - handlers.ms[kAbsorb] -
                          handlers.ms[kShardApply] - handlers.ms[kAgentApply];
  }
}

void TracedDeployment::SerialPhases() {
  double start = NowMs();
  for (auto& controller : controllers_) controller->AllocateAndSend();
  times_.allocate_ms += NowMs() - start;
  times_.controller_calls += controllers_.size();
  Dispatch(false);
  start = NowMs();
  for (auto& agent : agents_) agent->ComputePriceAndBroadcast();
  times_.agent_price_ms += NowMs() - start;
  start = NowMs();
  for (auto& shard : shards_) shard->ComputePricesAndBroadcast();
  times_.shard_price_ms += NowMs() - start;
  Dispatch(false);
}

void TracedDeployment::ParallelPhases() {
  lla::ThreadPool* pool = pool_.get();
  // Runs `body(begin, end, lane)` over `n` endpoints in a pool region and
  // books the region's wall, lane busy/wait and the lane-order commit;
  // returns the summed lane busy time.
  const auto region = [&](std::size_t n, auto&& body) {
    const int lanes = pool->ParticipantsFor(n, /*min_items_per_thread=*/1);
    std::fill(lane_busy_.begin(), lane_busy_.end(), 0.0);
    const double start = NowMs();
    pool->RunRegion(lanes, [&](int index, int total) {
      const double lane_start = NowMs();
      const auto [begin, end] = lla::ChunkRange(n, total, index);
      body(begin, end, index);
      lane_busy_[index] = NowMs() - lane_start;
    });
    const double wall = NowMs() - start;
    double busy = 0.0;
    for (int lane = 0; lane < lanes; ++lane) busy += lane_busy_[lane];
    times_.region_ms += wall;
    times_.lane_busy_ms += busy;
    times_.lane_wait_ms += lanes * wall - busy;
    const double commit_start = NowMs();
    for (int lane = 0; lane < lanes; ++lane) {
      for (lla::net::Message& message : lane_outboxes_[lane]) {
        bus_->Send(std::move(message));
      }
      lane_outboxes_[lane].clear();
    }
    times_.commit_ms += NowMs() - commit_start;
    return busy;
  };

  double start = NowMs();
  shared_->solver.PrepareSolve();
  const double prepare = NowMs() - start;
  times_.prepare_ms += prepare;
  times_.allocate_ms += prepare;
  const int width = pool->size();
  while (static_cast<int>(lane_prices_.size()) < width) {
    lane_prices_.push_back(lla::PriceVector::Zero(*workload_));
  }
  lane_outboxes_.resize(std::max<std::size_t>(lane_outboxes_.size(), width));
  lane_busy_.resize(width, 0.0);

  times_.allocate_ms += region(
      controllers_.size(), [&](std::size_t begin, std::size_t end, int lane) {
        for (std::size_t t = begin; t < end; ++t) {
          controllers_[t]->AllocateAndSend(&lane_prices_[lane],
                                           &lane_outboxes_[lane]);
        }
      });
  times_.controller_calls += controllers_.size();
  Dispatch(true);
  start = NowMs();
  for (auto& agent : agents_) agent->ComputePriceAndBroadcast();
  times_.agent_price_ms += NowMs() - start;
  if (!shards_.empty()) {
    times_.shard_price_ms += region(
        shards_.size(), [&](std::size_t begin, std::size_t end, int lane) {
          for (std::size_t s = begin; s < end; ++s) {
            shards_[s]->ComputePricesAndBroadcast(&lane_outboxes_[lane]);
          }
        });
  }
  Dispatch(true);
}

lla::runtime::RoundStats TracedDeployment::RunRound() {
  const double start = NowMs();
  if (pool_ != nullptr && pool_->size() > 1) {
    ParallelPhases();
  } else {
    SerialPhases();
  }
  ++round_;
  lla::runtime::RoundStats stats;
  Sample(&stats);
  const double wall = NowMs() - start;
  times_.round_ms += wall;
  times_.round_samples_ms.push_back(wall);
  ++times_.rounds;
  return stats;
}

void TracedDeployment::Sample(lla::runtime::RoundStats* stats) {
  const double start = NowMs();
  scratch_assignment_ = CurrentAssignment();
  lla::FillResourceShareSums(*workload_, *model_, scratch_assignment_,
                             &share_sums_);
  lla::FillPathLatencies(*workload_, scratch_assignment_, &path_latencies_);
  lla::FillTaskAggregates(*workload_, scratch_assignment_,
                          config_.solver.variant, &task_weighted_,
                          &task_utilities_);
  double utility = 0.0;
  for (double task_utility : task_utilities_) utility += task_utility;
  const lla::FeasibilitySummary summary = lla::SummarizeFeasibility(
      *workload_, share_sums_, path_latencies_,
      config_.convergence.feasibility_tol);
  stats->round = round_;
  stats->at_ms = bus_->now_ms();
  stats->total_utility = utility;
  stats->max_resource_excess = summary.max_resource_excess;
  stats->max_path_ratio = summary.max_path_ratio;
  stats->feasible = summary.feasible;
  times_.monitor_ms += NowMs() - start;
}

lla::Assignment TracedDeployment::CurrentAssignment() const {
  lla::Assignment latencies(workload_->subtask_count(), 0.0);
  for (const lla::TaskInfo& task : workload_->tasks()) {
    const auto& local = controllers_[task.id.value()]->latencies();
    for (std::size_t i = 0; i < task.subtasks.size(); ++i) {
      latencies[task.subtasks[i].value()] = local[i];
    }
  }
  return latencies;
}

void TracedDeployment::Checkpoint(
    std::vector<lla::runtime::ResourceAgentSnapshot>* resources,
    std::vector<lla::runtime::TaskControllerSnapshot>* controllers) const {
  resources->clear();
  controllers->clear();
  for (const auto& agent : agents_) resources->push_back(agent->Snapshot());
  for (const auto& controller : controllers_) {
    controllers->push_back(controller->Snapshot());
  }
}

void TracedDeployment::Restore(
    const std::vector<lla::runtime::ResourceAgentSnapshot>& resources,
    const std::vector<lla::runtime::TaskControllerSnapshot>& controllers) {
  for (std::size_t r = 0; r < resources.size(); ++r) {
    bus_->RestartEndpoint(resource_endpoints_[r]);
    agents_[r]->RestoreFromSnapshot(resources[r]);
    if (hooks_.restarts != nullptr) hooks_.restarts->Increment();
  }
  for (std::size_t t = 0; t < controllers.size(); ++t) {
    bus_->RestartEndpoint(controller_endpoints_[t]);
    controllers_[t]->RestoreFromSnapshot(controllers[t]);
    if (hooks_.restarts != nullptr) hooks_.restarts->Increment();
  }
}

}  // namespace perfbench
