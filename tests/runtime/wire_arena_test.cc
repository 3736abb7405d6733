// Wire-arena reuse (DESIGN.md §7.14).  A controller rewrites its latency
// arena in place only when no message still references it; a send while
// earlier messages are in flight must take a fresh arena, or the earlier
// messages would decode to the later latencies.  The deployment is wired
// by hand, as the perfbench harness wires it, so two sends can precede one
// delivery.  The parallel case also runs in the TSan test binary: arenas
// released on delivery threads are rewritten on lane threads next round.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "net/bus.h"
#include "runtime/shard_agent.h"
#include "runtime/task_controller.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

using ShardPayloads = std::map<std::uint32_t, std::vector<double>>;

/// A sharded fleet of controllers and shard agents on one zero-delay bus.
/// Each shard endpoint decodes and records every ShardLatencyUpdate before
/// its agent absorbs it.
class HandWiredFleet {
 public:
  HandWiredFleet(const Workload& workload, const LatencyModel& model,
                 std::size_t shards)
      : workload_(&workload),
        shared_(workload, model, LatencySolverConfig{}),
        received_(shards) {
    net::BusConfig bus_config;
    bus_config.base_delay_ms = 0.0;
    bus_ = std::make_unique<net::InProcessBus>(bus_config);
    const AgentStepConfig step;
    for (const TaskInfo& task : workload.tasks()) {
      controllers_.push_back(std::make_unique<TaskController>(
          workload, model, task.id, step, &shared_));
    }
    const std::size_t resources = workload.resource_count();
    resource_shard_.assign(resources, 0);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t first = resources * s / shards;
      const std::size_t last = resources * (s + 1) / shards;
      shards_.push_back(std::make_unique<ShardAgent>(
          workload, model, static_cast<std::uint32_t>(s),
          ResourceId(static_cast<std::uint32_t>(first)), last - first, step));
      for (std::size_t r = first; r < last; ++r) {
        resource_shard_[r] = static_cast<std::uint32_t>(s);
      }
    }
    prices_received_.resize(controllers_.size());
    for (std::size_t t = 0; t < controllers_.size(); ++t) {
      TaskController* c = controllers_[t].get();
      std::vector<ReceivedPrices>* log = &prices_received_[t];
      controller_endpoints_.push_back(bus_->Register(
          "controller", [c, log](const net::Message& m) {
            if (const auto* update =
                    std::get_if<net::ShardPriceUpdate>(&m.payload)) {
              std::vector<double> mu;
              net::ShardPriceBitsets bits;
              EXPECT_TRUE(net::DecodeShardPriceUpdate(*update, &mu, &bits));
              log->push_back({update->shard, std::move(mu)});
            }
            c->OnMessage(m);
          }));
    }
    for (std::size_t s = 0; s < shards; ++s) {
      ShardAgent* agent = shards_[s].get();
      std::vector<Received>* log = &received_[s];
      shard_endpoints_.push_back(bus_->Register(
          "shard", [agent, log](const net::Message& m) {
            if (const auto* update =
                    std::get_if<net::ShardLatencyUpdate>(&m.payload)) {
              std::vector<double> values;
              EXPECT_TRUE(net::DecodeShardLatencyUpdate(*update, &values));
              log->push_back({update->task, std::move(values)});
            }
            agent->OnMessage(m);
          }));
    }
    for (std::size_t t = 0; t < controllers_.size(); ++t) {
      controllers_[t]->Bind(bus_.get(), controller_endpoints_[t], nullptr);
      controllers_[t]->BindShards(&shard_endpoints_, &resource_shard_);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      shards_[s]->Bind(bus_.get(), shard_endpoints_[s],
                       &controller_endpoints_);
    }
  }

  /// One serial round: every controller allocates, delivery, every shard
  /// prices, delivery.
  void SerialRound() {
    for (auto& controller : controllers_) controller->AllocateAndSend();
    bus_->RunAll();
    for (auto& shard : shards_) shard->ComputePricesAndBroadcast();
    bus_->RunAll();
  }

  /// The latencies `controller` just allocated, grouped per shard in the
  /// controller's local subtask order: the payload each of its
  /// ShardLatencyUpdates must carry.
  ShardPayloads ExpectedPayloads(const TaskController& controller) const {
    ShardPayloads payloads;
    const TaskInfo& info = workload_->task(controller.task());
    for (std::size_t i = 0; i < info.subtasks.size(); ++i) {
      const ResourceId r = workload_->subtask(info.subtasks[i]).resource;
      payloads[resource_shard_[r.value()]].push_back(
          controller.latencies()[i]);
    }
    return payloads;
  }

  /// A ShardPriceUpdate from every shard the controller touches, quoting
  /// `mu` for each of its resources there.
  std::vector<net::Message> PriceUpdates(const TaskController& controller,
                                         double mu) const {
    std::map<std::uint32_t, std::vector<ResourceId>> resources;
    for (SubtaskId sid : workload_->task(controller.task()).subtasks) {
      const ResourceId r = workload_->subtask(sid).resource;
      auto& list = resources[resource_shard_[r.value()]];
      if (std::find(list.begin(), list.end(), r) == list.end()) {
        list.push_back(r);
      }
    }
    std::vector<net::Message> messages;
    for (const auto& [shard, list] : resources) {
      const std::vector<double> prices(list.size(), mu);
      const std::vector<std::uint8_t> congested(list.size(), 0);
      std::string arena;
      const net::ArenaSpan span = net::AppendShardPricePayload(
          prices.data(), congested.data(), nullptr, list.size(), &arena);
      net::ShardPriceUpdate update;
      update.shard = shard;
      update.epoch = 1000;
      update.count = static_cast<std::uint32_t>(list.size());
      update.payload =
          net::WireSlice(std::make_shared<const std::string>(std::move(arena)),
                         span.offset, span.length);
      net::Message message;
      message.sender = shard_endpoints_[shard];
      message.receiver = controller_endpoints_[controller.task().value()];
      message.payload = std::move(update);
      messages.push_back(std::move(message));
    }
    return messages;
  }

  /// The payloads each shard received from `task`, in delivery order.
  std::vector<ShardPayloads> ReceivedFrom(TaskId task) const {
    std::vector<ShardPayloads> sends;
    for (std::size_t s = 0; s < received_.size(); ++s) {
      std::size_t k = 0;
      for (const Received& entry : received_[s]) {
        if (entry.task != task) continue;
        if (sends.size() <= k) sends.resize(k + 1);
        sends[k++][static_cast<std::uint32_t>(s)] = entry.latencies;
      }
    }
    return sends;
  }

  /// The prices shard `shard` quotes to `task`: its current mu of each
  /// resource the task uses there, ascending.
  std::vector<double> ExpectedPrices(TaskId task, std::uint32_t shard) const {
    std::vector<ResourceId> used;
    for (SubtaskId sid : workload_->task(task).subtasks) {
      const ResourceId r = workload_->subtask(sid).resource;
      if (resource_shard_[r.value()] == shard) used.push_back(r);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    std::vector<double> prices;
    for (const ResourceId r : used) prices.push_back(shards_[shard]->mu(r));
    return prices;
  }

  /// The decoded price updates `task` received from `shard`, in order.
  std::vector<std::vector<double>> PricesReceived(TaskId task,
                                                  std::uint32_t shard) const {
    std::vector<std::vector<double>> prices;
    for (const ReceivedPrices& entry : prices_received_[task.value()]) {
      if (entry.shard == shard) prices.push_back(entry.mu);
    }
    return prices;
  }

  void ClearReceived() {
    for (auto& log : received_) log.clear();
    for (auto& log : prices_received_) log.clear();
  }

  net::InProcessBus& bus() { return *bus_; }
  ControllerShared& shared() { return shared_; }
  std::vector<std::unique_ptr<TaskController>>& controllers() {
    return controllers_;
  }
  std::vector<std::unique_ptr<ShardAgent>>& shards() { return shards_; }

 private:
  struct Received {
    TaskId task;
    std::vector<double> latencies;
  };
  struct ReceivedPrices {
    std::uint32_t shard;
    std::vector<double> mu;
  };

  const Workload* workload_;
  ControllerShared shared_;
  std::unique_ptr<net::InProcessBus> bus_;
  std::vector<std::unique_ptr<TaskController>> controllers_;
  std::vector<std::unique_ptr<ShardAgent>> shards_;
  std::vector<std::uint32_t> resource_shard_;
  std::vector<net::EndpointId> controller_endpoints_;
  std::vector<net::EndpointId> shard_endpoints_;
  /// Per shard: the decoded latency updates it received, in order.
  std::vector<std::vector<Received>> received_;
  /// Per task: the decoded price updates its controller received.
  std::vector<std::vector<ReceivedPrices>> prices_received_;
};

Workload MakeFleetWorkload() {
  RandomWorkloadConfig config;
  config.seed = 5;
  config.num_resources = 12;
  config.num_tasks = 24;
  auto workload = MakeRandomWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.error();
  return std::move(workload).value();
}

TEST(WireArenaTest, SecondSendBeforeDeliveryKeepsTheFirstPayload) {
  const Workload w = MakeFleetWorkload();
  LatencyModel model(w);
  HandWiredFleet fleet(w, model, 3);
  // Warm-up: every arena exists and, delivered, is free for reuse.
  for (int round = 0; round < 3; ++round) fleet.SerialRound();
  fleet.ClearReceived();

  for (auto& controller : fleet.controllers()) {
    controller->AllocateAndSend();
    const ShardPayloads first = fleet.ExpectedPayloads(*controller);
    for (const net::Message& message :
         fleet.PriceUpdates(*controller, 40.0)) {
      controller->OnMessage(message);
    }
    controller->AllocateAndSend();
    const ShardPayloads second = fleet.ExpectedPayloads(*controller);
    ASSERT_NE(first, second) << "the price change must move the latencies";
    fleet.bus().RunAll();
    const std::vector<ShardPayloads> received =
        fleet.ReceivedFrom(controller->task());
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(received[0], first) << "task " << controller->task().value();
    EXPECT_EQ(received[1], second) << "task " << controller->task().value();
    fleet.ClearReceived();
  }
  // Reused again after delivery: the next plain round still carries the
  // latencies of its own send.
  for (auto& controller : fleet.controllers()) controller->AllocateAndSend();
  std::vector<ShardPayloads> expected;
  for (auto& controller : fleet.controllers()) {
    expected.push_back(fleet.ExpectedPayloads(*controller));
  }
  fleet.bus().RunAll();
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const std::vector<ShardPayloads> received =
        fleet.ReceivedFrom(TaskId(static_cast<std::uint32_t>(t)));
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0], expected[t]) << "task " << t;
  }
}

// The shard side follows the same rule for its price arena: a second
// broadcast before delivery must not rewrite the first one's payloads.
TEST(WireArenaTest, SecondBroadcastBeforeDeliveryKeepsTheFirstPrices) {
  const Workload w = MakeFleetWorkload();
  LatencyModel model(w);
  HandWiredFleet fleet(w, model, 3);
  for (int round = 0; round < 3; ++round) fleet.SerialRound();
  for (auto& controller : fleet.controllers()) controller->AllocateAndSend();
  fleet.bus().RunAll();
  fleet.ClearReceived();
  for (auto& shard : fleet.shards()) {
    const std::uint32_t s = shard->shard();
    std::vector<std::vector<double>> first, second;
    shard->ComputePricesAndBroadcast();
    for (const TaskId task : shard->client_tasks()) {
      first.push_back(fleet.ExpectedPrices(task, s));
    }
    shard->ComputePricesAndBroadcast();
    for (const TaskId task : shard->client_tasks()) {
      second.push_back(fleet.ExpectedPrices(task, s));
    }
    ASSERT_NE(first, second) << "a second Eq. 8 step must move the prices";
    fleet.bus().RunAll();
    for (std::size_t c = 0; c < shard->client_tasks().size(); ++c) {
      const TaskId task = shard->client_tasks()[c];
      const std::vector<std::vector<double>> received =
          fleet.PricesReceived(task, s);
      ASSERT_EQ(received.size(), 2u);
      EXPECT_EQ(received[0], first[c]) << "shard " << s << " task "
                                       << task.value();
      EXPECT_EQ(received[1], second[c]) << "shard " << s << " task "
                                        << task.value();
    }
  }
}

// The parallel round: lanes send twice per controller into their outboxes,
// delivery runs on the pool, and the next round's lanes rewrite arenas the
// delivery threads released.
TEST(WireArenaTest, ParallelLanesNeverOverwriteAPayloadInFlight) {
  const Workload w = MakeFleetWorkload();
  LatencyModel model(w);
  HandWiredFleet fleet(w, model, 3);
  ThreadPool pool(4);
  auto& controllers = fleet.controllers();
  const int width = pool.size();
  std::vector<PriceVector> lane_prices(width, PriceVector::Zero(w));
  std::vector<std::vector<net::Message>> outboxes(width);
  const auto commit = [&] {
    for (auto& outbox : outboxes) {
      for (net::Message& message : outbox) fleet.bus().Send(std::move(message));
      outbox.clear();
    }
  };
  std::vector<ShardPayloads> first(controllers.size());
  std::vector<ShardPayloads> second(controllers.size());
  for (int round = 0; round < 4; ++round) {
    fleet.ClearReceived();
    fleet.shared().solver.PrepareSolve();
    const int lanes = pool.ParticipantsFor(controllers.size(), 1);
    pool.RunRegion(lanes, [&](int index, int total) {
      const auto [begin, end] = ChunkRange(controllers.size(), total, index);
      for (std::size_t t = begin; t < end; ++t) {
        TaskController& controller = *controllers[t];
        controller.AllocateAndSend(&lane_prices[index], &outboxes[index]);
        first[t] = fleet.ExpectedPayloads(controller);
        for (const net::Message& message :
             fleet.PriceUpdates(controller, 20.0 + 10.0 * round)) {
          controller.OnMessage(message);
        }
        controller.AllocateAndSend(&lane_prices[index], &outboxes[index]);
        second[t] = fleet.ExpectedPayloads(controller);
      }
    });
    commit();
    fleet.bus().RunAllParallel(&pool);
    for (std::size_t t = 0; t < controllers.size(); ++t) {
      const std::vector<ShardPayloads> received =
          fleet.ReceivedFrom(TaskId(static_cast<std::uint32_t>(t)));
      ASSERT_EQ(received.size(), 2u) << "round " << round << " task " << t;
      EXPECT_EQ(received[0], first[t]) << "round " << round << " task " << t;
      EXPECT_EQ(received[1], second[t]) << "round " << round << " task " << t;
    }
    auto& shards = fleet.shards();
    const int shard_lanes = pool.ParticipantsFor(shards.size(), 1);
    pool.RunRegion(shard_lanes, [&](int index, int total) {
      const auto [begin, end] = ChunkRange(shards.size(), total, index);
      for (std::size_t s = begin; s < end; ++s) {
        shards[s]->ComputePricesAndBroadcast(&outboxes[index]);
      }
    });
    commit();
    fleet.bus().RunAllParallel(&pool);
  }
}

}  // namespace
}  // namespace lla::runtime
