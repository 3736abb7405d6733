// Sharded-coordinator pins (DESIGN.md §7.10).  The sharded deployment
// batches a shard's prices into one message and applies them as one
// contiguous vector write, so in synchronous rounds it must be *numerically
// identical* to the classic one-agent-per-resource deployment — same fixed
// point, same per-round prices — while sending strictly fewer messages.
// Message counts are asserted exactly against the combinatorial expectation
// (Σ_task used-shards + Σ_shard client-tasks), not just "smaller".
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "runtime/coordinator.h"
#include "workloads/paper.h"
#include "workloads/random.h"

namespace lla::runtime {
namespace {

// Dense workload: each task touches 12-16 of 16 resources, so with 4 shards
// every task's per-resource fan-out collapses ~4x.  A sparse workload would
// still be correct but would make the message-count contrast weak.
RandomWorkloadConfig DenseConfig() {
  RandomWorkloadConfig config;
  config.seed = 7;
  config.num_resources = 16;
  config.num_tasks = 12;
  config.min_subtasks = 12;
  config.max_subtasks = 16;
  return config;
}

CoordinatorConfig ShardedConfig(int num_shards) {
  CoordinatorConfig config;
  config.step.gamma0 = 3.0;
  config.bus.base_delay_ms = 0.0;
  config.num_shards = num_shards;
  return config;
}

TEST(ShardedCoordinator, SyncRunMatchesUnshardedBitExactly) {
  auto workload = MakeRandomWorkload(DenseConfig());
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator unsharded(w, model, ShardedConfig(0));
  Coordinator sharded(w, model, ShardedConfig(4));
  ASSERT_FALSE(unsharded.sharded());
  ASSERT_TRUE(sharded.sharded());
  EXPECT_EQ(sharded.shard_count(), 4u);

  const RunResult plain_run = unsharded.RunSync(4000);
  const RunResult shard_run = sharded.RunSync(4000);
  ASSERT_TRUE(plain_run.converged);
  ASSERT_TRUE(shard_run.converged);

  // Sync rounds interleave identically (all controllers, then all price
  // owners), and shard agents reuse ResourceAgent's exact Eq. 8 arithmetic
  // on disjoint slots — so the runs are bit-identical, not merely close.
  EXPECT_EQ(shard_run.final_utility, plain_run.final_utility);
  EXPECT_EQ(shard_run.iterations, plain_run.iterations);
  const PriceVector plain_prices = unsharded.CurrentPrices();
  const PriceVector shard_prices = sharded.CurrentPrices();
  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    EXPECT_EQ(shard_prices.mu[r], plain_prices.mu[r]) << "resource " << r;
  }
}

TEST(ShardedCoordinator, ShardsPartitionResourcesContiguously) {
  auto workload = MakeRandomWorkload(DenseConfig());
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  Coordinator coordinator(w, model, ShardedConfig(4));
  std::size_t covered = 0;
  std::uint32_t previous_owner = 0;
  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    int owners = 0;
    std::uint32_t owner = 0;
    for (std::size_t s = 0; s < coordinator.shard_count(); ++s) {
      if (coordinator.shard_agent(s).Hosts(ResourceId(r))) {
        ++owners;
        owner = coordinator.shard_agent(s).shard();
      }
    }
    ASSERT_EQ(owners, 1) << "resource " << r;
    EXPECT_GE(owner, previous_owner) << "partition must be contiguous";
    previous_owner = owner;
    ++covered;
  }
  EXPECT_EQ(covered, w.resource_count());

  // Requesting more shards than resources clamps instead of creating
  // empty shards.
  Coordinator clamped(w, model, ShardedConfig(64));
  EXPECT_EQ(clamped.shard_count(), w.resource_count());
}

TEST(ShardedCoordinator, RoundMessageCountMatchesShardCombinatorics) {
  auto workload = MakeRandomWorkload(DenseConfig());
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  const int kShards = 4;
  Coordinator unsharded(w, model, ShardedConfig(0));
  Coordinator sharded(w, model, ShardedConfig(kShards));

  // resource -> owning shard, recovered through the public Hosts() probe.
  std::vector<std::uint32_t> owner(w.resource_count(), 0);
  for (std::size_t r = 0; r < w.resource_count(); ++r) {
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      if (sharded.shard_agent(s).Hosts(ResourceId(r))) {
        owner[r] = sharded.shard_agent(s).shard();
      }
    }
  }

  // Per steady round: every controller sends one latency update per used
  // resource (classic) or per used shard (sharded); every price owner sends
  // one price update per client task.
  std::uint64_t expect_unsharded = 0;
  std::uint64_t expect_sharded = 0;
  std::vector<std::set<TaskId>> shard_clients(sharded.shard_count());
  std::vector<std::set<TaskId>> resource_clients(w.resource_count());
  for (const TaskInfo& task : w.tasks()) {
    std::set<ResourceId> used_resources;
    std::set<std::uint32_t> used_shards;
    for (SubtaskId s : task.subtasks) {
      const ResourceId r = w.subtask(s).resource;
      used_resources.insert(r);
      used_shards.insert(owner[r.value()]);
      resource_clients[r.value()].insert(task.id);
      shard_clients[owner[r.value()]].insert(task.id);
    }
    expect_unsharded += used_resources.size();
    expect_sharded += used_shards.size();
  }
  for (const auto& clients : resource_clients) {
    expect_unsharded += clients.size();
  }
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    expect_sharded += shard_clients[s].size();
    EXPECT_EQ(sharded.shard_agent(s).client_tasks().size(),
              shard_clients[s].size());
  }
  ASSERT_LT(expect_sharded, expect_unsharded);

  const int kRounds = 5;
  const net::BusStats plain_before = unsharded.bus().stats();
  for (int i = 0; i < kRounds; ++i) unsharded.RunSyncRound();
  const net::BusStats plain_after = unsharded.bus().stats();
  const net::BusStats shard_before = sharded.bus().stats();
  for (int i = 0; i < kRounds; ++i) sharded.RunSyncRound();
  const net::BusStats shard_after = sharded.bus().stats();

  EXPECT_EQ(plain_after.sent - plain_before.sent,
            expect_unsharded * kRounds);
  EXPECT_EQ(shard_after.sent - shard_before.sent, expect_sharded * kRounds);
  EXPECT_EQ(shard_after.dropped - shard_before.dropped, 0u);
}

// The engine<->runtime equivalence pin (DESIGN.md §8: 6e-5 relative utility
// on the paper workload) must keep holding when the runtime is sharded.
TEST(ShardedCoordinator, PaperWorkloadMatchesEngineWithinDocumentedBound) {
  auto workload = MakeSimWorkload();
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);

  LlaConfig engine_config;
  engine_config.step_policy = StepPolicyKind::kAdaptive;
  engine_config.gamma0 = 3.0;
  engine_config.record_history = false;
  LlaEngine engine(w, model, engine_config);
  const RunResult engine_run = engine.Run(12000);
  ASSERT_TRUE(engine_run.converged);

  Coordinator sharded(w, model, ShardedConfig(2));
  const RunResult shard_run = sharded.RunSync(12000);
  ASSERT_TRUE(shard_run.converged);
  ASSERT_TRUE(shard_run.final_feasibility.feasible);

  const double bound =
      6e-5 * std::max(1.0, std::fabs(engine_run.final_utility));
  EXPECT_NEAR(shard_run.final_utility, engine_run.final_utility, bound);
}

// The bus's wire self-check is live in every build type, this NDEBUG one
// included: a ShardPriceUpdate whose payload does not decode for its count
// aborts delivery with the check on.  With the check off the message is
// delivered, and the controller's decode check ignores it — its cached
// prices keep their values.
TEST(ShardedCoordinator, UndecodableShardPricesFailWireCheckOrAreIgnored) {
  auto workload = MakeRandomWorkload(DenseConfig());
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  const TaskId task(0u);

  // Task 0's used resources on shard 0 (which owns resources [0, 4) of
  // 16): the count its controller expects from that shard.
  std::set<std::uint32_t> used;
  for (const SubtaskId sid : w.task(task).subtasks) {
    const std::uint32_t r = w.subtask(sid).resource.value();
    if (r < w.resource_count() / 4) used.insert(r);
  }
  ASSERT_GE(used.size(), 2u);
  const auto count = static_cast<std::uint32_t>(used.size());
  // Encode one entry too few: the count matches, the payload does not.
  std::vector<double> mu(count - 1);
  for (std::size_t j = 0; j < mu.size(); ++j) mu[j] = 1e6 + j;
  const std::vector<std::uint8_t> congested(count - 1, 1);
  std::string arena;
  const net::ArenaSpan span = net::AppendShardPricePayload(
      mu.data(), congested.data(), nullptr, mu.size(), &arena);
  net::Message bad;
  bad.receiver = 0;  // controllers register first, in task order
  bad.sender = static_cast<net::EndpointId>(w.task_count());  // shard 0
  bad.payload = net::ShardPriceUpdate{
      0, 1u << 20, count,
      net::WireSlice::Copy(arena.data() + span.offset, span.length)};

  CoordinatorConfig checked = ShardedConfig(4);
  ASSERT_TRUE(checked.bus.verify_wire_format);
  Coordinator live(w, model, checked);
  live.RunSync(5);
  EXPECT_DEATH(
      {
        live.bus().Send(bad);
        live.bus().RunAll();
      },
      "wire self-check failed");

  CoordinatorConfig unchecked = ShardedConfig(4);
  unchecked.bus.verify_wire_format = false;
  Coordinator coordinator(w, model, unchecked);
  coordinator.RunSync(5);
  std::vector<double> before;
  for (const std::uint32_t r : used) {
    before.push_back(coordinator.controller(task).mu_seen(ResourceId(r)));
  }
  const std::uint64_t delivered = coordinator.bus().stats().delivered;
  coordinator.bus().Send(bad);
  coordinator.bus().RunAll();
  EXPECT_EQ(coordinator.bus().stats().delivered, delivered + 1);
  std::size_t k = 0;
  for (const std::uint32_t r : used) {
    EXPECT_EQ(coordinator.controller(task).mu_seen(ResourceId(r)), before[k++])
        << "resource " << r;
  }
}

// The positional price protocol decodes a shard's entries into one
// contiguous run of the task's sorted slots (DESIGN.md §7.14).  A
// partition whose shard ranges are not ascending and contiguous breaks
// that, so binding it aborts instead of mis-mapping prices.
TEST(ShardedCoordinator, NonContiguousShardTableAbortsAtBind) {
  auto workload = MakeRandomWorkload(DenseConfig());
  ASSERT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  ControllerShared shared(w, model, LatencySolverConfig{});
  TaskController controller(w, model, TaskId(0u), AgentStepConfig{},
                            &shared);
  // Resources alternate between two shards: every task of DenseConfig
  // uses at least two adjacent resources, so its runs interleave.
  std::vector<std::uint32_t> interleaved(w.resource_count());
  for (std::size_t r = 0; r < interleaved.size(); ++r) {
    interleaved[r] = static_cast<std::uint32_t>(r % 2);
  }
  const std::vector<net::EndpointId> endpoints = {0, 1};
  EXPECT_DEATH(controller.BindShards(&endpoints, &interleaved),
               "not one contiguous run");

  // The coordinator's ascending contiguous partition binds fine.
  std::vector<std::uint32_t> halves(w.resource_count());
  for (std::size_t r = 0; r < halves.size(); ++r) {
    halves[r] = r < halves.size() / 2 ? 0 : 1;
  }
  controller.BindShards(&endpoints, &halves);
  EXPECT_EQ(shared.shard_count, 2u);
}

}  // namespace
}  // namespace lla::runtime
