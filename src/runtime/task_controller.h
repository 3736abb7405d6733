// TaskController: the per-task participant of the distributed LLA protocol
// (paper Sec. 4.2, "Latency Allocation").
//
//   1. Receive the price values mu_r of the resources the task uses
//      (with the sender's congestion flag, for the adaptive step sizes).
//   2. Compute the path prices lambda_p of the task's own paths (Eq. 9).
//   3. Compute new latencies by zeroing the Lagrangian derivative (Eq. 7)
//      — delegated to LatencySolver::SolveTask.
//   4. Send the latencies to the resources hosting the subtasks — or, in a
//      sharded deployment, one batched message per shard touched.
//
// A controller object holds only pointers, offsets and flags.  Its state
// — latencies, path prices and step multipliers, and per used resource the
// cached price, congestion flag, epoch and incarnation watermark — lives in
// flat fleet arrays owned by a ControllerShared block (one per
// coordinator), indexed by the task's offsets, beside one solver and one
// full-size price/latency buffer for the whole fleet (DESIGN.md §7.14).
// Absorbing a price message or running Eq. 9 touches a few contiguous
// cache lines, and the controllers themselves, allocating nothing, sit
// back to back in memory when built one after another.
// Sharing is race-free: a controller writes only its own task's entries,
// and the bus delivers one endpoint's messages on one thread at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/latency_solver.h"
#include "core/prices.h"
#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "runtime/resource_agent.h"

namespace lla::runtime {

/// Per-coordinator state shared by every task controller: the latency
/// solver (its invariant caches are O(workload)), the full-size solve
/// buffers its interface requires, and the fleet's controller state as
/// flat arrays (DESIGN.md §7.14).
///
/// Task t owns three ranges, each in the task's own order:
///   * subtasks [subtask_offset[t], subtask_offset[t + 1]) of the
///     per-subtask arrays (local subtask order);
///   * paths [path_offset[t], path_offset[t + 1]) of the per-path arrays
///     (local path order);
///   * slots [used_offset[t], used_offset[t + 1]) of the per-slot arrays:
///     one slot per distinct resource it uses, ascending.
/// The constructor sizes all of them from the workload; the sharded tables
/// are built by the first TaskController::BindShards.
struct ControllerShared {
  ControllerShared(const Workload& workload, const LatencyModel& model,
                   LatencySolverConfig solver_config);

  /// Builds the sharded tables for the partition `resource_shard` (shard
  /// of each resource) into `shards` shards.  Idempotent for the same
  /// table; every controller of one fleet must bind the same one.  Aborts
  /// loudly when a task's resources on a shard are not one contiguous run
  /// of its sorted slots (shards must own ascending contiguous ranges).
  void BindShardTable(const std::vector<std::uint32_t>* resource_shard,
                      std::size_t shards);

  const Workload* workload;
  LatencySolver solver;
  PriceVector prices;
  Assignment latencies;

  /// Per subtask: the owning controller's latest latency.
  std::vector<std::uint32_t> subtask_offset;
  std::vector<double> local_latencies;

  /// Per path: the owning controller's path price (Eq. 9) and adaptive
  /// step multiplier.
  std::vector<std::uint32_t> path_offset;
  std::vector<double> local_lambdas;
  std::vector<double> path_gamma_multipliers;

  /// Per slot: the resource, the controller's cache of the resource's
  /// price message (one 16-byte record, so absorbing a message writes one
  /// contiguous run), and the highest sender incarnation seen (unsharded
  /// price messages and repair requests).
  struct CachedPrice {
    double mu = 0.0;
    std::uint32_t epoch = 0;
    std::uint8_t congested = 0;
  };
  std::vector<std::uint32_t> used_offset;
  std::vector<ResourceId> used_resources;
  std::vector<CachedPrice> price_cache;
  std::vector<std::uint32_t> used_incarnation;

  /// The Eq. 9 gather, indexed by global path id: path p's entries are
  /// path_entries[path_entry_offset[p] .. path_entry_offset[p + 1]), one
  /// per subtask of the path in path order, each naming the global subtask
  /// and the slot of its resource.
  struct PathEntry {
    std::uint32_t subtask;
    std::uint32_t slot;
  };
  std::vector<std::uint32_t> path_entry_offset;
  std::vector<PathEntry> path_entries;

  /// Sharded tables (empty until BindShardTable).
  const std::vector<std::uint32_t>* resource_shard = nullptr;
  std::size_t shard_count = 0;
  /// Receive side, S + 1 entries per task.  A shard owns a contiguous
  /// resource range and a task's slots are sorted, so the task's slots on
  /// shard s are one run: [shard_runs[t * (S + 1) + s].begin,
  /// shard_runs[t * (S + 1) + s + 1].begin).  The entry's incarnation is
  /// the watermark for shard s's messages to task t (unused in the
  /// sentinel entry s = S).
  struct ShardRun {
    std::uint32_t begin = 0;
    std::uint32_t incarnation = 0;
  };
  std::vector<ShardRun> shard_runs;
  /// Send side: task t's batched latency updates are
  /// send_runs[send_offset[t] .. send_offset[t + 1]), one per shard it
  /// touches in first-touch order over its local subtasks.  Update j
  /// carries the local subtasks send_subtasks[prev end .. send_runs[j].end)
  /// where prev end is subtask_offset[t] for the task's first update.
  struct SendRun {
    std::uint32_t shard;
    std::uint32_t end;
  };
  std::vector<std::uint32_t> send_offset;
  std::vector<SendRun> send_runs;
  std::vector<std::uint32_t> send_subtasks;
};

class TaskController {
 public:
  /// `shared` is owned by the coordinator and must outlive the controller;
  /// its solver holds the model, so `model` is not read here.  Allocates
  /// nothing.
  TaskController(const Workload& workload, const LatencyModel& model,
                 TaskId task, AgentStepConfig step_config,
                 ControllerShared* shared);

  /// Wires the controller to the bus.  `resource_endpoints[r]` is the
  /// endpoint of resource r's agent (non-owning; the coordinator keeps the
  /// vector alive).
  void Bind(net::InProcessBus* bus, net::EndpointId self,
            const std::vector<net::EndpointId>* resource_endpoints);

  /// Switches the controller to sharded sends: latencies go out as one
  /// ShardLatencyUpdate per shard touched, and ShardPriceUpdates are
  /// absorbed in one contiguous pass.  `resource_shard[r]` is the shard
  /// owning resource r; `shard_endpoints[s]` its agent's endpoint (both
  /// non-owning, coordinator-owned).  The first call builds the fleet's
  /// sharded tables (ControllerShared::BindShardTable), which abort loudly
  /// unless each shard owns an ascending contiguous resource range.
  void BindShards(const std::vector<net::EndpointId>* shard_endpoints,
                  const std::vector<std::uint32_t>* resource_shard);

  /// Handles a ResourcePriceUpdate / ShardPriceUpdate destined for this
  /// controller.
  void OnMessage(const net::Message& message);

  /// One latency allocation + path price update + broadcast.
  void AllocateAndSend();

  /// Parallel-round variant (DESIGN.md §7.11): publishes prices into the
  /// caller's per-lane PriceVector instead of the shared one (the shared
  /// mu slots overlap across tasks and would race), solves through the
  /// solver's const parallel path (the caller must have run
  /// solver.PrepareSolve() serially this round), and appends the outgoing
  /// messages to `outbox` for the caller's serial commit.  Bit-identical to
  /// AllocateAndSend() — both reach SolveTaskFresh with the full gather
  /// CSR.
  void AllocateAndSend(PriceVector* lane_prices,
                       std::vector<net::Message>* outbox);

  TaskId task() const { return task_; }

  /// Latencies of this task's subtasks (indexed by local subtask order).
  std::span<const double> latencies() const {
    return {shared_->local_latencies.data() + subtask_begin_,
            subtask_count_};
  }
  /// Path prices of this task's paths (indexed by local path order).
  std::span<const double> lambdas() const {
    return {shared_->local_lambdas.data() + path_begin_, path_count_};
  }
  /// Adaptive step multipliers of this task's paths (same local order).
  std::span<const double> path_step_multipliers() const {
    return {shared_->path_gamma_multipliers.data() + path_begin_,
            path_count_};
  }
  double mu_seen(ResourceId r) const;
  /// Resource epoch at which mu_seen(r) was cached (repair provenance).
  std::uint32_t mu_epoch_seen(ResourceId r) const;

  /// Crash-restart recovery (DESIGN.md §7.7); driven by the Coordinator in
  /// lockstep with the bus-side CrashEndpoint/RestartEndpoint.
  void set_recovery_hooks(const RecoveryHooks& hooks) { hooks_ = hooks; }
  void Crash();
  /// Rejoins with total state loss; the next resource broadcasts repopulate
  /// the price cache within one period (controllers need no repair exchange
  /// — resources re-send their state unprompted every tick).  Latencies
  /// restart at the solver's upper bound, the allocation at the all-zero
  /// prices the controller restarts with, so an observer sampling before
  /// the next allocation never sees a latency outside the share domain.
  void ColdRestart();
  /// Restores a Snapshot: the price cache entries are matched by resource
  /// id (entries for resources this task does not use are ignored).
  void RestoreFromSnapshot(const TaskControllerSnapshot& snapshot);
  /// O(own task): latencies, path state and the price cache of this task's
  /// used resources only.
  TaskControllerSnapshot Snapshot() const;
  /// Seeds the latencies of a controller that has not allocated yet (nor
  /// been restored) at the solver's upper bound, so an observer sampling
  /// before its first allocation sees a latency inside the share domain.
  /// No-op once the controller has allocated.  Call after any in-place
  /// share edits: LatHi builds the solver's model cache.
  void SeedUnallocatedLatencies();
  bool crashed() const { return crashed_; }

 private:
  /// Slot of `resource` among this task's slots, or -1 when this task has
  /// no subtask there.
  int UsedIndex(ResourceId resource) const;
  /// Incarnation-gated acceptance of a peer's message against one
  /// watermark (a slot's or a shard run's).
  bool AcceptIncarnation(std::uint32_t* seen, std::uint32_t incarnation);
  /// Sets every latency to the solver's upper bound, the allocation at
  /// all-zero prices.
  void SeedLatenciesAtLatHi();
  /// Clears this task's incarnation watermarks (restarts and restores).
  void ResetIncarnations();
  /// Absorbs a positional ShardPriceUpdate (DESIGN.md §7.11).
  void AbsorbShardPrices(const net::ShardPriceUpdate& update,
                         std::uint32_t incarnation);
  /// Shared body of both AllocateAndSend entry points.  `prepared_solver`
  /// selects the solver's const range path (requires a serial PrepareSolve
  /// earlier in the round); a null outbox sends directly.
  void AllocateAndSendImpl(PriceVector& prices, bool prepared_solver,
                           std::vector<net::Message>* outbox);
  /// Appends `message` to `outbox`, or sends it when `outbox` is null.
  void Emit(net::Message&& message, std::vector<net::Message>* outbox);
  /// Encodes this round's latencies into the latency arena and emits one
  /// ShardLatencyUpdate per shard touched.
  void SendShardLatencies(std::vector<net::Message>* outbox);
  double* local_latencies() {
    return shared_->local_latencies.data() + subtask_begin_;
  }
  double* local_lambdas() {
    return shared_->local_lambdas.data() + path_begin_;
  }
  double* path_gamma_multipliers() {
    return shared_->path_gamma_multipliers.data() + path_begin_;
  }

  // The fields every message handler reads come first, so an absorb
  // touches one cache line of the controller itself.
  ControllerShared* shared_;
  const std::vector<net::EndpointId>* shard_endpoints_ = nullptr;
  TaskId task_;
  /// This task's ranges of the fleet arrays (ControllerShared).
  std::uint32_t slot_begin_;
  std::uint32_t slot_end_;
  std::uint32_t subtask_begin_;
  std::uint32_t subtask_count_;
  std::uint32_t path_begin_;
  std::uint32_t path_count_;
  bool crashed_ = false;
  /// False until the first allocation, restore, cold restart or seed: the
  /// latencies are then still the constructor's placeholder zeros.
  bool has_latencies_ = false;
  RecoveryHooks hooks_;

  const Workload* workload_;
  AgentStepConfig step_config_;

  net::InProcessBus* bus_ = nullptr;
  net::EndpointId self_ = 0;
  const std::vector<net::EndpointId>* resource_endpoints_ = nullptr;

  /// The latency arena of the sharded wire path, kept across rounds and
  /// rewritten in place while no message in flight still references it
  /// (DESIGN.md §7.14).
  std::shared_ptr<std::string> latency_arena_;
};

}  // namespace lla::runtime
