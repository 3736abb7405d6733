// ShardAgent: the batched, many-resources-per-agent variant of
// ResourceAgent for large deployments (DESIGN.md §7.10).
//
// A shard owns a contiguous range of resources.  Controllers send one
// ShardLatencyUpdate per shard they touch (instead of one LatencyUpdate per
// resource), and the shard answers each round with a single
// ShardPriceUpdate per client carrying the batched prices of exactly the
// resources that client uses on the shard — so the coordinator's per-round
// message count drops from O(resources) to O(shards) per task without
// inflating bytes on sparse workloads, while every per-resource quantity
// (share sum, Eq. 8 price, adaptive step multiplier, congestion flag) is
// computed exactly as the one-resource agent computes it.
//
// Since PR 9 the shard messages are positional (DESIGN.md §7.11): shard
// membership is static, so the agent derives, once, the ordered entry list
// of each client — latency slots for inbound updates, used resources for
// outbound prices — and the wire carries only b1-encoded value arrays.
// All clients' price payloads are encoded into ONE arena per round and each
// message holds a WireSlice into it (encode once, slice per client); the
// arena is reused across rounds once no message references it.
//
// Per-resource fault injection: a single resource inside the shard can be
// crashed and cold-restarted (the shard's endpoint stays up — the failing
// unit is the resource's state, not the transport).  A crashed resource's
// price entries are marked stale in the broadcasts (clients keep their
// cached price) and inbound latency writes to it are dropped; a cold
// restart re-runs the ResourceAgent repair exchange (RepairRequest to the
// resource's clients, freshest-epoch adoption, grace-held broadcast) for
// just that resource.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/latency_model.h"
#include "model/workload.h"
#include "net/bus.h"
#include "runtime/resource_agent.h"

namespace lla::runtime {

class ShardAgent {
 public:
  /// The shard owns resources [first_resource, first_resource + count).
  ShardAgent(const Workload& workload, const LatencyModel& model,
             std::uint32_t shard, ResourceId first_resource,
             std::size_t count, AgentStepConfig config);

  /// Wires the agent to the bus.  `controller_endpoints[t]` is the endpoint
  /// of task t's controller (non-owning; the coordinator keeps the vector
  /// alive).  Only controllers with subtasks on this shard are messaged.
  void Bind(net::InProcessBus* bus, net::EndpointId self,
            const std::vector<net::EndpointId>* controller_endpoints);

  /// Handles a ShardLatencyUpdate or RepairResponse destined for this
  /// shard.
  void OnMessage(const net::Message& message);

  /// One price computation for every owned resource + a single batched
  /// broadcast per client controller.  With an outbox, the messages are
  /// appended to it instead of sent (the parallel round's deferred-commit
  /// path); a null outbox sends directly.
  void ComputePricesAndBroadcast() { ComputePricesAndBroadcast(nullptr); }
  void ComputePricesAndBroadcast(std::vector<net::Message>* outbox);

  /// Per-resource fault injection (the resource must be hosted here).
  /// CrashResource freezes the resource: its price entries go out stale and
  /// inbound latency writes to it are dropped.  ColdRestartResource clears
  /// the crash with total loss of the resource's state and starts the
  /// repair exchange with its client controllers.
  void CrashResource(ResourceId r);
  void ColdRestartResource(ResourceId r);
  bool resource_crashed(ResourceId r) const {
    return resource_crashed_[Local(r)] != 0;
  }
  bool resource_awaiting_repair(ResourceId r) const {
    return awaiting_repair_[Local(r)] != 0;
  }

  std::uint32_t shard() const { return shard_; }
  std::size_t resource_count() const { return resources_.size(); }
  bool Hosts(ResourceId r) const {
    return r.value() >= first_ && r.value() < first_ + resources_.size();
  }
  double mu(ResourceId r) const { return mu_[Local(r)]; }
  double step_multiplier(ResourceId r) const {
    return gamma_multiplier_[Local(r)];
  }
  /// Momentum velocity of one resource (0.0 while dynamics are plain).
  double velocity(ResourceId r) const { return velocity_[Local(r)]; }
  /// Adaptive restarts fired across all owned resources' dynamics.
  std::uint64_t momentum_restarts() const { return momentum_restarts_; }
  double ShareSum(ResourceId r) const;
  bool Congested(ResourceId r) const;
  std::uint32_t epoch() const { return epoch_; }
  const std::vector<TaskId>& client_tasks() const { return client_tasks_; }

  void set_recovery_hooks(const RecoveryHooks& hooks) { hooks_ = hooks; }

 private:
  std::size_t Local(ResourceId r) const { return r.value() - first_; }
  /// Incarnation-gated acceptance of a peer controller's message.
  bool AcceptIncarnation(TaskId task, std::uint32_t incarnation);
  /// Index of `task` in client_tasks_ (sorted ascending), or -1.
  int ClientIndex(TaskId task) const;
  /// RepairRequest for one restarted resource to its client controllers
  /// (appended to `outbox` when non-null, sent directly otherwise).
  void SendRepairRequest(std::size_t local, std::vector<net::Message>* outbox);
  void ApplyLatencyUpdate(const net::ShardLatencyUpdate& update);
  void ApplyRepairResponse(const net::RepairResponse& repair);

  const Workload* workload_;
  const LatencyModel* model_;
  std::uint32_t shard_;
  std::size_t first_;
  AgentStepConfig config_;

  net::InProcessBus* bus_ = nullptr;
  net::EndpointId self_ = 0;
  const std::vector<net::EndpointId>* controller_endpoints_ = nullptr;
  std::vector<ResourceId> resources_;
  std::vector<TaskId> client_tasks_;  ///< tasks with subtasks here, sorted
  /// Client c's entry lists in CSR form (compressed sparse rows over
  /// client_tasks_ order).  client_resources_[client_resource_offset_[c] ..
  /// client_resource_offset_[c + 1]) = sorted local indices of the
  /// resources client c uses here; its per-round price update carries
  /// exactly these, positionally (the controller derives the same ascending
  /// list).  client_latency_slots_[client_slot_offset_[c] ..
  /// client_slot_offset_[c + 1]) = flat latency slot of each entry of
  /// client c's ShardLatencyUpdate, in the client's local subtask order (the
  /// same order the controller's send plan gathers).
  std::vector<std::uint32_t> client_resource_offset_;
  std::vector<std::uint32_t> client_resources_;
  std::vector<std::uint32_t> client_slot_offset_;
  std::vector<std::uint32_t> client_latency_slots_;
  /// clients of each resource, as indices into client_tasks_ (repair).
  std::vector<std::vector<std::uint32_t>> resource_clients_;

  /// Flattened latest-latency inputs: resource-local slice
  /// [latency_offset_[i], latency_offset_[i+1]) holds the latencies of
  /// workload.resource(resources_[i]).subtasks in hosted order.
  std::vector<double> latencies_;
  std::vector<std::size_t> latency_offset_;
  /// Owning local resource of each flat latency slot.
  std::vector<std::uint32_t> slot_resource_;
  /// Flat slot per hosted subtask id (only this shard's subtasks appear).
  std::unordered_map<std::uint32_t, std::size_t> subtask_slot_;

  /// Incarnation-stale traffic from `task` was rejected: drop the momentum
  /// of every resource that client feeds here (its latency stream — the
  /// gradient input — is discontinuous at the sender's crash boundary, so
  /// built-up velocity must not be replayed into post-crash gradients).
  void DropClientMomentum(TaskId task);

  /// Per-resource dual state, indexed by Local().
  std::vector<double> mu_;
  std::vector<double> gamma_multiplier_;
  /// Per-resource momentum state (DESIGN.md §7.12), parallel to resources_:
  /// velocity, Nesterov base iterate, and ramp phase.  Updated only inside
  /// ComputePricesAndBroadcast — per-resource-local, so the parallel round's
  /// lane partition never shares a slot and the fixed point stays
  /// bit-identical at any round_threads.
  std::vector<double> velocity_;
  std::vector<double> dynamics_base_;
  std::vector<double> dynamics_phase_;
  std::uint64_t momentum_restarts_ = 0;
  /// This round's congestion flags, filled by ComputePricesAndBroadcast
  /// before the per-client sends (scratch; avoids re-deriving share sums).
  std::vector<std::uint8_t> congested_;
  std::uint32_t epoch_ = 0;

  /// Per-resource fault state (all parallel to resources_).  The shard-wide
  /// epoch_ keeps running across single-resource restarts; only the
  /// resource's own dual state resets.
  std::vector<std::uint8_t> resource_crashed_;
  std::vector<std::uint8_t> awaiting_repair_;
  std::vector<std::uint8_t> repair_adopted_;
  std::vector<int> repair_grace_left_;
  std::vector<std::uint32_t> best_repair_epoch_;
  /// True while any entry of resource_crashed_ / awaiting_repair_ is set —
  /// keeps the fault bookkeeping off the fault-free broadcast fast path.
  bool any_resource_faulted_ = false;

  /// The price arena, kept across rounds and rewritten in place while no
  /// message in flight still references it (DESIGN.md §7.14).
  std::shared_ptr<std::string> price_arena_;
  /// Reused encode/decode scratch (per-client gathers + payload decode).
  std::vector<double> gather_mu_;
  std::vector<std::uint8_t> gather_congested_;
  std::vector<std::uint8_t> gather_stale_;
  std::vector<net::ArenaSpan> client_spans_;
  std::vector<double> decode_scratch_;

  RecoveryHooks hooks_;
  /// Highest sender incarnation seen per client task (stale rejection).
  std::vector<std::uint32_t> task_incarnation_;
};

}  // namespace lla::runtime
