#include "runtime/shard_agent.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <utility>

namespace lla::runtime {

ShardAgent::ShardAgent(const Workload& workload, const LatencyModel& model,
                       std::uint32_t shard, ResourceId first_resource,
                       std::size_t count, AgentStepConfig config)
    : workload_(&workload),
      model_(&model),
      shard_(shard),
      first_(first_resource.value()),
      config_(config) {
  resources_.reserve(count);
  latency_offset_.reserve(count + 1);
  latency_offset_.push_back(0);
  std::map<TaskId, std::set<std::uint32_t>> clients;
  for (std::size_t i = 0; i < count; ++i) {
    const ResourceId r(static_cast<std::uint32_t>(first_ + i));
    resources_.push_back(r);
    const ResourceInfo& info = workload.resource(r);
    for (SubtaskId sid : info.subtasks) {
      subtask_slot_.emplace(sid.value(), latencies_.size());
      // Same "no demand yet" initial reading as the per-resource agent: an
      // effectively-infinite latency gives share ~ 0.
      latencies_.push_back(1e9);
      slot_resource_.push_back(static_cast<std::uint32_t>(i));
      clients[workload.subtask(sid).task].insert(
          static_cast<std::uint32_t>(i));
    }
    latency_offset_.push_back(latencies_.size());
  }
  client_tasks_.reserve(clients.size());
  client_resource_offset_.reserve(clients.size() + 1);
  client_resource_offset_.push_back(0);
  client_slot_offset_.reserve(clients.size() + 1);
  client_slot_offset_.push_back(0);
  client_latency_slots_.reserve(latencies_.size());
  resource_clients_.assign(count, {});
  for (const auto& [task, locals] : clients) {
    const auto c = static_cast<std::uint32_t>(client_tasks_.size());
    client_tasks_.push_back(task);
    for (const std::uint32_t local : locals) {
      client_resources_.push_back(local);
      resource_clients_[local].push_back(c);
    }
    client_resource_offset_.push_back(
        static_cast<std::uint32_t>(client_resources_.size()));
    // The positional latency list: the client's subtasks hosted here, in
    // the client's local subtask order — exactly the order the controller's
    // send plan (ControllerShared::send_subtasks) gathers.
    for (SubtaskId sid : workload.task(task).subtasks) {
      const auto it = subtask_slot_.find(sid.value());
      if (it != subtask_slot_.end()) {
        client_latency_slots_.push_back(static_cast<std::uint32_t>(it->second));
      }
    }
    client_slot_offset_.push_back(
        static_cast<std::uint32_t>(client_latency_slots_.size()));
  }
  mu_.assign(count, 0.0);
  gamma_multiplier_.assign(count, 1.0);
  velocity_.assign(count, 0.0);
  dynamics_base_.assign(count, 0.0);
  dynamics_phase_.assign(count, 0.0);
  congested_.assign(count, 0);
  resource_crashed_.assign(count, 0);
  awaiting_repair_.assign(count, 0);
  repair_adopted_.assign(count, 0);
  repair_grace_left_.assign(count, 0);
  best_repair_epoch_.assign(count, 0);
  task_incarnation_.assign(workload.task_count(), 0);
}

void ShardAgent::Bind(net::InProcessBus* bus, net::EndpointId self,
                      const std::vector<net::EndpointId>* controller_endpoints) {
  bus_ = bus;
  self_ = self;
  controller_endpoints_ = controller_endpoints;
}

bool ShardAgent::AcceptIncarnation(TaskId task, std::uint32_t incarnation) {
  std::uint32_t& seen = task_incarnation_[task.value()];
  if (incarnation < seen) {
    if (hooks_.stale_rejected != nullptr) hooks_.stale_rejected->Increment();
    return false;
  }
  seen = incarnation;
  return true;
}

int ShardAgent::ClientIndex(TaskId task) const {
  const auto it =
      std::lower_bound(client_tasks_.begin(), client_tasks_.end(), task);
  if (it == client_tasks_.end() || *it != task) return -1;
  return static_cast<int>(it - client_tasks_.begin());
}

void ShardAgent::OnMessage(const net::Message& message) {
  if (const auto* update =
          std::get_if<net::ShardLatencyUpdate>(&message.payload)) {
    if (update->shard != shard_) return;  // misrouted; ignore
    if (update->task.value() >= task_incarnation_.size()) return;
    if (!AcceptIncarnation(update->task, message.incarnation)) {
      DropClientMomentum(update->task);
      return;
    }
    ApplyLatencyUpdate(*update);
    return;
  }
  if (const auto* repair =
          std::get_if<net::RepairResponse>(&message.payload)) {
    if (!Hosts(repair->resource)) return;  // misrouted; ignore
    if (repair->task.value() >= task_incarnation_.size()) return;
    if (!AcceptIncarnation(repair->task, message.incarnation)) {
      const std::size_t local = Local(repair->resource);
      velocity_[local] = 0.0;
      dynamics_phase_[local] = 0.0;
      return;
    }
    ApplyRepairResponse(*repair);
    return;
  }
}

void ShardAgent::DropClientMomentum(TaskId task) {
  if (config_.dynamics.kind == DynamicsKind::kPlain) return;
  const int c = ClientIndex(task);
  if (c < 0) return;
  for (std::uint32_t j = client_resource_offset_[c];
       j < client_resource_offset_[c + 1]; ++j) {
    velocity_[client_resources_[j]] = 0.0;
    dynamics_phase_[client_resources_[j]] = 0.0;
  }
}

void ShardAgent::ApplyLatencyUpdate(const net::ShardLatencyUpdate& update) {
  const int c = ClientIndex(update.task);
  if (c < 0) return;  // not a client here; ignore
  const std::uint32_t* slots =
      client_latency_slots_.data() + client_slot_offset_[c];
  const std::size_t count =
      client_slot_offset_[c + 1] - client_slot_offset_[c];
  // The positional contract: the sender's entry list is derived from the
  // same static membership, so the counts must agree; a mismatch means a
  // stale or foreign binding and the whole message is ignored.
  if (update.count != count) return;
  if (!net::DecodeShardLatencyUpdate(update, &decode_scratch_)) return;
  if (!any_resource_faulted_) {
    for (std::size_t j = 0; j < count; ++j) {
      latencies_[slots[j]] = decode_scratch_[j];
    }
    return;
  }
  for (std::size_t j = 0; j < count; ++j) {
    // A crashed resource's state is frozen until its restart (the
    // per-resource analogue of the crashed agent ignoring messages).
    if (resource_crashed_[slot_resource_[slots[j]]] != 0) continue;
    latencies_[slots[j]] = decode_scratch_[j];
  }
}

void ShardAgent::ApplyRepairResponse(const net::RepairResponse& repair) {
  const std::size_t local = Local(repair.resource);
  if (resource_crashed_[local] != 0) return;  // still down; ignore
  // Absolute state from a client controller: always absorb the latencies
  // (they are the controller's current truth), and while awaiting repair
  // adopt the price from the freshest epoch offered — same policy as
  // ResourceAgent, scoped to one resource.
  for (std::size_t i = 0; i < repair.subtasks.size(); ++i) {
    const auto it = subtask_slot_.find(repair.subtasks[i].value());
    if (it == subtask_slot_.end()) continue;
    if (slot_resource_[it->second] != local) continue;  // misrouted entry
    latencies_[it->second] = repair.latencies_ms[i];
  }
  if (awaiting_repair_[local] != 0 &&
      (repair_adopted_[local] == 0 ||
       repair.epoch >= best_repair_epoch_[local])) {
    best_repair_epoch_[local] = repair.epoch;
    mu_[local] = repair.mu;
    congested_[local] = repair.congested ? 1 : 0;
    gamma_multiplier_[local] = 1.0;  // congestion history is gone
    // Re-base the dynamics at the adopted price: momentum history is gone
    // with the rest of the pre-crash state.
    velocity_[local] = 0.0;
    dynamics_base_[local] = repair.mu;
    dynamics_phase_[local] = 0.0;
    repair_adopted_[local] = 1;
    if (hooks_.repair_rounds != nullptr) hooks_.repair_rounds->Increment();
  }
}

void ShardAgent::CrashResource(ResourceId r) {
  assert(Hosts(r));
  resource_crashed_[Local(r)] = 1;
  any_resource_faulted_ = true;
}

void ShardAgent::ColdRestartResource(ResourceId r) {
  assert(bus_ != nullptr && Hosts(r));
  const std::size_t local = Local(r);
  resource_crashed_[local] = 0;
  std::fill(latencies_.begin() +
                static_cast<std::ptrdiff_t>(latency_offset_[local]),
            latencies_.begin() +
                static_cast<std::ptrdiff_t>(latency_offset_[local + 1]),
            1e9);
  mu_[local] = 0.0;
  gamma_multiplier_[local] = 1.0;
  velocity_[local] = 0.0;
  dynamics_base_[local] = 0.0;
  dynamics_phase_[local] = 0.0;
  congested_[local] = 0;
  awaiting_repair_[local] = 1;
  repair_adopted_[local] = 0;
  repair_grace_left_[local] = config_.repair_grace_ticks;
  best_repair_epoch_[local] = 0;
  any_resource_faulted_ = true;
  // Unlike a whole-agent restart there is no incarnation bump (the shard's
  // endpoint never went down) and no watermark reset: the transport state
  // survives, only this resource's dual state was lost.
  SendRepairRequest(local, nullptr);
}

void ShardAgent::SendRepairRequest(std::size_t local,
                                   std::vector<net::Message>* outbox) {
  net::RepairRequest request;
  request.resource = resources_[local];
  for (const std::uint32_t c : resource_clients_[local]) {
    net::Message message;
    message.sender = self_;
    message.receiver = (*controller_endpoints_)[client_tasks_[c].value()];
    message.payload = request;
    if (outbox != nullptr) {
      outbox->push_back(std::move(message));
    } else {
      bus_->Send(std::move(message));
    }
  }
}

double ShardAgent::ShareSum(ResourceId r) const {
  const std::size_t local = Local(r);
  const auto& hosted = workload_->resource(r).subtasks;
  const std::size_t base = latency_offset_[local];
  double sum = 0.0;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    const ShareFunction& share = model_->share(hosted[i]);
    const double lat = std::max(latencies_[base + i], share.MinLatency() + 1e-9);
    sum += share.Share(lat);
  }
  return sum;
}

bool ShardAgent::Congested(ResourceId r) const {
  return ShareSum(r) > workload_->resource(r).capacity;
}

void ShardAgent::ComputePricesAndBroadcast(
    std::vector<net::Message>* outbox) {
  assert(bus_ != nullptr);
  bool still_faulted = false;
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (any_resource_faulted_) {
      if (resource_crashed_[i] != 0) {
        still_faulted = true;
        continue;  // frozen: no Eq. 8 step, entry goes out stale
      }
      if (awaiting_repair_[i] != 0) {
        // Hold this resource's price while the repair exchange is in
        // flight (publishing the reset mu=0 would drag its clients through
        // a cold transient); re-request each held tick, resume once a
        // response was adopted or the grace budget is exhausted.
        if (repair_adopted_[i] == 0 && repair_grace_left_[i] > 0) {
          --repair_grace_left_[i];
          SendRepairRequest(i, outbox);
          still_faulted = true;
          continue;
        }
        awaiting_repair_[i] = 0;
      }
    }
    const ResourceId r = resources_[i];
    const ResourceInfo& info = workload_->resource(r);
    const double share_sum = ShareSum(r);
    const bool congested = share_sum > info.capacity;
    congested_[i] = congested ? 1 : 0;

    // Adaptive step (Sec. 5.2): double while congested, revert when not —
    // identical to the per-resource agent so sharded and unsharded sync runs
    // produce the same fixed point.
    if (config_.adaptive) {
      gamma_multiplier_[i] =
          congested ? std::min(gamma_multiplier_[i] * 2.0,
                               config_.adaptive_max_multiplier)
                    : 1.0;
    }
    const double gamma = config_.gamma0 * gamma_multiplier_[i];

    // Eq. 8 with projection at zero, optionally accelerated — identical
    // arithmetic to the per-resource agent (and, for plain / beta = 0, to
    // the pre-momentum inline update), so sharded and unsharded sync runs
    // still reach the same fixed point bit-for-bit.  The dynamics slots are
    // per-resource-local, so the parallel round's shard partition never
    // shares one and bit-identity at any round_threads is preserved.
    const double slack = info.capacity - share_sum;
    switch (config_.dynamics.kind) {
      case DynamicsKind::kPlain:
        mu_[i] = std::max(0.0, mu_[i] - gamma * slack);
        break;
      case DynamicsKind::kHeavyBall:
        mu_[i] = HeavyBallComponentStep(
                     config_.dynamics.momentum,
                     config_.dynamics.adaptive_restart, mu_[i], gamma, slack,
                     &velocity_[i], &dynamics_phase_[i], &momentum_restarts_)
                     .value;
        break;
      case DynamicsKind::kNesterov:
        mu_[i] = NesterovComponentStep(
                     config_.dynamics.momentum,
                     config_.dynamics.adaptive_restart, mu_[i], gamma, slack,
                     &velocity_[i], &dynamics_base_[i], &dynamics_phase_[i],
                     &momentum_restarts_)
                     .value;
        break;
    }
  }
  any_resource_faulted_ = still_faulted;
  ++epoch_;

  // One batched positional message per client, carrying only the prices
  // that client reads (a whole-shard vector to every client would multiply
  // the round's byte volume by shard_width / task_resources_per_shard on
  // sparse workloads).  All clients' payloads are encoded into one arena,
  // then sliced per message — encode once, slice per client.
  // The arena is reused once every message of the previous broadcast is
  // gone (the WireSlice::Assign rule); it keeps its capacity, so steady
  // state allocates nothing.
  if (price_arena_ == nullptr || price_arena_.use_count() != 1) {
    price_arena_ = std::make_shared<std::string>();
  } else {
    price_arena_->clear();
  }
  price_arena_->reserve(client_tasks_.size() * 2 + latencies_.size() * 8);
  client_spans_.resize(client_tasks_.size());
  for (std::size_t c = 0; c < client_tasks_.size(); ++c) {
    const std::uint32_t* locals =
        client_resources_.data() + client_resource_offset_[c];
    const std::size_t count =
        client_resource_offset_[c + 1] - client_resource_offset_[c];
    gather_mu_.resize(count);
    gather_congested_.resize(count);
    const std::uint8_t* stale = nullptr;
    for (std::size_t j = 0; j < count; ++j) {
      gather_mu_[j] = mu_[locals[j]];
      gather_congested_[j] = congested_[locals[j]];
    }
    if (any_resource_faulted_) {
      gather_stale_.resize(count);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint32_t i = locals[j];
        gather_stale_[j] =
            (resource_crashed_[i] != 0 || awaiting_repair_[i] != 0) ? 1 : 0;
      }
      stale = gather_stale_.data();
    }
    client_spans_[c] = net::AppendShardPricePayload(
        gather_mu_.data(), gather_congested_.data(), stale, count,
        price_arena_.get());
  }
  const std::shared_ptr<const std::string> arena = price_arena_;
  for (std::size_t c = 0; c < client_tasks_.size(); ++c) {
    net::ShardPriceUpdate update;
    update.shard = shard_;
    update.epoch = epoch_;
    update.count =
        client_resource_offset_[c + 1] - client_resource_offset_[c];
    update.payload = net::WireSlice(arena, client_spans_[c].offset,
                                    client_spans_[c].length);
    net::Message message;
    message.sender = self_;
    message.receiver = (*controller_endpoints_)[client_tasks_[c].value()];
    message.payload = std::move(update);
    if (outbox != nullptr) {
      outbox->push_back(std::move(message));
    } else {
      bus_->Send(std::move(message));
    }
  }
}

}  // namespace lla::runtime
