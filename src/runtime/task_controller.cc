#include "runtime/task_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace lla::runtime {

ControllerShared::ControllerShared(const Workload& w,
                                   const LatencyModel& model,
                                   LatencySolverConfig solver_config)
    : workload(&w),
      solver(w, model, solver_config),
      prices(PriceVector::Zero(w)),
      latencies(w.subtask_count(), 0.0) {
  const std::size_t tasks = w.task_count();
  subtask_offset.reserve(tasks + 1);
  path_offset.reserve(tasks + 1);
  used_offset.reserve(tasks + 1);
  subtask_offset.push_back(0);
  path_offset.push_back(0);
  used_offset.push_back(0);
  // Each task's distinct resources, ascending, appended task by task.
  used_resources.reserve(w.subtask_count());
  for (const TaskInfo& task : w.tasks()) {
    subtask_offset.push_back(subtask_offset.back() +
                             static_cast<std::uint32_t>(task.subtasks.size()));
    path_offset.push_back(path_offset.back() +
                          static_cast<std::uint32_t>(task.paths.size()));
    const auto begin = static_cast<std::ptrdiff_t>(used_resources.size());
    for (SubtaskId sid : task.subtasks) {
      used_resources.push_back(w.subtask(sid).resource);
    }
    std::sort(used_resources.begin() + begin, used_resources.end());
    used_resources.erase(
        std::unique(used_resources.begin() + begin, used_resources.end()),
        used_resources.end());
    used_offset.push_back(static_cast<std::uint32_t>(used_resources.size()));
  }
  local_latencies.assign(subtask_offset.back(), 0.0);
  local_lambdas.assign(path_offset.back(), 0.0);
  path_gamma_multipliers.assign(path_offset.back(), 1.0);
  price_cache.assign(used_resources.size(), CachedPrice{});
  used_incarnation.assign(used_resources.size(), 0);

  std::size_t entries = 0;
  for (const PathInfo& path : w.paths()) entries += path.subtasks.size();
  path_entry_offset.reserve(w.path_count() + 1);
  path_entry_offset.push_back(0);
  path_entries.reserve(entries);
  for (const PathInfo& path : w.paths()) {
    const auto first = used_resources.begin() + used_offset[path.task.value()];
    const auto last =
        used_resources.begin() + used_offset[path.task.value() + 1];
    for (SubtaskId sid : path.subtasks) {
      const auto it =
          std::lower_bound(first, last, w.subtask(sid).resource);
      path_entries.push_back(
          {sid.value(),
           static_cast<std::uint32_t>(it - used_resources.begin())});
    }
    path_entry_offset.push_back(
        static_cast<std::uint32_t>(path_entries.size()));
  }
}

void ControllerShared::BindShardTable(
    const std::vector<std::uint32_t>* table, std::size_t shards) {
  if (resource_shard == table && shard_count == shards) return;
  if (resource_shard != nullptr) {
    std::fprintf(stderr,
                 "ControllerShared: controllers of one fleet bound two "
                 "different shard tables (%zu and %zu shards); every "
                 "controller must bind the same one.\n",
                 shard_count, shards);
    std::abort();
  }
  resource_shard = table;
  shard_count = shards;
  const std::size_t tasks = used_offset.size() - 1;

  // Receive side: the run boundaries of each task's slots per shard.  The
  // slots are sorted, so with ascending contiguous shard ranges a task's
  // slots on shard s follow those on every shard before s.
  shard_runs.assign(tasks * (shards + 1), ShardRun{});
  for (std::size_t t = 0; t < tasks; ++t) {
    ShardRun* run = &shard_runs[t * (shards + 1)];
    std::uint32_t slot = used_offset[t];
    for (std::size_t s = 0; s < shards; ++s) {
      run[s].begin = slot;
      while (slot < used_offset[t + 1] &&
             (*table)[used_resources[slot].value()] == s) {
        ++slot;
      }
    }
    run[shards].begin = slot;
    if (slot != used_offset[t + 1]) {
      const std::uint32_t resource = used_resources[slot].value();
      std::fprintf(stderr,
                   "ControllerShared::BindShardTable: task %zu's resources "
                   "on a shard are not one contiguous run of its sorted "
                   "resources (resource %u, shard %u, comes out of order).  "
                   "Shards must own ascending contiguous resource ranges.\n",
                   t, resource, (*table)[resource]);
      std::abort();
    }
  }

  // Send side: each task's subtasks grouped by shard, shards in
  // first-touch order over the local subtasks, so each send is a gather
  // over a precomputed index list.
  send_offset.assign(1, 0);
  send_runs.clear();
  send_subtasks.clear();
  send_subtasks.reserve(subtask_offset.back());
  std::vector<std::uint32_t> touched;
  for (const TaskInfo& task : workload->tasks()) {
    const auto shard_of = [&](std::size_t i) {
      return (*table)[workload->subtask(task.subtasks[i]).resource.value()];
    };
    touched.clear();
    for (std::size_t i = 0; i < task.subtasks.size(); ++i) {
      if (std::find(touched.begin(), touched.end(), shard_of(i)) ==
          touched.end()) {
        touched.push_back(shard_of(i));
      }
    }
    for (const std::uint32_t shard : touched) {
      for (std::size_t i = 0; i < task.subtasks.size(); ++i) {
        if (shard_of(i) == shard) {
          send_subtasks.push_back(static_cast<std::uint32_t>(i));
        }
      }
      send_runs.push_back(
          {shard, static_cast<std::uint32_t>(send_subtasks.size())});
    }
    send_offset.push_back(static_cast<std::uint32_t>(send_runs.size()));
  }
}

TaskController::TaskController(const Workload& workload,
                               const LatencyModel& /*model*/, TaskId task,
                               AgentStepConfig step_config,
                               ControllerShared* shared)
    : shared_(shared),
      task_(task),
      slot_begin_(shared->used_offset[task.value()]),
      slot_end_(shared->used_offset[task.value() + 1]),
      subtask_begin_(shared->subtask_offset[task.value()]),
      subtask_count_(shared->subtask_offset[task.value() + 1] -
                     subtask_begin_),
      path_begin_(shared->path_offset[task.value()]),
      path_count_(shared->path_offset[task.value() + 1] - path_begin_),
      workload_(&workload),
      step_config_(step_config) {}

void TaskController::Bind(
    net::InProcessBus* bus, net::EndpointId self,
    const std::vector<net::EndpointId>* resource_endpoints) {
  bus_ = bus;
  self_ = self;
  resource_endpoints_ = resource_endpoints;
}

void TaskController::BindShards(
    const std::vector<net::EndpointId>* shard_endpoints,
    const std::vector<std::uint32_t>* resource_shard) {
  shard_endpoints_ = shard_endpoints;
  shared_->BindShardTable(resource_shard, shard_endpoints->size());
}

int TaskController::UsedIndex(ResourceId resource) const {
  const auto first = shared_->used_resources.begin() + slot_begin_;
  const auto last = shared_->used_resources.begin() + slot_end_;
  const auto it = std::lower_bound(first, last, resource);
  if (it == last || *it != resource) return -1;
  return static_cast<int>(it - shared_->used_resources.begin());
}

double TaskController::mu_seen(ResourceId r) const {
  const int k = UsedIndex(r);
  return k < 0 ? 0.0 : shared_->price_cache[static_cast<std::size_t>(k)].mu;
}

std::uint32_t TaskController::mu_epoch_seen(ResourceId r) const {
  const int k = UsedIndex(r);
  return k < 0 ? 0u
               : shared_->price_cache[static_cast<std::size_t>(k)].epoch;
}

bool TaskController::AcceptIncarnation(std::uint32_t* seen,
                                       std::uint32_t incarnation) {
  if (incarnation < *seen) {
    if (hooks_.stale_rejected != nullptr) hooks_.stale_rejected->Increment();
    return false;
  }
  *seen = incarnation;
  return true;
}

void TaskController::OnMessage(const net::Message& message) {
  if (crashed_) return;
  if (const auto* update =
          std::get_if<net::ShardPriceUpdate>(&message.payload)) {
    AbsorbShardPrices(*update, message.incarnation);
    return;
  }
  if (const auto* update =
          std::get_if<net::ResourcePriceUpdate>(&message.payload)) {
    const int k = UsedIndex(update->resource);
    if (k < 0) return;  // misrouted; this task does not use the resource
    const auto slot = static_cast<std::size_t>(k);
    if (!AcceptIncarnation(&shared_->used_incarnation[slot],
                           message.incarnation)) {
      return;
    }
    ControllerShared::CachedPrice& cached = shared_->price_cache[slot];
    cached.mu = update->mu;
    cached.congested = update->congested ? 1 : 0;
    cached.epoch = update->epoch;
    return;
  }
  if (const auto* request =
          std::get_if<net::RepairRequest>(&message.payload)) {
    // A restarted resource asks for our absolute view.  The request carries
    // the agent's post-restart incarnation: adopting it as the watermark
    // makes every price the agent sent before its crash (still in flight,
    // or arriving out of order) rejectable as stale from this moment on.
    const int k = UsedIndex(request->resource);
    if (k >= 0 &&
        !AcceptIncarnation(
            &shared_->used_incarnation[static_cast<std::size_t>(k)],
            message.incarnation)) {
      return;
    }
    const TaskInfo& info = workload_->task(task_);
    const double* latencies = local_latencies();
    net::RepairResponse repair;
    repair.resource = request->resource;
    repair.task = task_;
    repair.mu = mu_seen(request->resource);
    repair.epoch = mu_epoch_seen(request->resource);
    repair.congested =
        k >= 0 &&
        shared_->price_cache[static_cast<std::size_t>(k)].congested != 0;
    for (std::size_t i = 0; i < info.subtasks.size(); ++i) {
      const SubtaskId sid = info.subtasks[i];
      if (workload_->subtask(sid).resource != request->resource) continue;
      repair.subtasks.push_back(sid);
      repair.latencies_ms.push_back(latencies[i]);
    }
    net::Message reply;
    reply.sender = self_;
    reply.receiver = message.sender;
    reply.payload = std::move(repair);
    bus_->Send(std::move(reply));
    return;
  }
}

void TaskController::AbsorbShardPrices(const net::ShardPriceUpdate& update,
                                       std::uint32_t incarnation) {
  const std::size_t shards = shared_->shard_count;
  if (shard_endpoints_ == nullptr || update.shard >= shards) return;
  ControllerShared::ShardRun* run =
      &shared_->shard_runs[task_.value() * (shards + 1) + update.shard];
  if (!AcceptIncarnation(&run[0].incarnation, incarnation)) return;
  // Positional apply (DESIGN.md §7.11): entry j is the j-th of this task's
  // slots on the shard.  A count mismatch means the sender's binding
  // disagrees with ours — ignore the whole message.
  const std::size_t count = run[1].begin - run[0].begin;
  if (update.count != count) return;
  // Per-thread decode scratch: the parallel delivery runs several
  // controllers' handlers at once.
  thread_local std::vector<double> decoded;
  net::ShardPriceBitsets bits;
  if (!net::DecodeShardPriceUpdate(update, &decoded, &bits)) return;
  ControllerShared::CachedPrice* cached =
      shared_->price_cache.data() + run[0].begin;
  for (std::size_t j = 0; j < count; ++j) {
    // A stale bit marks a resource crashed (or mid-repair) inside the
    // shard: keep the cached price, exactly as an unsharded crash keeps
    // the agent's last broadcast.
    if (bits.stale != nullptr && net::TestWireBit(bits.stale, j)) continue;
    cached[j].mu = decoded[j];
    cached[j].congested = net::TestWireBit(bits.congested, j) ? 1 : 0;
    cached[j].epoch = update.epoch;
  }
}

void TaskController::Crash() { crashed_ = true; }

void TaskController::ColdRestart() {
  crashed_ = false;
  std::fill(shared_->price_cache.begin() + slot_begin_,
            shared_->price_cache.begin() + slot_end_,
            ControllerShared::CachedPrice{});
  SeedLatenciesAtLatHi();
  std::fill(local_lambdas(), local_lambdas() + path_count_, 0.0);
  std::fill(path_gamma_multipliers(), path_gamma_multipliers() + path_count_,
            1.0);
  ResetIncarnations();
}

void TaskController::ResetIncarnations() {
  std::fill(shared_->used_incarnation.begin() + slot_begin_,
            shared_->used_incarnation.begin() + slot_end_, 0);
  const std::size_t shards = shared_->shard_count;
  if (shard_endpoints_ != nullptr && shards > 0) {
    ControllerShared::ShardRun* run =
        &shared_->shard_runs[task_.value() * (shards + 1)];
    for (std::size_t s = 0; s < shards; ++s) run[s].incarnation = 0;
  }
}

void TaskController::SeedUnallocatedLatencies() {
  if (!has_latencies_) SeedLatenciesAtLatHi();
}

void TaskController::SeedLatenciesAtLatHi() {
  const TaskInfo& info = workload_->task(task_);
  double* latencies = local_latencies();
  for (std::size_t i = 0; i < info.subtasks.size(); ++i) {
    latencies[i] = shared_->solver.LatHi(info.subtasks[i]);
  }
  has_latencies_ = true;
}

void TaskController::RestoreFromSnapshot(
    const TaskControllerSnapshot& snapshot) {
  assert(snapshot.task == task_);
  crashed_ = false;
  if (snapshot.local_latencies.size() == subtask_count_) {
    std::copy(snapshot.local_latencies.begin(),
              snapshot.local_latencies.end(), local_latencies());
    has_latencies_ = true;
  }
  if (snapshot.local_lambdas.size() == path_count_) {
    std::copy(snapshot.local_lambdas.begin(), snapshot.local_lambdas.end(),
              local_lambdas());
  }
  if (snapshot.path_gamma_multiplier.size() == path_count_) {
    std::copy(snapshot.path_gamma_multiplier.begin(),
              snapshot.path_gamma_multiplier.end(), path_gamma_multipliers());
  }
  for (std::size_t j = 0; j < snapshot.resources.size(); ++j) {
    const int k = UsedIndex(snapshot.resources[j]);
    if (k < 0) continue;  // a resource this task does not use
    ControllerShared::CachedPrice& cached =
        shared_->price_cache[static_cast<std::size_t>(k)];
    if (j < snapshot.mu.size()) cached.mu = snapshot.mu[j];
    if (j < snapshot.resource_congested.size()) {
      cached.congested = snapshot.resource_congested[j];
    }
    if (j < snapshot.resource_epoch.size()) {
      cached.epoch = snapshot.resource_epoch[j];
    }
  }
  ResetIncarnations();
}

TaskControllerSnapshot TaskController::Snapshot() const {
  TaskControllerSnapshot snapshot;
  snapshot.task = task_;
  const std::span<const double> latencies_now = latencies();
  const std::span<const double> lambdas_now = lambdas();
  const std::span<const double> multipliers_now = path_step_multipliers();
  snapshot.local_latencies.assign(latencies_now.begin(), latencies_now.end());
  snapshot.local_lambdas.assign(lambdas_now.begin(), lambdas_now.end());
  snapshot.path_gamma_multiplier.assign(multipliers_now.begin(),
                                        multipliers_now.end());
  const std::size_t n = slot_end_ - slot_begin_;
  snapshot.resources.assign(shared_->used_resources.begin() + slot_begin_,
                            shared_->used_resources.begin() + slot_end_);
  snapshot.mu.resize(n);
  snapshot.resource_congested.resize(n);
  snapshot.resource_epoch.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const ControllerShared::CachedPrice& cached =
        shared_->price_cache[slot_begin_ + j];
    snapshot.mu[j] = cached.mu;
    snapshot.resource_congested[j] = cached.congested;
    snapshot.resource_epoch[j] = cached.epoch;
  }
  return snapshot;
}

void TaskController::AllocateAndSend() {
  AllocateAndSendImpl(shared_->prices, /*prepared_solver=*/false, nullptr);
}

void TaskController::AllocateAndSend(PriceVector* lane_prices,
                                     std::vector<net::Message>* outbox) {
  assert(lane_prices != nullptr && outbox != nullptr);
  AllocateAndSendImpl(*lane_prices, /*prepared_solver=*/true, outbox);
}

void TaskController::AllocateAndSendImpl(PriceVector& prices,
                                         bool prepared_solver,
                                         std::vector<net::Message>* outbox) {
  assert(bus_ != nullptr);
  if (crashed_) return;
  const TaskInfo& info = workload_->task(task_);
  ControllerShared& fleet = *shared_;
  double* latencies = local_latencies();
  double* lambdas = local_lambdas();
  double* multipliers = path_gamma_multipliers();

  // Publish this task's slots of the solve buffers.  Other controllers'
  // stale entries are never read: the solver only gathers the prices of
  // this task's own resources and paths.  In the parallel round `prices` is
  // the lane's private PriceVector — the shared one's mu slots overlap
  // across tasks sharing a resource and would race.
  for (std::uint32_t k = slot_begin_; k < slot_end_; ++k) {
    prices.mu[fleet.used_resources[k].value()] = fleet.price_cache[k].mu;
  }
  for (std::size_t p = 0; p < path_count_; ++p) {
    prices.lambda[info.paths[p].value()] = lambdas[p];
  }

  // 3. Latency allocation at the stored prices (Eq. 7).  Both branches
  // reach SolveTaskFresh with the full gather CSR: SolveTask refreshes the
  // cache inline, SolveTaskRange relies on the round's serial PrepareSolve.
  // Distinct tasks write disjoint slots of the shared scratch Assignment,
  // so it stays shared even in the parallel round.
  Assignment& scratch = fleet.latencies;
  if (prepared_solver) {
    fleet.solver.SolveTaskRange(task_.value(), task_.value() + 1, prices,
                                &scratch);
  } else {
    fleet.solver.SolveTask(task_, prices, &scratch);
  }
  for (std::size_t i = 0; i < subtask_count_; ++i) {
    latencies[i] = scratch[info.subtasks[i].value()];
  }
  has_latencies_ = true;

  // 2'. Path price update (Eq. 9) with the adaptive per-path step: a path's
  // step doubles while any resource it traverses reports congestion.  The
  // fleet's flat path entries carry each subtask's slot, so the loop reads
  // the congestion flags without a lookup.
  for (std::size_t p = 0; p < path_count_; ++p) {
    const std::uint32_t path = info.paths[p].value();
    bool any_congested = false;
    double latency = 0.0;
    for (std::uint32_t e = fleet.path_entry_offset[path];
         e < fleet.path_entry_offset[path + 1]; ++e) {
      const ControllerShared::PathEntry entry = fleet.path_entries[e];
      latency += scratch[entry.subtask];
      if (fleet.price_cache[entry.slot].congested != 0) any_congested = true;
    }
    if (step_config_.adaptive) {
      multipliers[p] =
          any_congested ? std::min(multipliers[p] * 2.0,
                                   step_config_.adaptive_max_multiplier)
                        : 1.0;
    }
    const double gamma = step_config_.gamma0 * multipliers[p];
    const double slack =
        1.0 - latency / workload_->path(info.paths[p]).critical_time_ms;
    lambdas[p] = std::max(0.0, lambdas[p] - gamma * slack);
  }

  // 4. Send the new latencies: one batched positional message per shard
  // touched, or — unsharded — one message per resource used.
  if (shard_endpoints_ != nullptr) {
    SendShardLatencies(outbox);
    return;
  }
  for (std::uint32_t k = slot_begin_; k < slot_end_; ++k) {
    const ResourceId resource = fleet.used_resources[k];
    net::LatencyUpdate update;
    update.task = task_;
    for (std::size_t i = 0; i < info.subtasks.size(); ++i) {
      const SubtaskId sid = info.subtasks[i];
      if (workload_->subtask(sid).resource != resource) continue;
      update.subtasks.push_back(sid);
      update.latencies_ms.push_back(latencies[i]);
    }
    net::Message message;
    message.sender = self_;
    message.receiver = (*resource_endpoints_)[resource.value()];
    message.payload = std::move(update);
    Emit(std::move(message), outbox);
  }
}

void TaskController::Emit(net::Message&& message,
                          std::vector<net::Message>* outbox) {
  if (outbox != nullptr) {
    outbox->push_back(std::move(message));
  } else {
    bus_->Send(std::move(message));
  }
}

void TaskController::SendShardLatencies(std::vector<net::Message>* outbox) {
  // One arena per round: every shard's payload is encoded back-to-back and
  // each message slices its own span (the messages share ownership of the
  // arena).  The arena is kept across rounds and rewritten in place when
  // no message still references it — the WireSlice::Assign rule.
  // Otherwise (messages still in flight on a delayed bus) a fresh one is
  // allocated, and the old one lives on in those messages.  The b1 chooser
  // never exceeds the raw encoding, so Σ(1 + 8n) bounds the arena.
  const ControllerShared& fleet = *shared_;
  const std::uint32_t first_run = fleet.send_offset[task_.value()];
  const std::uint32_t last_run = fleet.send_offset[task_.value() + 1];
  if (latency_arena_ == nullptr || latency_arena_.use_count() != 1) {
    latency_arena_ = std::make_shared<std::string>();
  } else {
    latency_arena_->clear();
  }
  latency_arena_->reserve((last_run - first_run) + 8 * subtask_count_);
  const std::shared_ptr<const std::string> arena = latency_arena_;
  const double* latencies = fleet.local_latencies.data() + subtask_begin_;
  // Per-thread gather scratch: the parallel round runs several
  // controllers' sends at once.
  thread_local std::vector<double> gathered;
  std::uint32_t begin = subtask_begin_;
  for (std::uint32_t r = first_run; r < last_run; ++r) {
    const ControllerShared::SendRun send = fleet.send_runs[r];
    gathered.resize(send.end - begin);
    for (std::uint32_t j = begin; j < send.end; ++j) {
      gathered[j - begin] = latencies[fleet.send_subtasks[j]];
    }
    // A slice is (offset, length), so the messages stay valid while later
    // payloads are appended behind theirs.
    const net::ArenaSpan span = net::AppendShardLatencyPayload(
        gathered.data(), send.end - begin, latency_arena_.get());
    net::ShardLatencyUpdate update;
    update.task = task_;
    update.shard = send.shard;
    update.count = send.end - begin;
    update.payload = net::WireSlice(arena, span.offset, span.length);
    net::Message message;
    message.sender = self_;
    message.receiver = (*shard_endpoints_)[send.shard];
    message.payload = std::move(update);
    Emit(std::move(message), outbox);
    begin = send.end;
  }
}

}  // namespace lla::runtime
