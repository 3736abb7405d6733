// rounds_100k: steady-state synchronous rounds of the sharded coordinator on
// random_100k (ScaledRandomWorkloadConfig(100000, seed)): 8 shards,
// round_threads = 1, zero-delay bus, wire self-check off as in bench_scale.
// Untraced runs time serial rounds.  The traced run also traces the same
// deployment with round_threads = 4, the only code that exercises
// ThreadPool regions, lane outboxes and InProcessBus::RunAllParallel, and
// reports its round time and speedup over serial.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "bench.h"
#include "traced.h"
#include "workloads/random.h"

namespace perfbench {
namespace {

using lla::runtime::Coordinator;
using lla::runtime::CoordinatorConfig;

constexpr std::size_t kSubtasks = 100000;
/// Untraced runs: fresh deployments that each replay the same rounds.
constexpr int kSegments = 12;
/// Rounds per segment: one per two run seconds, at least this many.
constexpr int kMinRoundsPerSegment = 10;
/// Minimum timed rounds of each leg of a traced run.
constexpr int kMinTracedRounds = 25;
/// Round threads of the traced parallel leg.
constexpr int kParallelThreads = 4;

CoordinatorConfig RoundsConfig(int round_threads) {
  CoordinatorConfig config;
  config.num_shards = 8;
  config.round_threads = round_threads;
  config.bus.base_delay_ms = 0.0;
  config.bus.verify_wire_format = false;
  config.record_history = true;
  return config;
}

/// Owns one deployment's inputs; members are destroyed in reverse order, so
/// the coordinator goes before the model and workload it points into.
struct Deployment {
  std::unique_ptr<lla::Workload> workload;
  std::unique_ptr<lla::LatencyModel> model;
  std::unique_ptr<Coordinator> coordinator;
};

void MakeInputs(std::uint64_t seed, Deployment* out) {
  auto made =
      lla::MakeRandomWorkload(lla::ScaledRandomWorkloadConfig(kSubtasks, seed));
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: random_100k: %s\n", made.error().c_str());
    std::exit(2);
  }
  out->workload = std::make_unique<lla::Workload>(std::move(made).value());
  out->model = std::make_unique<lla::LatencyModel>(*out->workload);
}

/// The per-round output check: every message sent in the round was
/// delivered, none dropped, the per-round message count is the steady one
/// and the monitor sample is finite.
class RoundCheck {
 public:
  bool Check(const lla::net::BusStats& before, const lla::net::BusStats& after,
             std::size_t pending, const lla::runtime::RoundStats& stats) {
    const std::uint64_t sent = after.sent - before.sent;
    if (expected_messages_ == 0) expected_messages_ = sent;
    return sent == expected_messages_ && after.delivered - before.delivered == sent &&
           after.dropped == before.dropped && pending == 0 &&
           std::isfinite(stats.total_utility) &&
           std::isfinite(stats.max_resource_excess) &&
           std::isfinite(stats.max_path_ratio);
  }

 private:
  std::uint64_t expected_messages_ = 0;
};

bool SameAssignment(const lla::Assignment& a, const lla::Assignment& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One traced leg: the harness deployment and a Coordinator run the same
/// rounds in lockstep, one round each in turn, so drift in the host's speed
/// falls on both alike; the untraced round times give the tracing overhead.
struct Lockstep {
  LayerTimes layers;
  lla::net::BusStats bus_before, bus_after;
  int rounds = 0;
  std::vector<double> untraced_ms;
};

/// Runs one lockstep leg for `deadline_ms` (at least kMinTracedRounds
/// rounds).  The untraced rounds count in the run's tally; after the last
/// round the two assignments must be bit-identical.
Lockstep RunLockstep(const Deployment& deployment,
                     const CoordinatorConfig& config, double deadline_ms,
                     Result* result) {
  Lockstep leg;
  lla::obs::MetricRegistry registry;
  TracedDeployment traced(*deployment.workload, *deployment.model, config,
                          &registry);
  Coordinator coordinator(*deployment.workload, *deployment.model, config);
  RoundCheck check;
  traced.RunRound();
  coordinator.RunSyncRound();
  leg.bus_before = traced.bus_stats();
  traced.ResetTimes();
  const double loop_start = NowMs();
  while (NowMs() - loop_start < deadline_ms ||
         leg.rounds < kMinTracedRounds) {
    traced.RunRound();
    ++leg.rounds;
    const lla::net::BusStats before = coordinator.bus().stats();
    const double start = NowMs();
    const lla::runtime::RoundStats stats = coordinator.RunSyncRound();
    const double elapsed = NowMs() - start;
    const bool ok = check.Check(before, coordinator.bus().stats(),
                                coordinator.bus().pending(), stats);
    result->tally.AddRound(ok);
    result->busy_ms += elapsed;
    leg.untraced_ms.push_back(elapsed);
  }
  leg.bus_after = traced.bus_stats();
  leg.layers = traced.times();
  if (!SameAssignment(coordinator.CurrentAssignment(),
                      traced.CurrentAssignment())) {
    result->errors.push_back("traced harness differs from Coordinator (" +
                             std::to_string(config.round_threads) +
                             " round threads)");
  }
  if (leg.bus_after.dropped > 0) {
    result->errors.push_back("bus dropped messages");
  }
  return leg;
}

}  // namespace

int RunRounds(const Options& options, Result* result) {
  const CoordinatorConfig config = RoundsConfig(1);
  const double deadline_ms = options.seconds * 1e3;
  Deployment deployment;
  // Set-up: workload generation, coordinator construction and the warm-up
  // round (its sends prime the agents' latency inputs, so message counts
  // are steady from the next round on).
  const auto set_up = [&] {
    deployment = Deployment{};
    const double start = NowMs();
    MakeInputs(options.seed, &deployment);
    deployment.coordinator = std::make_unique<Coordinator>(
        *deployment.workload, *deployment.model, config);
    deployment.coordinator->RunSyncRound();
    result->setup_s.push_back((NowMs() - start) / 1e3);
  };

  if (!options.trace) {
    // kSegments segments, each on a freshly set-up deployment, run the same
    // rounds_per_segment rounds.  Round k of every segment does the same
    // work, so a round's time is its fastest of kSegments repeats, taken at
    // moments spread over the run; the set-up median spans the run too, and
    // only one deployment is alive at a time.  The work is fixed by
    // --seconds, not by the host's speed.
    const int rounds_per_segment =
        std::max(kMinRoundsPerSegment,
                 static_cast<int>(std::lround(0.5 * options.seconds)));
    RoundCheck check;
    BestOf ok_rounds, all_rounds;
    lla::Assignment first_assignment;
    for (int segment = 0; segment < kSegments; ++segment) {
      set_up();
      Coordinator& coordinator = *deployment.coordinator;
      for (int k = 0; k < rounds_per_segment; ++k) {
        const lla::net::BusStats before = coordinator.bus().stats();
        const double start = NowMs();
        const lla::runtime::RoundStats stats = coordinator.RunSyncRound();
        const double elapsed = NowMs() - start;
        const bool ok = check.Check(before, coordinator.bus().stats(),
                                    coordinator.bus().pending(), stats);
        result->tally.AddRound(ok);
        all_rounds.Add(k, elapsed);
        if (ok) ok_rounds.Add(k, elapsed);
      }
      // Every segment replays the same rounds from the same inputs, so it
      // must end at the bit-identical assignment.
      const lla::Assignment assignment = coordinator.CurrentAssignment();
      if (segment == 0) {
        first_assignment = assignment;
      } else if (!SameAssignment(first_assignment, assignment)) {
        result->errors.push_back("segment " + std::to_string(segment) +
                                 " differs from segment 0");
      }
    }
    result->op_ms = ok_rounds.Values();
    result->busy_ms = all_rounds.Sum();
    result->info.Num("segments", kSegments)
        .Num("rounds_per_segment", rounds_per_segment)
        .Num("subtasks",
             static_cast<double>(deployment.workload->subtask_count()))
        .Num("tasks", static_cast<double>(deployment.workload->task_count()));
    return 0;
  }

  set_up();
  deployment.coordinator.reset();

  // Traced run: one leg on the serial deployment, then one on the same
  // deployment with kParallelThreads round threads, the only code that runs
  // ThreadPool regions, lane outboxes and InProcessBus::RunAllParallel.
  // Each leg gets half the run.
  const Lockstep serial = RunLockstep(deployment, RoundsConfig(1),
                                      deadline_ms / 2, result);
  const Lockstep parallel = RunLockstep(
      deployment, RoundsConfig(kParallelThreads), deadline_ms / 2, result);
  const LayerTimes& layers = serial.layers;
  const double rounds = serial.rounds;
  const double par_rounds = parallel.rounds;
  const double traced_p50 = Quantile(layers.round_samples_ms, 0.5);
  const double serial_p50 = Quantile(serial.untraced_ms, 0.5);
  const double parallel_p50 = Quantile(parallel.untraced_ms, 0.5);
  // Self-time partition of a parallel round: solver preparation, regions,
  // commits, parallel dispatch, the serial agent loop and the monitor sweep.
  const LayerTimes& par = parallel.layers;
  const double par_partition = par.prepare_ms + par.region_ms +
                               par.commit_ms + par.parallel_dispatch_ms +
                               par.agent_price_ms + par.monitor_ms;
  result->layers.Num("controller.allocate_ms", layers.allocate_ms / rounds)
      .Num("controller.absorb_ms", layers.absorb_ms / rounds)
      .Num("controller.calls", layers.controller_calls / rounds)
      .Num("shard.apply_ms", layers.shard_apply_ms / rounds)
      .Num("shard.price_ms", layers.shard_price_ms / rounds)
      .Num("bus.dispatch_ms", layers.dispatch_ms / rounds)
      .Num("bus.messages_per_round",
           (serial.bus_after.sent - serial.bus_before.sent) / rounds)
      .Num("bus.bytes_per_round",
           (serial.bus_after.bytes - serial.bus_before.bytes) / rounds)
      .Num("bus.dropped", static_cast<double>(serial.bus_after.dropped +
                                              parallel.bus_after.dropped))
      .Num("monitor.sample_ms", layers.monitor_ms / rounds)
      .Num("pool.region_ms", par.region_ms / par_rounds)
      .Num("pool.lane_busy_ms", par.lane_busy_ms / par_rounds)
      .Num("pool.lane_wait_ms", par.lane_wait_ms / par_rounds)
      .Num("pool.commit_ms", par.commit_ms / par_rounds)
      .Num("bus.parallel_dispatch_ms", par.parallel_dispatch_ms / par_rounds)
      .Num("pool.round_ms", parallel_p50)
      .Num("pool.speedup", serial_p50 / parallel_p50)
      .Num("trace.round_ms", traced_p50)
      .Num("trace.overhead_ms", traced_p50 - serial_p50)
      .Num("trace.coverage", layers.SerialSelfMs() / layers.round_ms);
  result->op_ms = serial.untraced_ms;
  result->info.Num("serial_rounds", rounds)
      .Num("parallel_rounds", par_rounds)
      .Num("parallel_round_threads", kParallelThreads)
      .Num("parallel_trace_coverage", par_partition / par.round_ms)
      .Num("subtasks",
           static_cast<double>(deployment.workload->subtask_count()))
      .Num("tasks", static_cast<double>(deployment.workload->task_count()));
  return 0;
}

}  // namespace perfbench
