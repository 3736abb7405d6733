// churn: a closed loop with one mutation in flight, calling
// ChurnDriver::Apply over MakeChurnScript storms (40% joins, 30% leaves,
// 30% WCET corrections) against bench_churn's base system (24 resources, 12
// tasks of 2-4 subtasks, utilization 0.6), with the active-set engine and
// joins gated by ProbeAll on 4 probe threads.
//
// Each storm is bench_churn's: kStormLength mutations from one seed, which
// also draws the base system, so the system grows through a storm as joins
// outnumber leaves.  Throughput differs several-fold between storm seeds, so
// every run plays the same fixed set of storms (seeds 1..kStorms) one after
// another, and --seed only permutes their order.  An untraced run plays the
// set once per kSecondsPerReplay of --seconds, each time on freshly created
// drivers, and a mutation's time is its fastest replay: other tenants of a
// shared host only ever add time.  Every run of a commit then applies the
// same mutations, whatever the host's speed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>

#include "bench.h"
#include "model/evaluation.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace perfbench {
namespace {

using lla::runtime::ChurnConfig;
using lla::runtime::ChurnDriver;
using lla::runtime::ChurnKind;
using lla::runtime::ChurnRecord;

/// bench_churn's storm length.
constexpr std::size_t kStormLength = 200;
/// Storm seeds 1..kStorms.  A storm of kStormLength takes 1-10 s, 5.4 s on
/// average over seeds 1-20, on a 4-vCPU x86 host; storm 1 takes 4-6 s
/// (31-47 mutations/s).
constexpr int kStorms = 1;
/// Run seconds per replay of the storm set; at least kMinReplays replays.
constexpr double kSecondsPerReplay = 4.0;
constexpr int kMinReplays = 2;
constexpr int kMaxIterations = 12000;

ChurnConfig DriverConfig(lla::obs::MetricRegistry* registry) {
  ChurnConfig config;
  config.lla.step_policy = lla::StepPolicyKind::kAdaptive;
  config.lla.gamma0 = 3.0;
  config.lla.record_history = false;
  config.lla.active_set.enabled = true;
  config.max_iterations = kMaxIterations;
  config.min_tasks = 2;
  config.admission.lla = config.lla;
  config.admission.max_iterations = kMaxIterations;
  config.admission.probe_threads = 4;
  // Only the live engine reports into the registry: probe engines run on
  // pool threads and registry timers are single-threaded.
  config.lla.metrics = registry;
  return config;
}

struct Storm {
  std::uint64_t seed = 0;
  std::unique_ptr<ChurnDriver> driver;
  std::vector<lla::runtime::ChurnMutation> script;
};

std::vector<Storm> MakeStorms(int count, lla::obs::MetricRegistry* registry) {
  std::vector<Storm> storms;
  for (int k = 1; k <= count; ++k) {
    const std::uint64_t storm_seed = static_cast<std::uint64_t>(k);
    lla::RandomWorkloadConfig base;
    base.seed = storm_seed;
    base.num_resources = 24;
    base.num_tasks = 12;
    base.min_subtasks = 2;
    base.max_subtasks = 4;
    base.target_utilization = 0.6;
    auto workload = lla::MakeRandomWorkload(base);
    lla::runtime::ChurnScriptConfig script_config;
    script_config.seed = storm_seed;
    script_config.mutations = kStormLength;
    script_config.num_resources = base.num_resources;
    auto script = lla::runtime::MakeChurnScript(script_config);
    if (!workload.ok() || !script.ok()) {
      std::fprintf(stderr, "perfbench: churn inputs: %s\n",
                   (!workload.ok() ? workload.error() : script.error()).c_str());
      std::exit(2);
    }
    const lla::WorkloadSpecs specs = lla::ExtractSpecs(workload.value());
    auto driver = ChurnDriver::Create(specs.resources, specs.tasks,
                                      DriverConfig(registry));
    if (!driver.ok()) {
      std::fprintf(stderr, "perfbench: churn driver: %s\n",
                   driver.error().c_str());
      std::exit(2);
    }
    Storm storm;
    storm.seed = storm_seed;
    storm.driver = std::make_unique<ChurnDriver>(std::move(driver).value());
    storm.script = std::move(script).value();
    storms.push_back(std::move(storm));
  }
  return storms;
}

std::uint64_t CounterValue(const lla::obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

double TimerMs(const lla::obs::MetricsSnapshot& snapshot,
               const std::string& name) {
  for (const auto& timer : snapshot.timers) {
    if (timer.name == name) return timer.total_ms;
  }
  return 0.0;
}

}  // namespace

int RunChurn(const Options& options, Result* result) {
  lla::obs::MetricRegistry registry;
  lla::obs::MetricRegistry* live = options.trace ? &registry : nullptr;
  // Set-up: base systems, scripts and driver creation (which optimizes the
  // initial workload).  Each replay starts from a fresh set-up; further
  // set-ups are timed at even intervals between mutations, setup_reps in
  // all, so the reported median spans the run rather than one moment of a
  // host whose speed drifts.  Each timed set-up follows an identical untimed
  // one, so every sample starts from the same warm caches whatever mutation
  // ran before it.
  const int count = kStorms;
  const auto set_up = [&] {
    MakeStorms(count, nullptr);
    const double start = NowMs();
    std::vector<Storm> made = MakeStorms(count, live);
    result->setup_s.push_back((NowMs() - start) / 1e3);
    return made;
  };
  const int timed_replays =
      static_cast<int>(std::lround(options.seconds / kSecondsPerReplay));
  const int replays =
      options.trace ? 1 : std::max(kMinReplays, timed_replays);
  const int setup_reps = options.trace ? 1 : 31;
  int setups_left = setup_reps - replays;
  const std::size_t setup_every = std::max<std::size_t>(
      1, replays * count * kStormLength / std::max(setups_left, 1));
  std::vector<std::size_t> order(count);
  for (int k = 0; k < count; ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(options.seed));
  std::vector<Storm> storms = set_up();
  // Engine counters from here on: driver creation is set-up, not mutation.
  const lla::obs::MetricsSnapshot before = registry.Snapshot();

  // A mutation is keyed by its storm and its place in the script; its time
  // is its fastest replay.  Every replay applies the same mutations to
  // identical systems, so each must produce the first replay's records.
  BestOf ok_ms, all_ms;
  std::vector<ChurnRecord> first_records(count * kStormLength);
  std::vector<double> join_ms, leave_ms, wcet_ms;
  std::vector<std::string> storm_log;
  std::size_t applied = 0, joins = 0, joins_admitted = 0, iterations = 0,
              fallbacks = 0, unconverged = 0, mutations = 0;
  const double feasibility_tol =
      DriverConfig(nullptr).lla.convergence.feasibility_tol;
  for (int replay = 0; replay < replays; ++replay) {
    if (replay > 0) storms = set_up();
    for (std::size_t storm_index : order) {
      Storm& storm = storms[storm_index];
      double storm_ms = 0.0;
      for (std::size_t i = 0; i < storm.script.size(); ++i) {
        const std::size_t key = storm_index * kStormLength + i;
        const double start = NowMs();
        const ChurnRecord record = storm.driver->Apply(storm.script[i]);
        const double elapsed = NowMs() - start;
        ++mutations;
        storm_ms += elapsed;
        if (setups_left > 0 && mutations % setup_every == 0) {
          --setups_left;
          set_up();
        }
        result->tally.AddMutation(record);
        all_ms.Add(key, elapsed);
        const bool failed = record.applied && !record.converged;
        if (!failed) ok_ms.Add(key, elapsed);
        if (replay > 0) {
          const ChurnRecord& first = first_records[key];
          if (record.applied != first.applied ||
              record.converged != first.converged ||
              record.iterations != first.iterations ||
              record.final_utility != first.final_utility) {
            result->errors.push_back("replay " + std::to_string(replay) +
                                     " differs from replay 0 at storm " +
                                     std::to_string(storm.seed) +
                                     " mutation " + std::to_string(i));
          }
          continue;
        }
        first_records[key] = record;
        if (record.kind == ChurnKind::kJoin) {
          ++joins;
          if (record.applied) ++joins_admitted;
        }
        (record.kind == ChurnKind::kJoin    ? join_ms
         : record.kind == ChurnKind::kLeave ? leave_ms
                                            : wcet_ms)
            .push_back(elapsed);
        if (!record.applied) continue;
        ++applied;
        iterations += static_cast<std::size_t>(record.iterations);
        if (record.note == "cold restart after warm stall") ++fallbacks;
        if (!record.converged) {
          ++unconverged;
          continue;
        }
        // Output check: a converged live system is feasible within the
        // engine's own tolerance.
        const ChurnDriver& driver = *storm.driver;
        const lla::FeasibilityReport feasibility = lla::CheckFeasibility(
            driver.workload(), driver.model(), driver.engine().latencies(),
            feasibility_tol);
        if (!feasibility.feasible || !std::isfinite(record.final_utility)) {
          result->errors.push_back(
              "converged mutation left an infeasible system");
        }
      }
      char line[160];
      std::snprintf(line, sizeof(line),
                    "replay %d storm %llu: %zu mutations, %.1f ms, %.1f/s, "
                    "%zu tasks at end",
                    replay, static_cast<unsigned long long>(storm.seed),
                    storm.script.size(), storm_ms,
                    storm.script.size() / (storm_ms / 1e3),
                    storm.driver->workload().task_count());
      storm_log.push_back(line);
    }
  }

  for (; setups_left > 0; --setups_left) set_up();
  result->op_ms = ok_ms.Values();
  result->busy_ms = all_ms.Sum();

  // Per-mutation figures are over the first replay's mutations.
  const double n = static_cast<double>(
      std::max<std::size_t>(first_records.size(), 1));
  const double n_applied =
      static_cast<double>(std::max<std::size_t>(applied, 1));
  if (options.trace) {
    const lla::obs::MetricsSnapshot after = registry.Snapshot();
    const auto delta = [&](const char* name) {
      return static_cast<double>(CounterValue(after, name) -
                                 CounterValue(before, name));
    };
    result->layers.Num("engine.steps", delta("engine.steps") / n)
        .Num("engine.active.subtasks_solved",
             delta("engine.active.subtasks_solved") / n)
        .Num("engine.active.tasks_solved",
             delta("engine.active.tasks_solved") / n)
        .Num("engine.reprime.tasks", delta("engine.reprime.tasks") / n)
        .Num("engine.solve_ms",
             (TimerMs(after, "engine.solve") - TimerMs(before, "engine.solve")) /
                 n)
        .Num("engine.price_update_ms", (TimerMs(after, "engine.price_update") -
                                        TimerMs(before, "engine.price_update")) /
                                           n)
        .Num("churn.join_ms_p50", Quantile(join_ms, 0.5))
        .Num("churn.leave_ms_p50", Quantile(leave_ms, 0.5))
        .Num("churn.wcet_ms_p50", Quantile(wcet_ms, 0.5))
        .Num("churn.iterations", static_cast<double>(iterations) / n_applied)
        .Num("churn.cold_fallbacks", static_cast<double>(fallbacks) / n_applied)
        .Num("churn.unconverged", static_cast<double>(unconverged) / n_applied)
        .Num("admission.admit_ratio",
             joins > 0 ? static_cast<double>(joins_admitted) / joins : 0.0);
  }
  result->info.Num("storms", count)
      .Num("replays", replays)
      .Num("mutations", static_cast<double>(mutations))
      .Num("applied", static_cast<double>(applied))
      .Num("joins", static_cast<double>(joins))
      .Num("joins_admitted", static_cast<double>(joins_admitted))
      .Num("cold_fallbacks", static_cast<double>(fallbacks))
      .Num("unconverged", static_cast<double>(unconverged))
      .Strs("storm_log", storm_log);
  return 0;
}

}  // namespace perfbench
