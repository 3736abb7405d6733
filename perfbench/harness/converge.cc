// converge: the paper's question — how fast do the task controllers and
// resource agents reach the optimum, and how fast do they get back to it
// after a capacity change.
//
// A closed loop of solves, one after another, over a fixed instance set:
// the paper workload plus random workloads with T tasks on T resources for
// T in {32, 64, 128}, seeds 1-3.  The set is fixed (the seed only permutes
// the loop order) because every instance needs an independent oracle — a
// BarrierSolver optimum costing 0.3-7 s — and because per-instance time to
// epsilon spans 10x, so a seed-drawn set would swamp run-to-run noise.
// T=128 seed 1 stalls infeasible for the whole round budget and stays in the
// set as a failed solve.
//
// Each random instance is solved cold, then every endpoint is checkpointed,
// the most loaded resource (largest WCET sum over capacity) loses 10% of its
// capacity, and a coordinator over the degraded workload restores every
// endpoint and re-converges to the degraded instance's own optimum.  The
// paper workload runs cold only: at -10% it has no strictly feasible point.
//
// Untraced runs repeat every solve that reaches epsilon in several passes.
// Round r of a solve does the same work in every pass, so a solve's time is
// the sum of its rounds' fastest repeats (plus its fastest construction):
// other tenants of a shared host only ever add time to a round.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "core/latency_solver.h"
#include "model/serialization.h"
#include "solver/barrier.h"
#include "solver/kkt.h"
#include "traced.h"
#include "workloads/paper.h"
#include "workloads/random.h"
#include "workloads/transform.h"

namespace perfbench {
namespace {

using lla::runtime::Coordinator;
using lla::runtime::CoordinatorConfig;
using lla::runtime::ResourceAgentSnapshot;
using lla::runtime::TaskControllerSnapshot;

/// Round budget of one solve: a solve that has not entered the epsilon band
/// by then failed.
constexpr int kMaxRounds = 20000;
/// KKT gate on an epsilon hit.  Primal violation is already bounded by the
/// band; stationarity is in units of marginal utility (the workloads'
/// utilities have slope -1).  Complementary slackness is recorded but not
/// gated: mu * slack is not bounded by a 1% utility band (in-band iterates
/// measure up to ~25).
constexpr double kKktPrimalTol = 1e-3 + 1e-9;
constexpr double kKktStationarityTol = 0.05;

struct Instance {
  std::string name;
  std::unique_ptr<lla::Workload> workload;
  std::unique_ptr<lla::LatencyModel> model;
  double reference = 0.0;
  /// Warm leg (random instances only).
  std::unique_ptr<lla::Workload> degraded;
  std::unique_ptr<lla::LatencyModel> degraded_model;
  double degraded_reference = 0.0;
  std::uint32_t cut_resource = 0;
};

CoordinatorConfig ConvergeConfig() {
  CoordinatorConfig config;
  config.bus.base_delay_ms = 0.0;
  config.record_history = true;
  return config;
}

/// The resource with the largest WCET sum relative to its capacity (lowest
/// id on ties): the demand-side "most loaded" resource, independent of any
/// solver's iterate.
std::uint32_t MostLoadedResource(const lla::Workload& workload) {
  std::uint32_t best = 0;
  double best_load = -1.0;
  for (const lla::ResourceInfo& resource : workload.resources()) {
    double wcet = 0.0;
    for (lla::SubtaskId sid : resource.subtasks) {
      wcet += workload.subtask(sid).wcet_ms;
    }
    const double load = wcet / resource.capacity;
    if (load > best_load) {
      best_load = load;
      best = resource.id.value();
    }
  }
  return best;
}

std::vector<Instance> MakeInstances() {
  std::vector<Instance> instances;
  auto add = [&](std::string name, lla::Expected<lla::Workload> made,
                 bool warm) {
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(),
                   made.error().c_str());
      std::exit(2);
    }
    Instance instance;
    instance.name = std::move(name);
    instance.workload = std::make_unique<lla::Workload>(std::move(made).value());
    instance.model = std::make_unique<lla::LatencyModel>(*instance.workload);
    if (warm) {
      instance.cut_resource = MostLoadedResource(*instance.workload);
      const lla::ResourceId cut(instance.cut_resource);
      auto degraded = lla::WithResourceCapacity(
          *instance.workload, cut,
          0.9 * instance.workload->resource(cut).capacity);
      if (!degraded.ok()) {
        std::fprintf(stderr, "perfbench: %s degraded: %s\n",
                     instance.name.c_str(), degraded.error().c_str());
        std::exit(2);
      }
      instance.degraded =
          std::make_unique<lla::Workload>(std::move(degraded).value());
      instance.degraded_model =
          std::make_unique<lla::LatencyModel>(*instance.degraded);
    }
    instances.push_back(std::move(instance));
  };
  add("paper", lla::MakeSimWorkload(), /*warm=*/false);
  for (int tasks : {32, 64, 128}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      lla::RandomWorkloadConfig config;
      config.seed = seed;
      config.num_tasks = tasks;
      config.num_resources = tasks;
      add("T" + std::to_string(tasks) + "s" + std::to_string(seed),
          lla::MakeRandomWorkload(config), /*warm=*/true);
    }
  }
  return instances;
}

// ---------------------------------------------------------------------------
// Reference optima, cached on disk by workload fingerprint.

std::string Fingerprint(const lla::Workload& workload) {
  auto text = lla::SaveWorkloadToString(workload);
  if (!text.ok()) {
    std::fprintf(stderr, "perfbench: cannot serialize workload: %s\n",
                 text.error().c_str());
    std::exit(2);
  }
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  for (unsigned char c : text.value()) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  char key[32];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(hash));
  return key;
}

std::map<std::string, double> LoadReferences(const std::string& path) {
  std::map<std::string, double> cache;
  std::ifstream in(path);
  std::string key;
  double utility = 0.0;
  while (in >> key >> utility) cache[key] = utility;
  return cache;
}

void SaveReferences(const std::string& path,
                    const std::map<std::string, double>& cache) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out.precision(17);
    for (const auto& [key, utility] : cache) out << key << ' ' << utility << '\n';
  }
  std::rename(tmp.c_str(), path.c_str());
}

/// Fills every instance's reference utilities, solving the missing ones in
/// parallel (BarrierSolver is independent per workload).  Exits on a solve
/// that fails or does not converge: the oracle must be trustworthy.
void ResolveReferences(const std::string& cache_dir,
                       std::vector<Instance>* instances) {
  struct Job {
    const lla::Workload* workload;
    const lla::LatencyModel* model;
    double* out;
    std::string key;
    std::string name;
  };
  const std::string path = cache_dir + "/references.txt";
  std::map<std::string, double> cache = LoadReferences(path);
  std::vector<Job> missing;
  for (Instance& instance : *instances) {
    const auto want = [&](const lla::Workload* w, const lla::LatencyModel* m,
                          double* out, const std::string& name) {
      const std::string key = Fingerprint(*w);
      const auto it = cache.find(key);
      if (it != cache.end()) {
        *out = it->second;
      } else {
        missing.push_back({w, m, out, key, name});
      }
    };
    want(instance.workload.get(), instance.model.get(), &instance.reference,
         instance.name);
    if (instance.degraded != nullptr) {
      want(instance.degraded.get(), instance.degraded_model.get(),
           &instance.degraded_reference, instance.name + "-degraded");
    }
  }
  if (missing.empty()) return;
  std::vector<std::string> failures(missing.size());
  std::atomic<std::size_t> next{0};
  const unsigned width =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < width; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < missing.size(); i = next++) {
        const Job& job = missing[i];
        auto solved = lla::BarrierSolver(*job.workload, *job.model).Solve();
        if (!solved.ok()) {
          failures[i] = job.name + ": " + solved.error();
        } else if (!solved.value().converged) {
          failures[i] = job.name + ": barrier solve did not converge";
        } else {
          *job.out = solved.value().utility;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t i = 0; i < missing.size(); ++i) {
    if (!failures[i].empty()) {
      std::fprintf(stderr, "perfbench: reference optimum failed: %s\n",
                   failures[i].c_str());
      std::exit(2);
    }
    cache[missing[i].key] = *missing[i].out;
  }
  SaveReferences(path, cache);
}

// ---------------------------------------------------------------------------
// One solve to epsilon.

struct Solve {
  bool reached = false;
  bool kkt_ok = false;
  int entry_round = -1;
  int rounds_run = 0;
  double eps_ms = 0.0;   ///< construction to entry round
  double busy_ms = 0.0;  ///< construction to the last round run
  double prep_ms = 0.0;  ///< construction (and restore) before round 1
  lla::runtime::RoundStats last;  ///< monitor sample of the last round run
  std::vector<double> round_ms;
  lla::Assignment assignment;
  lla::KktReport kkt;
};

/// Runs rounds until the detector confirms a hit or the budget runs out.
/// `round` returns the monitor sample of one round.
template <typename RoundFn>
void RunToEpsilon(double reference, double start_ms, RoundFn&& round,
                  Solve* solve) {
  EpsDetector detector(reference);
  solve->prep_ms = NowMs() - start_ms;
  for (int r = 1; r < kMaxRounds + EpsBand{}.stay_rounds; ++r) {
    const double round_start = NowMs();
    const lla::runtime::RoundStats stats = round();
    const double now = NowMs();
    solve->round_ms.push_back(now - round_start);
    solve->rounds_run = r;
    solve->last = stats;
    if (detector.Observe(r, now - start_ms, stats.total_utility,
                         stats.max_resource_excess, stats.max_path_ratio)) {
      break;
    }
    if (r >= kMaxRounds && !detector.pending()) break;
  }
  solve->busy_ms = NowMs() - start_ms;
  solve->reached = detector.confirmed() && detector.entry_round() <= kMaxRounds;
  solve->entry_round = detector.entry_round();
  solve->eps_ms = detector.entry_ms();
}

void CheckSolveKkt(const lla::Workload& workload,
                   const lla::LatencyModel& model,
                   const lla::PriceVector& prices, Solve* solve) {
  if (!solve->reached) return;
  const CoordinatorConfig config = ConvergeConfig();
  const lla::LatencySolver solver(workload, model, config.solver);
  solve->kkt = lla::CheckKkt(workload, model, solver, solve->assignment, prices,
                             config.solver.variant);
  solve->kkt_ok = solve->kkt.max_primal_violation <= kKktPrimalTol &&
                  solve->kkt.max_dual_violation <= 0.0 &&
                  solve->kkt.max_stationarity_violation <= kKktStationarityTol;
}

/// Cold solve through the Coordinator; leaves the coordinator alive in
/// `*out` for the warm leg.
Solve SolveCold(const Instance& instance, std::unique_ptr<Coordinator>* out) {
  Solve solve;
  const double start = NowMs();
  auto coordinator = std::make_unique<Coordinator>(
      *instance.workload, *instance.model, ConvergeConfig());
  RunToEpsilon(instance.reference, start,
               [&] { return coordinator->RunSyncRound(); }, &solve);
  solve.assignment = coordinator->CurrentAssignment();
  CheckSolveKkt(*instance.workload, *instance.model,
                coordinator->CurrentPrices(), &solve);
  *out = std::move(coordinator);
  return solve;
}

/// Checkpoints every endpoint of `cold`, restores them into a coordinator
/// over the degraded workload and re-converges.
Solve SolveWarm(const Instance& instance, const Coordinator& cold) {
  std::vector<ResourceAgentSnapshot> resources;
  std::vector<TaskControllerSnapshot> controllers;
  for (const lla::ResourceInfo& resource : instance.workload->resources()) {
    resources.push_back(cold.CheckpointResource(resource.id));
  }
  for (const lla::TaskInfo& task : instance.workload->tasks()) {
    controllers.push_back(cold.CheckpointController(task.id));
  }
  Solve solve;
  const double start = NowMs();
  Coordinator warm(*instance.degraded, *instance.degraded_model,
                   ConvergeConfig());
  for (std::size_t r = 0; r < resources.size(); ++r) {
    warm.RestartEndpoint(lla::ResourceId(static_cast<std::uint32_t>(r)),
                         resources[r]);
  }
  for (std::size_t t = 0; t < controllers.size(); ++t) {
    warm.RestartEndpoint(lla::TaskId(static_cast<std::uint32_t>(t)),
                         controllers[t]);
  }
  RunToEpsilon(instance.degraded_reference, start,
               [&] { return warm.RunSyncRound(); }, &solve);
  solve.assignment = warm.CurrentAssignment();
  CheckSolveKkt(*instance.degraded, *instance.degraded_model,
                warm.CurrentPrices(), &solve);
  return solve;
}

/// The traced twin of SolveCold/SolveWarm, through TracedDeployment.
struct TracedLeg {
  Solve solve;
  std::unique_ptr<TracedDeployment> deployment;
};

TracedLeg TracedCold(const Instance& instance,
                     lla::obs::MetricRegistry* registry) {
  TracedLeg leg;
  const double start = NowMs();
  leg.deployment = std::make_unique<TracedDeployment>(
      *instance.workload, *instance.model, ConvergeConfig(), registry);
  RunToEpsilon(instance.reference, start,
               [&] { return leg.deployment->RunRound(); }, &leg.solve);
  leg.solve.assignment = leg.deployment->CurrentAssignment();
  return leg;
}

TracedLeg TracedWarm(const Instance& instance, const TracedDeployment& cold,
                     lla::obs::MetricRegistry* registry,
                     double* checkpoint_ms, double* restore_ms) {
  std::vector<ResourceAgentSnapshot> resources;
  std::vector<TaskControllerSnapshot> controllers;
  double t0 = NowMs();
  cold.Checkpoint(&resources, &controllers);
  *checkpoint_ms += NowMs() - t0;
  TracedLeg leg;
  const double start = NowMs();
  leg.deployment = std::make_unique<TracedDeployment>(
      *instance.degraded, *instance.degraded_model, ConvergeConfig(),
      registry);
  t0 = NowMs();
  leg.deployment->Restore(resources, controllers);
  *restore_ms += NowMs() - t0;
  RunToEpsilon(instance.degraded_reference, start,
               [&] { return leg.deployment->RunRound(); }, &leg.solve);
  leg.solve.assignment = leg.deployment->CurrentAssignment();
  return leg;
}

bool SameAssignment(const lla::Assignment& a, const lla::Assignment& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void Accumulate(const LayerTimes& from, LayerTimes* into) {
  into->allocate_ms += from.allocate_ms;
  into->absorb_ms += from.absorb_ms;
  into->agent_apply_ms += from.agent_apply_ms;
  into->agent_price_ms += from.agent_price_ms;
  into->dispatch_ms += from.dispatch_ms;
  into->monitor_ms += from.monitor_ms;
  into->round_ms += from.round_ms;
  into->controller_calls += from.controller_calls;
  into->rounds += from.rounds;
  into->round_samples_ms.insert(into->round_samples_ms.end(),
                                from.round_samples_ms.begin(),
                                from.round_samples_ms.end());
}

}  // namespace

int RunConverge(const Options& options, Result* result) {
  // Set-up: instance generation, one coordinator per instance and its
  // warm-up round.  Timed setup_reps times: once before the solves, then
  // once after each solve, so the reported median spans the run rather than
  // one moment of a host whose speed drifts.  Each timed set-up follows an
  // identical untimed one, so every sample starts from the same warm caches
  // whatever solve ran before it.
  const auto make = [] {
    std::vector<Instance> made = MakeInstances();
    for (const Instance& instance : made) {
      Coordinator coordinator(*instance.workload, *instance.model,
                              ConvergeConfig());
      coordinator.RunSyncRound();
    }
    return made;
  };
  const auto set_up = [&] {
    make();
    const double start = NowMs();
    std::vector<Instance> made = make();
    result->setup_s.push_back((NowMs() - start) / 1e3);
    return made;
  };
  const int setup_reps = options.trace ? 1 : 31;
  std::vector<Instance> instances = set_up();
  int setups_left = setup_reps - 1;
  ResolveReferences(options.cache_dir, &instances);

  std::vector<std::size_t> order(instances.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(options.seed));

  // A solve is keyed by its instance and leg.  Every pass solves from the
  // same inputs, so each must reach epsilon at the first pass's round, and
  // round r of a solve does the same work in every pass.  A solve's time is
  // therefore assembled from its steps' fastest repeats: step 0 is the
  // set-up before round 1 (construction, and restore on the warm leg), step
  // r is round r.
  const auto key_of = [](std::size_t index, bool warm) {
    return 2 * index + (warm ? 1 : 0);
  };
  std::map<std::size_t, BestOf> best_steps;
  std::map<std::size_t, int> first_entry_round, first_rounds_run;
  // Fastest time of a solve's steps 0..last.
  const auto best_ms = [&](std::size_t key, int last) {
    const BestOf& steps = best_steps.at(key);
    double sum = 0.0;
    for (int r = 0; r <= last; ++r) sum += steps.At(r);
    return sum;
  };
  // Fastest time to epsilon of every solve of one leg that reached it.
  const auto leg_ms = [&](bool warm) {
    std::vector<double> out;
    for (std::size_t index = 0; index < instances.size(); ++index) {
      const std::size_t key = key_of(index, warm);
      if (best_steps.count(key) > 0) {
        out.push_back(best_ms(key, first_entry_round.at(key)));
      }
    }
    return out;
  };
  double cold_rounds = 0.0, warm_rounds = 0.0, unreached_ms = 0.0;
  double max_stationarity = 0.0, max_complementarity = 0.0;
  std::vector<std::string> instance_log;
  // `first` marks the full pass, whose solves make up the per-instance log
  // and the rounds-to-epsilon sums.
  const auto record = [&](std::size_t index, const Solve& solve, bool warm,
                          bool first) {
    if (setups_left > 0) {
      --setups_left;
      set_up();
    }
    const Instance& instance = instances[index];
    const std::size_t key = key_of(index, warm);
    result->tally.AddSolve(solve.reached, solve.kkt_ok);
    // Throughput counts the time of solves that reached epsilon.  The
    // stalled instance's round budget would otherwise be half the busy time
    // and hide any change in time to epsilon; it counts in `failed`.
    if (!solve.reached) unreached_ms += solve.busy_ms;
    const std::string label = instance.name + (warm ? " warm" : " cold");
    if (solve.reached && !solve.kkt_ok) {
      result->errors.push_back(label + ": epsilon hit fails KKT (" +
                               solve.kkt.Summary() + ")");
    }
    if (first) {
      first_entry_round[key] = solve.entry_round;
      first_rounds_run[key] = solve.rounds_run;
    } else if (first_entry_round[key] != solve.entry_round ||
               first_rounds_run[key] != solve.rounds_run) {
      result->errors.push_back(label + ": a repeat pass differs from the "
                               "first");
    }
    if (solve.reached) {
      BestOf& steps = best_steps[key];
      steps.Add(0, solve.prep_ms);
      for (std::size_t r = 0; r < solve.round_ms.size(); ++r) {
        steps.Add(r + 1, solve.round_ms[r]);
      }
      if (first) (warm ? warm_rounds : cold_rounds) += solve.entry_round;
      max_stationarity = std::max(max_stationarity,
                                  solve.kkt.max_stationarity_violation);
      max_complementarity = std::max(
          max_complementarity, solve.kkt.max_complementarity_violation);
    }
    if (!first) return;
    char line[200];
    if (solve.reached) {
      std::snprintf(line, sizeof(line), "%s: epsilon at round %d, %.1f ms",
                    label.c_str(), solve.entry_round, solve.eps_ms);
    } else {
      std::snprintf(line, sizeof(line),
                    "%s: NOT REACHED after %d rounds, %.1f ms (utility %.6g, "
                    "excess %.3g, path ratio %.6g)",
                    label.c_str(), solve.rounds_run, solve.busy_ms,
                    solve.last.total_utility, solve.last.max_resource_excess,
                    solve.last.max_path_ratio);
    }
    instance_log.push_back(line);
  };

  if (!options.trace) {
    // One full pass, then repeat passes over the instances that reached
    // epsilon in it; a solve's time comes from its steps' fastest passes.
    // The work is fixed by --seconds (one repeat pass per 4 s), not by the
    // host's speed, so every run of a commit solves the same multiset of
    // instances; repeating a solve that exhausted the round budget would
    // add no timing information.
    const int repeats = std::max(1, static_cast<int>(options.seconds / 4.0));
    std::vector<std::size_t> reached;
    for (std::size_t index : order) {
      const Instance& instance = instances[index];
      std::unique_ptr<Coordinator> cold;
      const Solve solve = SolveCold(instance, &cold);
      record(index, solve, false, true);
      if (!solve.reached) continue;
      reached.push_back(index);
      if (instance.degraded != nullptr) {
        record(index, SolveWarm(instance, *cold), true, true);
      }
    }
    for (int pass = 0; pass < repeats; ++pass) {
      for (std::size_t index : reached) {
        const Instance& instance = instances[index];
        std::unique_ptr<Coordinator> cold;
        const Solve solve = SolveCold(instance, &cold);
        record(index, solve, false, false);
        if (solve.reached && instance.degraded != nullptr) {
          record(index, SolveWarm(instance, *cold), true, false);
        }
      }
    }
  } else {
    // One pass: each leg traced through TracedDeployment, then repeated
    // through the Coordinator, which must reach the same round with a
    // bit-identical assignment.  The Coordinator legs give the untraced
    // epsilon times and round times for the overhead figure.
    lla::obs::MetricRegistry registry;
    LayerTimes layers;
    double checkpoint_ms = 0.0, restore_ms = 0.0;
    std::uint64_t messages = 0, bytes = 0, dropped = 0, warm_legs = 0;
    std::vector<double> untraced_round_ms;
    const auto compare = [&](const std::string& label, const Solve& traced,
                             const Solve& plain) {
      if (traced.rounds_run != plain.rounds_run ||
          !SameAssignment(traced.assignment, plain.assignment)) {
        result->errors.push_back(label +
                                 ": traced harness differs from Coordinator");
      }
    };
    const auto absorb = [&](const TracedLeg& leg, const Solve& plain) {
      Accumulate(leg.deployment->times(), &layers);
      messages += leg.deployment->bus_stats().sent;
      bytes += leg.deployment->bus_stats().bytes;
      dropped += leg.deployment->bus_stats().dropped;
      untraced_round_ms.insert(untraced_round_ms.end(), plain.round_ms.begin(),
                               plain.round_ms.end());
    };
    for (std::size_t index : order) {
      const Instance& instance = instances[index];
      TracedLeg traced_cold = TracedCold(instance, &registry);
      std::unique_ptr<Coordinator> cold;
      const Solve plain_cold = SolveCold(instance, &cold);
      record(index, plain_cold, false, true);
      compare(instance.name + " cold", traced_cold.solve, plain_cold);
      absorb(traced_cold, plain_cold);
      if (plain_cold.reached && instance.degraded != nullptr) {
        TracedLeg traced_warm =
            TracedWarm(instance, *traced_cold.deployment, &registry,
                       &checkpoint_ms, &restore_ms);
        const Solve plain_warm = SolveWarm(instance, *cold);
        record(index, plain_warm, true, true);
        compare(instance.name + " warm", traced_warm.solve, plain_warm);
        absorb(traced_warm, plain_warm);
        ++warm_legs;
      }
    }
    if (dropped > 0) result->errors.push_back("bus dropped messages");
    const double rounds = static_cast<double>(std::max<std::uint64_t>(
        layers.rounds, 1));
    const double traced_p50 = Quantile(layers.round_samples_ms, 0.5);
    const double legs = static_cast<double>(std::max<std::uint64_t>(
        warm_legs, 1));
    std::uint64_t stale = 0;
    for (const auto& counter : registry.Snapshot().counters) {
      if (counter.name == "recovery.stale_rejected") stale = counter.value;
    }
    result->layers.Num("controller.allocate_ms", layers.allocate_ms / rounds)
        .Num("controller.absorb_ms", layers.absorb_ms / rounds)
        .Num("controller.calls", layers.controller_calls / rounds)
        .Num("agent.apply_ms", layers.agent_apply_ms / rounds)
        .Num("agent.price_ms", layers.agent_price_ms / rounds)
        .Num("bus.dispatch_ms", layers.dispatch_ms / rounds)
        .Num("bus.messages_per_round", messages / rounds)
        .Num("bus.bytes_per_round", bytes / rounds)
        .Num("bus.dropped", static_cast<double>(dropped))
        .Num("monitor.sample_ms", layers.monitor_ms / rounds)
        .Num("checkpoint_ms", checkpoint_ms / legs)
        .Num("restore_ms", restore_ms / legs)
        .Num("recovery.stale_rejected", static_cast<double>(stale))
        .Num("converge.cold_eps_rounds", cold_rounds)
        .Num("converge.warm_eps_rounds", warm_rounds)
        .Num("converge.cold_eps_ms_p50", Quantile(leg_ms(false), 0.5))
        .Num("converge.warm_eps_ms_p50", Quantile(leg_ms(true), 0.5))
        .Num("trace.round_ms", traced_p50)
        .Num("trace.overhead_ms", traced_p50 - Quantile(untraced_round_ms, 0.5))
        .Num("trace.coverage", layers.SerialSelfMs() / layers.round_ms);
  }

  for (; setups_left > 0; --setups_left) set_up();
  for (const auto& [key, steps] : best_steps) {
    result->op_ms.push_back(best_ms(key, first_entry_round.at(key)));
    result->busy_ms += best_ms(key, first_rounds_run.at(key));
  }
  const std::vector<double> cold_ms = leg_ms(false);
  const std::vector<double> warm_ms = leg_ms(true);

  result->info.Num("instances", static_cast<double>(instances.size()))
      .Num("cold_solves_reached", static_cast<double>(cold_ms.size()))
      .Num("warm_solves_reached", static_cast<double>(warm_ms.size()))
      .Num("cold_eps_ms_p50", Quantile(cold_ms, 0.5))
      .Num("warm_eps_ms_p50", Quantile(warm_ms, 0.5))
      .Num("cold_eps_rounds", cold_rounds)
      .Num("warm_eps_rounds", warm_rounds)
      .Num("unreached_ms", unreached_ms)
      .Num("kkt_max_stationarity", max_stationarity)
      .Num("kkt_max_complementarity", max_complementarity)
      .Strs("solves", instance_log);
  return 0;
}

}  // namespace perfbench
