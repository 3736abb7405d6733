// Shared pieces of the lla_perfbench harness: the run options, the result
// record every workload fills, a one-line JSON writer, clocks, the
// enter-and-stay epsilon detector and the operation tally.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/churn.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the reference-optimum cache (created by run.py).
  std::string cache_dir = ".";
};

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process (VmHWM).
double PeakRssMb();

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.  Same rule as perfbench/stats.py.
double Quantile(std::vector<double> values, double q);

/// Minimal ordered JSON object writer: numbers, strings, bools, number
/// arrays and nested objects, rendered on one line.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Nums(const std::string& key, const std::vector<double>& values);
  Json& Strs(const std::string& key, const std::vector<std::string>& values);
  Json& Obj(const std::string& key, const Json& value);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The fastest repeat of each operation.  Every timed operation of a run is
/// repeated with identical inputs at different moments of the run; other
/// tenants of a shared host only ever add time to an operation, so its
/// fastest repeat is the steadiest estimate of its own cost.
class BestOf {
 public:
  void Add(std::size_t op, double ms) {
    auto [it, fresh] = best_.emplace(op, ms);
    if (!fresh) it->second = std::min(it->second, ms);
  }
  /// One value per operation, in operation order.
  std::vector<double> Values() const {
    std::vector<double> out;
    for (const auto& [op, ms] : best_) out.push_back(ms);
    return out;
  }
  double Sum() const {
    double sum = 0.0;
    for (const auto& [op, ms] : best_) sum += ms;
    return sum;
  }
  bool Has(std::size_t op) const { return best_.count(op) > 0; }
  double At(std::size_t op) const { return best_.at(op); }

 private:
  std::map<std::size_t, double> best_;
};

/// Counts operations for the attempted/failed fields: an operation is one
/// solve to epsilon (converge), one sync round (rounds_*) or one
/// ChurnDriver::Apply call (churn).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// A solve fails when it never reached epsilon, or reached it with an
  /// iterate that fails the KKT check.
  void AddSolve(bool reached, bool kkt_ok) {
    ++attempted;
    if (!reached || !kkt_ok) ++failed;
  }
  /// A mutation fails when it changed the live system and did not
  /// re-converge within the driver's budget.  Rejected joins and skipped
  /// leaves are served requests, not failures.
  void AddMutation(const lla::runtime::ChurnRecord& record) {
    ++attempted;
    if (record.applied && !record.converged) ++failed;
  }
  void AddRound(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Epsilon band of the time-to-epsilon metrics: relative utility gap to the
/// reference optimum, resource excess and path-ratio slack.
struct EpsBand {
  double rel_gap = 1e-2;
  double max_excess = 1e-3;
  double max_path_ratio = 1.0 + 1e-3;
  /// Consecutive in-band rounds (entry round included) that confirm a hit.
  int stay_rounds = 10;
};

/// Enter-and-stay detector over a stream of per-round samples.  A hit is
/// the first round of an in-band streak that lasts stay_rounds rounds; its
/// round number and time stamp are those of the entry round, so a
/// transient crossing that leaves the band again is never reported.
class EpsDetector {
 public:
  EpsDetector(double reference_utility, EpsBand band = {})
      : reference_(reference_utility), band_(band) {}

  bool InBand(double utility, double excess, double path_ratio) const {
    const double scale = std::max(1.0, std::fabs(reference_));
    return std::fabs(utility - reference_) <= band_.rel_gap * scale &&
           excess <= band_.max_excess && path_ratio <= band_.max_path_ratio;
  }

  /// Feeds round `round` observed at `at_ms`; returns true once confirmed.
  bool Observe(int round, double at_ms, double utility, double excess,
               double path_ratio) {
    if (confirmed_) return true;
    if (!InBand(utility, excess, path_ratio)) {
      streak_ = 0;
      return false;
    }
    if (streak_ == 0) {
      entry_round_ = round;
      entry_ms_ = at_ms;
    }
    if (++streak_ >= band_.stay_rounds) confirmed_ = true;
    return confirmed_;
  }

  bool confirmed() const { return confirmed_; }
  /// True while a streak has started and is not yet confirmed.
  bool pending() const { return !confirmed_ && streak_ > 0; }
  int entry_round() const { return entry_round_; }
  double entry_ms() const { return entry_ms_; }

 private:
  double reference_;
  EpsBand band_;
  int streak_ = 0;
  int entry_round_ = -1;
  double entry_ms_ = 0.0;
  bool confirmed_ = false;
};

/// Everything one workload run reports back to run.py.
struct Result {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Fastest repeat of each distinct successful operation.
  std::vector<double> op_ms;
  /// Wall time throughput is computed over, summed over the fastest repeat
  /// of each distinct operation: every operation on rounds_* and churn,
  /// failed ones included; only solves that reached epsilon on converge,
  /// where a failure is a whole unproductive round budget.
  double busy_ms = 0.0;
  Tally tally;
  std::vector<std::string> errors;  ///< wrong outputs; any entry fails the run
  Json layers;                      ///< per-layer metrics (traced runs)
  Json info;                        ///< diagnostics printed, not scored
};

int RunConverge(const Options& options, Result* result);
int RunRounds(const Options& options, Result* result);
int RunChurn(const Options& options, Result* result);
int RunSelfTest();

}  // namespace perfbench
