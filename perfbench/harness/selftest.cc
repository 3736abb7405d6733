// Self-tests of the harness's own logic: the enter-and-stay epsilon
// detector, the quantile rule, the fastest-repeat record and the
// failed-operation tally.  Run with
// `lla_perfbench selftest` (run.py --selftest runs these and the Python
// ones).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct Feed {
  int entry_round = -1;
  double entry_ms = 0.0;
  bool confirmed = false;
  int confirmed_at = -1;
};

/// Feeds a utility series (feasible samples, 1 ms per round) to a detector
/// with reference 100.
Feed Run(const std::vector<double>& utilities, EpsBand band = {}) {
  EpsDetector detector(100.0, band);
  Feed feed;
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    const int round = static_cast<int>(i) + 1;
    if (detector.Observe(round, round * 1.0, utilities[i], 0.0, 1.0) &&
        feed.confirmed_at < 0) {
      feed.confirmed_at = round;
    }
  }
  feed.confirmed = detector.confirmed();
  feed.entry_round = detector.entry_round();
  feed.entry_ms = detector.entry_ms();
  return feed;
}

void TestDetector() {
  // Monotone approach: enters at round 4 (|99.5 - 100| <= 1) and stays.
  std::vector<double> approach = {80, 90, 95, 99.5};
  approach.resize(20, 99.8);
  Feed feed = Run(approach);
  Expect(feed.confirmed && feed.entry_round == 4 && feed.entry_ms == 4.0,
         "monotone approach enters at round 4");
  Expect(feed.confirmed_at == 13, "hit confirmed after 10 in-band rounds");

  // Transient crossing: in band for rounds 3-7 only, then overshoots, then
  // settles from round 12.  The hit must be stamped at 12, not 3.
  std::vector<double> transient = {80, 90, 100, 100.5, 99.5, 100, 100.2,
                                   103, 104, 102, 101.5};
  transient.resize(30, 100.1);
  feed = Run(transient);
  Expect(feed.confirmed && feed.entry_round == 12,
         "transient crossing is not a hit; entry re-stamped at round 12");

  // Never stays long enough: 9-round streaks separated by excursions.
  std::vector<double> flapping;
  for (int cycle = 0; cycle < 5; ++cycle) {
    flapping.insert(flapping.end(), 9, 100.0);
    flapping.push_back(120.0);
  }
  feed = Run(flapping);
  Expect(!feed.confirmed, "9-round streaks never confirm");

  // Feasibility gates the band even at the reference utility.
  EpsDetector detector(100.0);
  Expect(!detector.InBand(100.0, 2e-3, 1.0), "resource excess leaves band");
  Expect(!detector.InBand(100.0, 0.0, 1.002), "path ratio leaves band");
  Expect(detector.InBand(100.0, 1e-3, 1.001), "band edges are inclusive");
  // Relative gap uses max(1, |reference|).
  EpsDetector small(0.5);
  Expect(small.InBand(0.5 + 0.009, 0.0, 1.0) &&
             !small.InBand(0.5 + 0.011, 0.0, 1.0),
         "gap scale floors at 1");
}

void TestQuantile() {
  Expect(Quantile({}, 0.5) == 0.0, "empty sample");
  Expect(Quantile({3, 1, 2}, 0.5) == 2.0, "median of three");
  Expect(Quantile({1, 2, 3, 4}, 0.5) == 2.5, "median interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  Expect(std::fabs(Quantile(hundred, 0.9) - 91.0) < 1e-12, "p90 of 1..101");
}

void TestTally() {
  Tally solves;
  solves.AddSolve(true, true);    // reached, KKT ok
  solves.AddSolve(false, false);  // never reached epsilon
  solves.AddSolve(true, false);   // reached with a KKT-failing iterate
  Expect(solves.attempted == 3 && solves.failed == 2,
         "unreached and KKT-failing solves count as failed");

  Tally mutations;
  lla::runtime::ChurnRecord converged;
  converged.applied = true;
  converged.converged = true;
  lla::runtime::ChurnRecord unconverged = converged;
  unconverged.converged = false;
  lla::runtime::ChurnRecord rejected;  // join refused by admission
  rejected.applied = false;
  rejected.converged = false;
  mutations.AddMutation(converged);
  mutations.AddMutation(unconverged);
  mutations.AddMutation(rejected);
  Expect(mutations.attempted == 3 && mutations.failed == 1,
         "only applied, unconverged mutations fail");

  Tally rounds;
  rounds.AddRound(true);
  rounds.AddRound(false);
  Expect(rounds.attempted == 2 && rounds.failed == 1, "round checks");
}

void TestBestOf() {
  BestOf best;
  best.Add(2, 30.0);
  best.Add(0, 12.0);
  best.Add(2, 25.0);  // faster repeat replaces
  best.Add(0, 15.0);  // slower repeat is ignored
  const std::vector<double> values = best.Values();
  Expect(values.size() == 2 && values[0] == 12.0 && values[1] == 25.0,
         "one fastest repeat per operation, in operation order");
  Expect(best.Sum() == 37.0, "sum of fastest repeats");
  Expect(best.Has(2) && !best.Has(1) && best.At(2) == 25.0,
         "lookup by operation");
}

}  // namespace

int RunSelfTest() {
  TestDetector();
  TestQuantile();
  TestBestOf();
  TestTally();
  std::printf("lla_perfbench selftest: %s (%d failures)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
