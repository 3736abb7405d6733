// lla_perfbench: runs one benchmark workload and prints its raw result as
// the last line of stdout (one JSON object; run.py turns it into metrics).
//
//   lla_perfbench <converge|rounds_100k|churn>
//                 --seed N --seconds S --trace 0|1 --cache-dir DIR
//   lla_perfbench selftest
//
// Exit codes: 0 ok, 1 wrong output (the result line says which check
// failed), 2 usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lla_perfbench <converge|rounds_100k|churn> --seed N "
               "--seconds S --trace 0|1 --cache-dir DIR\n"
               "       lla_perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  perfbench::Options options;
  options.workload = argv[1];
  if (options.workload == "selftest") return perfbench::RunSelfTest();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--cache-dir") {
      options.cache_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) return Usage();

  perfbench::Result result;
  int status = 0;
  if (options.workload == "converge") {
    status = perfbench::RunConverge(options, &result);
  } else if (options.workload == "rounds_100k") {
    status = perfbench::RunRounds(options, &result);
  } else if (options.workload == "churn") {
    status = perfbench::RunChurn(options, &result);
  } else {
    return Usage();
  }
  if (status != 0) return status;

  perfbench::Json out;
  out.Str("workload", options.workload)
      .Num("seed", static_cast<double>(options.seed))
      .Bool("trace", options.trace)
      .Bool("correct", result.errors.empty())
      .Strs("errors", result.errors)
      .Num("attempted", static_cast<double>(result.tally.attempted))
      .Num("failed", static_cast<double>(result.tally.failed))
      .Nums("setup_s", result.setup_s)
      .Nums("op_ms", result.op_ms)
      .Num("busy_ms", result.busy_ms)
      .Num("peak_rss_mb", perfbench::PeakRssMb())
      .Obj("layers", result.layers)
      .Obj("info", result.info);
  std::printf("%s\n", out.Render().c_str());
  std::fflush(stdout);
  return result.errors.empty() ? 0 : 1;
}
