// Steady-state heap traffic of a sharded synchronous round (DESIGN.md
// §7.14).  Controllers and shard agents keep their wire arenas across
// rounds, so once the first rounds have sized every buffer a serial
// RunSyncRound allocates a fixed number of times, independent of the task
// count.  Its own binary, because it replaces the global operator new.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "runtime/coordinator.h"
#include "workloads/random.h"

// Counts global operator new calls while armed.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler cannot pair an inlined free() with a new
// expression and warn about a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lla::runtime {
namespace {

constexpr int kWarmupRounds = 3;
constexpr int kCountedRounds = 10;

/// Heap allocations of kCountedRounds serial sharded rounds after warm-up,
/// on a random workload of about `subtasks` subtasks.
std::uint64_t SteadyStateAllocations(std::size_t subtasks) {
  auto workload = MakeRandomWorkload(ScaledRandomWorkloadConfig(subtasks, 3));
  EXPECT_TRUE(workload.ok()) << workload.error();
  const Workload& w = workload.value();
  LatencyModel model(w);
  CoordinatorConfig config;
  config.num_shards = 4;
  config.bus.base_delay_ms = 0.0;
  // Per-round bookkeeping that grows by design is off: the history, and
  // enactments (each copies the whole assignment) after the first.
  config.record_history = false;
  config.enactment_threshold = 1e300;
  Coordinator coordinator(w, model, config);
  for (int round = 0; round < kWarmupRounds; ++round) {
    coordinator.RunSyncRound();
  }
  g_allocations = 0;
  g_count_allocations = true;
  for (int round = 0; round < kCountedRounds; ++round) {
    coordinator.RunSyncRound();
  }
  g_count_allocations = false;
  return g_allocations.load();
}

TEST(RoundAllocationTest, SteadyStateAllocationsDoNotGrowWithTaskCount) {
  // About 200 and 2,000 tasks.
  const std::uint64_t small = SteadyStateAllocations(900);
  const std::uint64_t large = SteadyStateAllocations(9000);
  EXPECT_LE(large, small) << "small=" << small << " large=" << large;
  // Far below one allocation per controller per round.
  EXPECT_LT(small, 200u * kCountedRounds) << "small=" << small;
}

}  // namespace
}  // namespace lla::runtime
