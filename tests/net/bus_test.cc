#include "net/bus.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"

// Counts global operator new calls while armed, so a test can assert that
// a code path performs no heap allocation.
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

namespace lla::net {
namespace {

Message Ping(EndpointId from, EndpointId to, double mu = 1.0) {
  Message message;
  message.sender = from;
  message.receiver = to;
  message.payload = ResourcePriceUpdate{ResourceId(0u), mu, 0, false};
  return message;
}

TEST(BusTest, DeliversInTimestampOrder) {
  BusConfig config;
  config.base_delay_ms = 1.0;
  InProcessBus bus(config);
  std::vector<double> received;
  const EndpointId a = bus.Register("a", [&](const Message& m) {
    received.push_back(std::get<ResourcePriceUpdate>(m.payload).mu);
  });
  const EndpointId b = bus.Register("b", nullptr);
  bus.Send(Ping(b, a, 1.0));
  bus.Send(Ping(b, a, 2.0));
  bus.RunAll();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_DOUBLE_EQ(received[0], 1.0);  // FIFO for equal timestamps
  EXPECT_DOUBLE_EQ(received[1], 2.0);
  EXPECT_DOUBLE_EQ(bus.now_ms(), 1.0);
}

TEST(BusTest, AppliesBaseDelay) {
  BusConfig config;
  config.base_delay_ms = 5.0;
  InProcessBus bus(config);
  double delivered_at = -1.0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { delivered_at = bus.now_ms(); });
  bus.Send(Ping(a, a));
  bus.RunAll();
  EXPECT_DOUBLE_EQ(delivered_at, 5.0);
}

TEST(BusTest, JitterIsDeterministicPerSeed) {
  auto trace = [](std::uint64_t seed) {
    BusConfig config;
    config.base_delay_ms = 1.0;
    config.jitter_ms = 4.0;
    config.seed = seed;
    InProcessBus bus(config);
    std::vector<double> times;
    const EndpointId a =
        bus.Register("a", [&](const Message&) { times.push_back(bus.now_ms()); });
    for (int i = 0; i < 20; ++i) bus.Send(Ping(a, a));
    bus.RunAll();
    return times;
  };
  EXPECT_EQ(trace(3), trace(3));
  EXPECT_NE(trace(3), trace(4));
}

TEST(BusTest, DropsMessagesAtConfiguredRate) {
  BusConfig config;
  config.drop_probability = 0.5;
  config.seed = 11;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { ++received; });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) bus.Send(Ping(a, a));
  bus.RunAll();
  EXPECT_EQ(bus.stats().sent, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(bus.stats().delivered + bus.stats().dropped,
            static_cast<std::uint64_t>(sent));
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.5, 0.05);
}

TEST(BusTest, RunUntilStopsAtHorizon) {
  BusConfig config;
  config.base_delay_ms = 10.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a =
      bus.Register("a", [&](const Message&) { ++received; });
  bus.Send(Ping(a, a));          // delivery at t=10
  bus.RunUntil(5.0);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.pending(), 1u);
  EXPECT_DOUBLE_EQ(bus.now_ms(), 5.0);
  bus.RunUntil(10.0);
  EXPECT_EQ(received, 1);
}

TEST(BusTest, TimersFireAndCanReschedule) {
  InProcessBus bus;
  int fired = 0;
  EndpointId a = 0;
  a = bus.Register("a", nullptr, [&](std::uint64_t token) {
    ++fired;
    if (token < 3) bus.ScheduleTimer(a, 1.0, token + 1);
  });
  bus.ScheduleTimer(a, 1.0, 1);
  bus.RunUntil(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(bus.stats().timers_fired, 3u);
}

TEST(BusTest, AccountsBytes) {
  InProcessBus bus;
  const EndpointId a = bus.Register("a", nullptr);
  Message message = Ping(a, a);
  bus.Send(message);
  EXPECT_EQ(bus.stats().bytes, WireSize(message));
}

TEST(BusTest, EndpointNames) {
  InProcessBus bus;
  const EndpointId a = bus.Register("alpha", nullptr);
  EXPECT_EQ(bus.endpoint_name(a), "alpha");
}

TEST(BusTest, DropIncrementsGlobalAndBothEndpointCounters) {
  // Regression: CountDrop used to nest the per-endpoint increments inside
  // the global counter's null check; the three counters are independent and
  // must each tick on a drop (sender, receiver, and global).
  obs::MetricRegistry metrics;
  BusConfig config;
  config.metrics = &metrics;
  InProcessBus bus(config);
  const EndpointId a = bus.Register("a", nullptr);
  const EndpointId b = bus.Register("b", nullptr);
  bus.BlackoutEndpoint(b, 100.0);
  bus.Send(Ping(a, b));
  EXPECT_EQ(metrics.GetCounter("bus.dropped")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.a.dropped")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.b.dropped")->value(), 1u);
  // The send itself was still accounted before the drop decision.
  EXPECT_EQ(metrics.GetCounter("bus.sent")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("bus.endpoint.a.sent")->value(), 1u);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

TEST(BusTest, StampsSenderIncarnationOnSend) {
  InProcessBus bus;
  std::vector<std::uint32_t> seen;
  EndpointId a = 0;
  const EndpointId b = bus.Register(
      "b", [&](const Message& m) { seen.push_back(m.incarnation); });
  a = bus.Register("a", nullptr);
  EXPECT_EQ(bus.incarnation(a), 0u);
  bus.Send(Ping(a, b));
  bus.RunAll();
  bus.CrashEndpoint(a);
  bus.RestartEndpoint(a);
  bus.RestartEndpoint(a);  // a second restart keeps counting up
  EXPECT_EQ(bus.incarnation(a), 2u);
  bus.Send(Ping(a, b));
  bus.RunAll();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[1], 2u);
}

TEST(BusTest, CrashedEndpointDropsTrafficUntilRestart) {
  BusConfig config;
  config.base_delay_ms = 1.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a = bus.Register("a", [&](const Message&) { ++received; });
  const EndpointId b = bus.Register("b", nullptr);

  bus.CrashEndpoint(a);
  EXPECT_TRUE(bus.IsBlackedOut(a));
  bus.Send(Ping(b, a));  // toward the crashed endpoint
  bus.Send(Ping(a, b));  // from the crashed endpoint
  bus.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 2u);

  // Unlike BlackoutEndpoint, the crash is open-ended: it survives any
  // amount of virtual time until an explicit restart.
  bus.RunUntil(1e12);
  EXPECT_TRUE(bus.IsBlackedOut(a));

  bus.RestartEndpoint(a);
  EXPECT_FALSE(bus.IsBlackedOut(a));
  bus.Send(Ping(b, a));
  bus.RunAll();
  EXPECT_EQ(received, 1);
}

TEST(BusTest, InFlightMessageDropsWhenReceiverCrashesBeforeDelivery) {
  BusConfig config;
  config.base_delay_ms = 10.0;
  InProcessBus bus(config);
  int received = 0;
  const EndpointId a = bus.Register("a", [&](const Message&) { ++received; });
  const EndpointId b = bus.Register("b", nullptr);
  bus.Send(Ping(b, a));  // delivery would be at t=10
  bus.RunUntil(5.0);
  bus.CrashEndpoint(a);
  bus.RunAll();  // delivery attempt happens while a is down
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped, 1u);
}

// Delivery-order property: whatever mix of zero and base delays, seeded
// jitter and drops, out-of-order timers, RunUntil horizons and same-instant
// handler re-sends drives the bus, it delivers exactly the scheduled events
// sorted by (at_ms, seq), seq being the push order.  This covers both
// queue lanes: in-order pushes take the FIFO lane, jittered sends and early
// timers the heap.
TEST(BusTest, DeliveryOrderIsScheduleSortedByTimeThenSeq) {
  struct Scheduled {
    double at_ms;
    std::uint64_t seq;
    EndpointId endpoint;
    std::uint64_t id;
  };
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng driver(0x0bde'0000 + trial);
    BusConfig config;
    config.base_delay_ms = 0.5 * static_cast<double>(driver.Below(3));
    config.jitter_ms = driver.Below(2) == 0 ? 0.0 : 0.75;
    config.drop_probability = driver.Below(3) == 0 ? 0.2 : 0.0;
    config.seed = trial + 1;
    InProcessBus bus(config);
    // Replays the bus's drop and jitter draws, which happen in send order.
    Rng mirror(config.seed);
    std::vector<Scheduled> schedule;
    std::vector<std::pair<EndpointId, std::uint64_t>> delivered;
    std::uint64_t seq = 0;
    std::uint64_t next_id = 0;
    constexpr std::uint64_t kBudget = 400;  // ids issued per trial
    constexpr EndpointId kEndpoints = 4;

    auto send = [&](EndpointId from, EndpointId to) {
      if (next_id == kBudget) return;
      const std::uint64_t id = next_id++;
      Message message = Ping(from, to);
      std::get<ResourcePriceUpdate>(message.payload).epoch =
          static_cast<std::uint32_t>(id);
      bool dropped = false;
      double delay = config.base_delay_ms;
      if (config.drop_probability > 0.0 &&
          mirror.NextDouble() < config.drop_probability) {
        dropped = true;
      } else if (config.jitter_ms > 0.0) {
        delay += mirror.Uniform(0.0, config.jitter_ms);
      }
      if (!dropped) schedule.push_back({bus.now_ms() + delay, seq++, to, id});
      bus.Send(std::move(message));
    };
    auto timer = [&](EndpointId endpoint) {
      if (next_id == kBudget) return;
      const std::uint64_t id = next_id++;
      // Quantized delays make ties across lanes and with messages common.
      const double delay = 0.5 * static_cast<double>(driver.Below(7));
      schedule.push_back({bus.now_ms() + delay, seq++, endpoint, id});
      bus.ScheduleTimer(endpoint, delay, id);
    };
    auto react = [&](EndpointId self) {
      const std::uint64_t roll = driver.Below(4);
      if (roll == 0) send(self, static_cast<EndpointId>(driver.Below(kEndpoints)));
      if (roll == 1) timer(self);
    };
    for (EndpointId e = 0; e < kEndpoints; ++e) {
      bus.Register(
          "e" + std::to_string(e),
          [&, e](const Message& m) {
            delivered.emplace_back(
                e, std::get<ResourcePriceUpdate>(m.payload).epoch);
            react(e);
          },
          [&, e](std::uint64_t token) {
            delivered.emplace_back(e, token);
            react(e);
          });
    }
    auto external_burst = [&] {
      const std::uint64_t n = 1 + driver.Below(12);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto from = static_cast<EndpointId>(driver.Below(kEndpoints));
        if (driver.Below(3) == 0) {
          timer(from);
        } else {
          send(from, static_cast<EndpointId>(driver.Below(kEndpoints)));
        }
      }
    };
    external_burst();
    for (int step = 0; step < 8; ++step) {
      bus.RunUntil(bus.now_ms() + 0.5 * static_cast<double>(driver.Below(4)));
      external_burst();
    }
    bus.RunAll();
    EXPECT_EQ(bus.pending(), 0u);

    std::sort(schedule.begin(), schedule.end(),
              [](const Scheduled& a, const Scheduled& b) {
                if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                return a.seq < b.seq;
              });
    std::vector<std::pair<EndpointId, std::uint64_t>> expected;
    for (const Scheduled& event : schedule) {
      expected.emplace_back(event.endpoint, event.id);
    }
    ASSERT_EQ(delivered, expected) << "trial " << trial;
  }
}

// On an RNG-free bus RunAllParallel delivers what RunAll delivers when only
// timer handlers send (the sync-round shape): the same inbox sequence at
// every endpoint, at the same virtual times, with the same stats.
TEST(BusTest, RunAllParallelMatchesRunAll) {
  constexpr EndpointId kEndpoints = 6;
  struct Log {
    std::vector<std::vector<std::pair<double, std::uint32_t>>> inbox;
    std::vector<std::uint64_t> timers;
    BusStats stats;
    double end_ms = 0.0;
  };
  auto run = [&](std::uint64_t seed, ThreadPool* pool) {
    Rng driver(seed);
    BusConfig config;
    config.base_delay_ms = driver.Below(2) == 0 ? 0.0 : 1.0;
    InProcessBus bus(config);
    Log log;
    log.inbox.resize(kEndpoints);
    std::vector<EndpointId> ids;
    std::uint32_t next_mu = 0;
    for (EndpointId e = 0; e < kEndpoints; ++e) {
      ids.push_back(bus.Register(
          "e" + std::to_string(e),
          [&, e](const Message& m) {
            log.inbox[e].emplace_back(
                bus.now_ms(), std::get<ResourcePriceUpdate>(m.payload).epoch);
          },
          [&, e](std::uint64_t token) {
            log.timers.push_back(token);
            // A phase driver: fan messages out, sometimes re-arm.
            const std::uint64_t fan = 1 + driver.Below(2 * kEndpoints);
            for (std::uint64_t i = 0; i < fan; ++i) {
              Message m = Ping(e, static_cast<EndpointId>(
                                      driver.Below(kEndpoints)));
              std::get<ResourcePriceUpdate>(m.payload).epoch = next_mu++;
              bus.Send(std::move(m));
            }
            if (token < 40) {
              bus.ScheduleTimer(e, 0.5 * static_cast<double>(driver.Below(4)),
                                token + kEndpoints);
            }
          }));
    }
    for (EndpointId e = 0; e < kEndpoints; ++e) {
      bus.ScheduleTimer(ids[e], 0.5 * static_cast<double>(driver.Below(3)), e);
    }
    if (pool == nullptr) {
      bus.RunAll();
    } else {
      bus.RunAllParallel(pool);
    }
    log.stats = bus.stats();
    log.end_ms = bus.now_ms();
    return log;
  };
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Log serial = run(seed, nullptr);
    const Log parallel = run(seed, &pool);
    EXPECT_EQ(parallel.inbox, serial.inbox) << "seed " << seed;
    EXPECT_EQ(parallel.timers, serial.timers) << "seed " << seed;
    EXPECT_EQ(parallel.stats.delivered, serial.stats.delivered);
    EXPECT_EQ(parallel.stats.timers_fired, serial.stats.timers_fired);
    EXPECT_EQ(parallel.stats.bytes, serial.stats.bytes);
    EXPECT_EQ(parallel.end_ms, serial.end_ms);
  }
}

// Steady-state delivery allocates nothing: after a first round sizes the
// queue, slot table, wave scratch and wire-check buffers, a second round of
// the same traffic (every payload kind, the wire check on) sends and
// delivers without a single heap allocation, serially and in parallel waves.
TEST(BusTest, SteadyStateDeliveryDoesNotAllocate) {
  auto arena = std::make_shared<std::string>();
  const double values[] = {1.5, 2.25, 4.0};
  const std::uint8_t flags[] = {1, 0, 1};
  const ArenaSpan lat_span = AppendShardLatencyPayload(values, 3, arena.get());
  const ArenaSpan price_span =
      AppendShardPricePayload(values, flags, nullptr, 3, arena.get());
  const std::shared_ptr<const std::string> frozen(std::move(arena));
  constexpr EndpointId kEndpoints = 5;
  auto round_traffic = [&] {
    std::vector<Message> traffic;
    for (EndpointId to = 0; to < kEndpoints; ++to) {
      for (int kind = 0; kind < 6; ++kind) {
        Message m;
        m.sender = (to + 1) % kEndpoints;
        m.receiver = to;
        switch (kind) {
          case 0:
            m.payload = LatencyUpdate{TaskId(1u),
                                      {SubtaskId(2u), SubtaskId(3u)},
                                      {7.5, 8.25}};
            break;
          case 1:
            m.payload = ResourcePriceUpdate{ResourceId(2u), 3.5, 9, true};
            break;
          case 2:
            m.payload = RepairRequest{ResourceId(4u)};
            break;
          case 3:
            m.payload = RepairResponse{ResourceId(4u), TaskId(1u), 2.0, 3,
                                       false, {SubtaskId(5u)}, {6.5}};
            break;
          case 4:
            m.payload = ShardLatencyUpdate{
                TaskId(1u), 0, 3,
                WireSlice(frozen, lat_span.offset, lat_span.length)};
            break;
          default:
            m.payload = ShardPriceUpdate{
                0, 7, 3,
                WireSlice(frozen, price_span.offset, price_span.length)};
            break;
        }
        traffic.push_back(std::move(m));
      }
    }
    return traffic;
  };
  ThreadPool pool(4);
  for (ThreadPool* round_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    InProcessBus bus;
    std::uint64_t received = 0;
    for (EndpointId e = 0; e < kEndpoints; ++e) {
      bus.Register("e" + std::to_string(e),
                   [&received](const Message&) {
                     std::atomic_ref<std::uint64_t>(received).fetch_add(1);
                   });
    }
    for (int round = 0; round < 3; ++round) {
      std::vector<Message> traffic = round_traffic();
      g_allocations = 0;
      g_count_allocations = round > 0;
      for (Message& message : traffic) bus.Send(std::move(message));
      if (round_pool == nullptr) {
        bus.RunAll();
      } else {
        bus.RunAllParallel(round_pool);
      }
      g_count_allocations = false;
      EXPECT_EQ(g_allocations.load(), 0u)
          << "round " << round << (round_pool ? " parallel" : " serial");
    }
    EXPECT_EQ(received, 3u * kEndpoints * 6);
  }
}

}  // namespace
}  // namespace lla::net