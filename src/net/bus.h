// InProcessBus: the simulated network connecting task controllers and
// resource agents.
//
// The paper evaluates LLA as a distributed algorithm; this bus lets the
// whole deployment run in one process while still exhibiting the properties
// that matter to the protocol — per-message delay (fixed + jitter),
// probabilistic loss, and asynchronous delivery order.  The bus owns a
// virtual clock and an event queue; endpoints also schedule local timers
// through it, which is what drives the asynchronous runtime.
//
// Determinism: all randomness (jitter, drops) comes from a seeded generator,
// and simultaneous events break ties by sequence number, so a given seed
// always yields the same trace.
//
// Cost: delivery is O(1) per event when events arrive in time order (every
// sync round), through a FIFO lane beside the event heap (DESIGN.md
// §7.13), and allocation-free in steady state, the wire self-check
// included.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace lla {
class ThreadPool;
}  // namespace lla

namespace lla::net {

using EndpointId = std::uint32_t;

struct BusConfig {
  double base_delay_ms = 0.1;   ///< fixed propagation delay per message
  double jitter_ms = 0.0;       ///< uniform extra delay in [0, jitter_ms)
  double drop_probability = 0.0;
  std::uint64_t seed = 1;
  /// Wire self-check on every delivery: encode the message, decode the
  /// bytes, re-encode the result and compare the two encodings byte for
  /// byte (WireRoundTrips).  A decode failure or a byte mismatch prints the
  /// endpoints and payload kind and aborts, in every build type.  Reuses
  /// its buffers, so it allocates nothing in steady state; off skips the
  /// work in big sweeps.
  bool verify_wire_format = true;
  /// Registry for the bus counters: global bus.sent / bus.delivered /
  /// bus.dropped / bus.delayed (messages that drew extra jitter delay) /
  /// bus.timers_fired, plus per-endpoint bus.endpoint.<name>.sent /
  /// .delivered / .dropped resolved at Register time.  Null (the default)
  /// disables them; BusStats is always maintained (non-owning; must outlive
  /// the bus).
  obs::MetricRegistry* metrics = nullptr;
};

struct BusStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timers_fired = 0;
  std::uint64_t bytes = 0;
};

class InProcessBus {
 public:
  using MessageHandler = std::function<void(const Message&)>;
  using TimerHandler = std::function<void(std::uint64_t token)>;

  explicit InProcessBus(BusConfig config = {});

  /// Registers an endpoint; the returned id is the address used in
  /// Message::sender/receiver.  Handlers run during Deliver*/Run* calls.
  EndpointId Register(std::string name, MessageHandler on_message,
                      TimerHandler on_timer = nullptr);

  /// Queues a message for delivery after the configured delay (or drops it).
  void Send(Message message);

  /// Failure injection: all messages to or from `endpoint` sent while
  /// now < until_ms are dropped (counted in stats().dropped).  Models a
  /// crashed/partitioned node; timers keep firing, so the node "recovers"
  /// with stale state — exactly what the price protocol must tolerate.
  void BlackoutEndpoint(EndpointId endpoint, double until_ms);

  /// True while the endpoint is inside a blackout window.
  bool IsBlackedOut(EndpointId endpoint) const;

  /// Crash-restart injection (DESIGN.md §7.7).  CrashEndpoint is an
  /// open-ended blackout: every message to or from the endpoint drops until
  /// RestartEndpoint, which clears the blackout and bumps the endpoint's
  /// incarnation — messages the endpoint sends from then on carry the new
  /// number, and anything it sent pre-crash (still in flight, or replayed
  /// from stale peer state) is identifiable as a lower incarnation.
  void CrashEndpoint(EndpointId endpoint);
  void RestartEndpoint(EndpointId endpoint);

  /// Current incarnation of the endpoint (0 until its first restart).
  std::uint32_t incarnation(EndpointId endpoint) const {
    return incarnation_[endpoint];
  }

  /// Schedules a timer at now + delay_ms for the endpoint.
  void ScheduleTimer(EndpointId endpoint, double delay_ms,
                     std::uint64_t token);

  /// Delivers the next pending event; false if none.
  bool DeliverNext();

  /// Runs events until the queue empties or the virtual clock passes
  /// `until_ms` (events after the horizon stay queued).
  void RunUntil(double until_ms);

  /// Runs all pending events (must terminate: endpoints that keep
  /// rescheduling timers should use RunUntil).
  void RunAll();

  /// RunAll with multi-threaded delivery (DESIGN.md §7.11): all events
  /// sharing the earliest virtual time form a *wave*; the wave's messages
  /// are grouped by receiver (first-touch order) and the groups fan out
  /// across `pool`, each endpoint's inbox draining in (endpoint, seq) order
  /// on exactly one worker.  Handler sends are deferred to per-lane
  /// outboxes and committed serially in group order after the join, so the
  /// resulting event sequence is deterministic at any thread count — and,
  /// when handlers do not send (the sync-round phases), byte-identical to
  /// serial RunAll.  Waves containing timer events, and single-event waves,
  /// dispatch serially with classic semantics.  Requires an RNG-free
  /// configuration (drop_probability == 0 && jitter_ms == 0): the serial
  /// path draws randoms in send order, which a deferred commit would
  /// permute.  A null or single-thread pool falls back to RunAll.
  void RunAllParallel(ThreadPool* pool);

  double now_ms() const { return now_ms_; }
  const BusStats& stats() const { return stats_; }
  std::size_t pending() const {
    return (fifo_.size() - fifo_head_) + heap_.size();
  }
  const std::string& endpoint_name(EndpointId id) const {
    return endpoints_[id].name;
  }

 private:
  struct Endpoint {
    std::string name;
    MessageHandler on_message;
    TimerHandler on_timer;
    /// Per-endpoint counters (null when no registry is configured).
    obs::Counter* sent = nullptr;       ///< messages sent by this endpoint
    obs::Counter* delivered = nullptr;  ///< messages delivered to it
    obs::Counter* dropped = nullptr;    ///< drops it was party to
  };
  struct Event {
    bool is_timer = false;
    EndpointId endpoint = 0;  // timers
    std::uint64_t token = 0;  // timers
    Message message;          // messages
  };
  /// Queue entries are small and trivially copyable; payloads live in the
  /// slot table, so neither queue lane moves a std::variant.  Events are
  /// delivered in (at_ms, seq) order; seq is unique and grows with every
  /// push, so simultaneous events keep their push order.
  struct EventKey {
    double at_ms;
    std::uint64_t seq;
    std::size_t slot;
  };
  static bool Earlier(const EventKey& a, const EventKey& b) {
    if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
    return a.seq < b.seq;
  }
  struct EventLater {
    bool operator()(const EventKey& a, const EventKey& b) const {
      return Earlier(b, a);
    }
  };

  void Push(double at_ms, Event event);
  /// Two-lane queue (DESIGN.md §7.13): PushKey appends to the FIFO lane
  /// when the key is not earlier than the lane's newest, else pushes it on
  /// the heap; PopKey takes the earlier of the two heads.  Requires
  /// pending() > 0 for NextKey/PopKey.
  void PushKey(const EventKey& key);
  bool FifoFirst() const;
  const EventKey& NextKey() const {
    return FifoFirst() ? fifo_[fifo_head_] : heap_.top();
  }
  EventKey PopKey();
  void Dispatch(double at_ms, const Event& event);
  /// Runs the wire self-check on a delivery; aborts on failure.
  void VerifyWire(const Message& message, WireCheckScratch* scratch) const;
  /// One parallel wave: serial blackout drops + receiver grouping, the
  /// fan-out, then the serial commit (stats, slot recycling, deferred
  /// sends).
  void DispatchWaveParallel(double at_ms, const std::vector<EventKey>& wave,
                            ThreadPool* pool);

  BusConfig config_;
  Rng rng_;
  std::vector<Endpoint> endpoints_;
  std::vector<double> blackout_until_ms_;  ///< parallel to endpoints_
  std::vector<std::uint32_t> incarnation_;  ///< parallel to endpoints_
  /// FIFO lane: fifo_[fifo_head_..] is sorted by (at_ms, seq) by
  /// construction.  The consumed prefix is dropped when the lane drains,
  /// or when it is at least half the vector and the vector is full.
  std::vector<EventKey> fifo_;
  std::size_t fifo_head_ = 0;
  /// Events the lane cannot take: jittered sends, timers due before the
  /// lane's newest event.
  std::priority_queue<EventKey, std::vector<EventKey>, EventLater> heap_;
  std::vector<Event> slots_;
  std::vector<std::size_t> free_slots_;
  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  BusStats stats_;

  /// Wire self-check buffers for serial delivery.
  WireCheckScratch wire_scratch_;

  /// Scratch for RunAllParallel, reused across waves to avoid per-wave
  /// allocation: the receiver groups (endpoint + its wave slots in seq
  /// order), the endpoint -> active-group map (-1 when untouched), and the
  /// per-lane deferred-send outboxes, delivered tallies and wire-check
  /// buffers.
  struct WaveGroup {
    EndpointId endpoint = 0;
    std::vector<std::size_t> slots;
  };
  std::vector<WaveGroup> wave_groups_;
  std::vector<int> endpoint_wave_group_;
  std::vector<std::vector<Message>> lane_outboxes_;
  std::vector<std::uint64_t> lane_delivered_;
  std::vector<WireCheckScratch> lane_wire_;
  std::vector<EventKey> wave_scratch_;

  /// Global counters (null when no registry is configured).
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* delayed_counter_ = nullptr;
  obs::Counter* timers_counter_ = nullptr;

  void CountDrop(const Message& message);
};

}  // namespace lla::net
