// Wire messages of the distributed LLA protocol (paper Sec. 4.1).
//
// Four message kinds circulate:
//   LatencyUpdate      controller -> resource: the new predicted latencies of
//                      the controller's subtasks hosted on that resource
//                      (the input to the resource's price computation).
//   ResourcePriceUpdate resource -> controller: the resource's new price mu_r.
//   RepairRequest      restarted resource -> controller: "I lost my state;
//                      send me yours" (crash-restart recovery, DESIGN.md
//                      §7.7).
//   RepairResponse     controller -> resource: absolute state — the
//                      controller's cached mu_r (with its epoch) plus the
//                      latencies of its subtasks hosted on that resource, so
//                      the resource can rebuild both halves of its price
//                      computation without waiting a full gossip round.
//
// The sharded deployment (DESIGN.md §7.10) batches these into one message
// per (task, shard) pair.  Since PR 9 the shard messages are *positional*
// (DESIGN.md §7.11): shard membership is static, so both sides derive the
// same ordered per-(shard, client) entry list once at bind time and the
// wire carries only a count plus a b1-encoded value array — no resource or
// subtask ids.  The encoded bytes live in an arena built once per round and
// each message holds a WireSlice into it, so a batched update is encoded
// once and sliced per client instead of copied per message.
//
// Path prices never travel: each controller owns its task's paths and
// computes lambda_p locally (Sec. 4.3).  Every Message additionally carries
// the sender's incarnation number, stamped by the bus at Send time: a
// restarted endpoint bumps its incarnation, which lets receivers discard
// price messages that were in flight (or queued by stale epochs) from
// before the crash.  Messages are serialized to a binary wire format so the
// bus can account for bytes and check every delivery's encoding
// (WireRoundTrips).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"

namespace lla::net {

/// A view into a shared, immutable arena of encoded payload bytes.  Copying
/// a WireSlice copies a pointer + two offsets; the arena is freed when the
/// last referencing message dies.  Equality compares the referenced bytes,
/// not the arena identity, so a deserialized copy compares equal to the
/// original slice.
class WireSlice {
 public:
  WireSlice() = default;
  WireSlice(std::shared_ptr<const std::string> arena, std::uint32_t offset,
            std::uint32_t length)
      : arena_(std::move(arena)), offset_(offset), length_(length) {}

  /// A slice backed by a fresh arena holding a copy of [data, data + size).
  static WireSlice Copy(const char* data, std::size_t size);

  /// Makes this slice a copy of [data, data + size) like Copy, but rewrites
  /// the arena in place when this slice made it (Copy/Assign) and is its
  /// only owner, so a decoder that reuses one Message does not allocate.
  /// The slice must not be shared with another thread while it is reused.
  void Assign(const char* data, std::size_t size);

  const char* data() const {
    return arena_ == nullptr ? nullptr : arena_->data() + offset_;
  }
  std::size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }

  bool operator==(const WireSlice& other) const {
    if (length_ != other.length_) return false;
    if (length_ == 0) return true;
    return std::memcmp(data(), other.data(), length_) == 0;
  }

 private:
  std::shared_ptr<const std::string> arena_;
  std::uint32_t offset_ = 0;
  std::uint32_t length_ = 0;
  /// True when arena_ was allocated by Copy/Assign as a mutable string
  /// (arenas handed to the constructor may be const objects).
  bool owns_copy_ = false;
};

struct LatencyUpdate {
  TaskId task;
  /// Parallel arrays: subtask[i] gets latency_ms[i].
  std::vector<SubtaskId> subtasks;
  std::vector<double> latencies_ms;

  bool operator==(const LatencyUpdate&) const = default;
};

struct ResourcePriceUpdate {
  ResourceId resource;
  double mu = 0.0;
  /// Iteration counter at the sender (for diagnostics / staleness studies).
  std::uint32_t epoch = 0;
  /// Whether the resource was congested when this price was computed; the
  /// controllers need it to apply the adaptive step-size heuristic to the
  /// paths traversing this resource (Sec. 5.2).
  bool congested = false;

  bool operator==(const ResourcePriceUpdate&) const = default;
};

/// Sent by a resource agent that restarted without state: every client
/// controller answers with a RepairResponse.
struct RepairRequest {
  ResourceId resource;

  bool operator==(const RepairRequest&) const = default;
};

/// A controller's absolute view of one resource, sent in reply to a
/// RepairRequest: the cached price (so the restarted agent resumes from the
/// freshest surviving mu_r instead of 0) and the controller's current
/// subtask latencies on that resource (so the agent's share-sum input is
/// rebuilt immediately).
struct RepairResponse {
  ResourceId resource;
  TaskId task;  ///< the responding controller's task
  double mu = 0.0;
  /// The resource epoch at which the controller cached `mu` — the restarted
  /// agent adopts the highest-epoch response it receives.
  std::uint32_t epoch = 0;
  bool congested = false;
  /// Parallel arrays: the controller's subtasks hosted on `resource`.
  std::vector<SubtaskId> subtasks;
  std::vector<double> latencies_ms;

  bool operator==(const RepairResponse&) const = default;
};

/// Sharded deployment: one controller's latencies for all of its subtasks
/// hosted on one shard's resources, in a single positional message.  The
/// receiver maps entry j onto the j-th element of its static per-client
/// membership list (the client's subtasks on the shard, in the client's
/// local subtask order); a count mismatch means a stale binding and the
/// message is ignored.
struct ShardLatencyUpdate {
  TaskId task;
  std::uint32_t shard = 0;
  /// Number of latency entries encoded in `payload`.
  std::uint32_t count = 0;
  /// [encoding u8][b1-encoded f64 words] (section_codec.h).
  WireSlice payload;

  bool operator==(const ShardLatencyUpdate&) const = default;
};

/// One shard agent's batched prices for one client: entry j is the j-th
/// resource of the static per-(shard, client) membership list (the client's
/// used resources on the shard, ascending).  Collapses the per-round
/// resource->controller traffic from O(resources) messages to O(shards)
/// per task, with one arena encode per round sliced per client.
struct ShardPriceUpdate {
  std::uint32_t shard = 0;
  /// The shard's broadcast round (shared by all its resources).
  std::uint32_t epoch = 0;
  /// Number of price entries encoded in `payload`.
  std::uint32_t count = 0;
  /// [flags u8][encoding u8][b1-encoded f64 mu words]
  /// [congested bitset ceil(count/8)][stale bitset ditto, iff flags & 1].
  /// A stale bit marks an entry whose resource is crashed or awaiting
  /// repair inside the shard (per-resource fault injection): the receiver
  /// keeps its cached price for that entry.
  WireSlice payload;

  bool operator==(const ShardPriceUpdate&) const = default;
};

using Payload = std::variant<LatencyUpdate, ResourcePriceUpdate,
                             RepairRequest, RepairResponse,
                             ShardLatencyUpdate, ShardPriceUpdate>;

struct Message {
  std::uint32_t sender = 0;    ///< EndpointId of the origin
  std::uint32_t receiver = 0;  ///< EndpointId of the destination
  /// Incarnation of the sender, stamped by the bus at Send time (0 until
  /// the endpoint restarts).  Receivers drop price traffic from a lower
  /// incarnation than the highest they have seen from that peer.
  std::uint32_t incarnation = 0;
  Payload payload;

  bool operator==(const Message&) const = default;
};

/// A span of bytes appended to an arena string: the (offset, length) a
/// WireSlice should reference once the arena is frozen into a shared_ptr.
struct ArenaSpan {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// Appends the ShardLatencyUpdate payload encoding of latencies[0..count)
/// to *arena.
ArenaSpan AppendShardLatencyPayload(const double* latencies,
                                    std::size_t count, std::string* arena);

/// Appends the ShardPriceUpdate payload encoding of mu[0..count) with the
/// per-entry congestion flags (one 0/1 byte each, packed to a bitset on the
/// wire).  `stale` is an optional parallel 0/1 array: null, or all-zero,
/// emits no stale bitset.
ArenaSpan AppendShardPricePayload(const double* mu,
                                  const std::uint8_t* congested,
                                  const std::uint8_t* stale,
                                  std::size_t count, std::string* arena);

/// Decodes a latency payload into latencies[0..update.count); false on any
/// malformed payload (wrong size, bad encoding, bad run/sparse structure).
bool DecodeShardLatencyUpdate(const ShardLatencyUpdate& update,
                              std::vector<double>* latencies);

/// Packed bitset views into a decoded price payload (valid while the
/// message's WireSlice arena lives).  `stale` is null when absent.
struct ShardPriceBitsets {
  const char* congested = nullptr;
  const char* stale = nullptr;
};

/// Decodes a price payload: mu words into *mu (resized to update.count) and
/// bitset pointers into *bits.  False on any malformed payload.
bool DecodeShardPriceUpdate(const ShardPriceUpdate& update,
                            std::vector<double>* mu, ShardPriceBitsets* bits);

/// Reads bit i of a packed little-endian bitset (bit j of byte i/8).
inline bool TestWireBit(const char* bits, std::size_t i) {
  return ((static_cast<unsigned char>(bits[i >> 3]) >> (i & 7)) & 1u) != 0;
}

/// Serializes to a compact binary representation (little-endian) into
/// *out, resized to exactly WireSize(message) and reusing its capacity.
/// Aborts (every build type) on LatencyUpdate / RepairResponse parallel
/// arrays of unequal length, and if the encoder does not end exactly at
/// WireSize(message).
void Serialize(const Message& message, std::vector<std::uint8_t>* out);
std::vector<std::uint8_t> Serialize(const Message& message);

/// Inverse of Serialize: decodes [data, data + size) into *out, reusing the
/// vectors / arena of its payload when it already holds the same kind.
/// Shard payloads are decoded into *scratch to validate them.  False on
/// malformed input (truncation, bad tag, undecodable shard payload,
/// trailing bytes); *out is then unspecified.
bool Deserialize(const std::uint8_t* data, std::size_t size, Message* out,
                 std::vector<double>* scratch);
/// Allocating form; nullopt on malformed input.
std::optional<Message> Deserialize(const std::vector<std::uint8_t>& bytes);

/// Buffers reused by WireRoundTrips.  One decode target per payload kind,
/// so traffic that alternates kinds keeps each kind's capacity.
struct WireCheckScratch {
  std::vector<std::uint8_t> encoded;
  std::vector<std::uint8_t> reencoded;
  std::array<Message, std::variant_size_v<Payload>> decoded;
  std::vector<double> values;
};

/// The bus's wire self-check: encodes `message`, decodes the bytes,
/// re-encodes the result and compares the two encodings byte for byte
/// (NaN-safe, and -0.0 differs from 0.0).  False when the decode fails or
/// the bytes differ.  Allocation-free once *scratch has seen a message of
/// the same kind and at least the same size.
bool WireRoundTrips(const Message& message, WireCheckScratch* scratch);

/// Number of bytes Serialize would produce (used for traffic accounting).
std::size_t WireSize(const Message& message);

}  // namespace lla::net
