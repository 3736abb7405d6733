#include "net/message.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "model/section_codec.h"

namespace lla::net {
namespace {

constexpr std::uint8_t kTagLatencyUpdate = 1;
constexpr std::uint8_t kTagResourcePriceUpdate = 2;
constexpr std::uint8_t kTagRepairRequest = 3;
constexpr std::uint8_t kTagRepairResponse = 4;
constexpr std::uint8_t kTagShardLatencyUpdate = 5;
constexpr std::uint8_t kTagShardPriceUpdate = 6;

/// Entry-count ceiling for the positional shard payloads: rejects count
/// fields that would drive huge decode allocations before the size checks
/// can catch them (2^24 entries is ~134 MB of f64 — far beyond any shard).
constexpr std::uint32_t kMaxShardEntries = 1u << 24;

[[noreturn]] void EncodeFault(const char* what) {
  std::fprintf(stderr, "net::Serialize: %s\n", what);
  std::abort();
}

/// Writes into a buffer pre-sized by WireSize; every write is bounds-checked
/// so a WireSize/encoder disagreement aborts instead of overrunning.
class Writer {
 public:
  Writer(std::uint8_t* out, std::size_t size) : p_(out), end_(out + size) {}

  void U8(std::uint8_t v) {
    Need(1);
    *p_++ = v;
  }
  void U32(std::uint32_t v) {
    Need(4);
    for (int i = 0; i < 4; ++i) *p_++ = (v >> (8 * i)) & 0xff;
  }
  void F64(double v) {
    Need(8);
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) *p_++ = (bits >> (8 * i)) & 0xff;
  }
  void Bytes(const char* data, std::size_t size) {
    Need(size);
    if (size != 0) std::memcpy(p_, data, size);
    p_ += size;
  }
  bool AtEnd() const { return p_ == end_; }

 private:
  void Need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      EncodeFault("encoding overruns WireSize(message)");
    }
  }

  std::uint8_t* p_;
  std::uint8_t* end_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return true;
  }
  bool F64(double* v) {
    if (pos_ + 8 > size_) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  /// Remaining bytes (the positional payloads extend to the end of the
  /// message, so their length is implicit).
  std::size_t Remaining() const { return size_ - pos_; }
  const char* Here() const {
    return reinterpret_cast<const char*>(data_) + pos_;
  }
  void Skip(std::size_t n) { pos_ += n; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// The payload of kind T inside *payload, reusing the held one (and its
/// vector capacity) when it already is a T.
template <typename T>
T& ReusePayload(Payload* payload) {
  if (T* held = std::get_if<T>(payload)) return *held;
  return payload->emplace<T>();
}

/// Reads `count` (subtask id, latency) pairs into the parallel arrays.
bool ReadLatencyPairs(Reader* r, std::uint32_t count,
                      std::vector<SubtaskId>* subtasks,
                      std::vector<double>* latencies) {
  // Bound the count by the bytes present before sizing anything.
  if (count > r->Remaining() / 12) return false;
  subtasks->resize(count);
  latencies->resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t subtask = 0;
    if (!r->U32(&subtask) || !r->F64(&(*latencies)[i])) return false;
    (*subtasks)[i] = SubtaskId(subtask);
  }
  return true;
}

void WriteLatencyPairs(Writer* w, const std::vector<SubtaskId>& subtasks,
                       const std::vector<double>& latencies) {
  if (subtasks.size() != latencies.size()) {
    EncodeFault("subtasks and latencies_ms differ in length");
  }
  w->U32(static_cast<std::uint32_t>(subtasks.size()));
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    w->U32(subtasks[i].value());
    w->F64(latencies[i]);
  }
}

void AppendPackedBitset(const std::uint8_t* bits01, std::size_t count,
                        std::string* arena) {
  for (std::size_t base = 0; base < count; base += 8) {
    unsigned char byte = 0;
    for (std::size_t j = 0; j < 8 && base + j < count; ++j) {
      if (bits01[base + j] != 0) byte |= static_cast<unsigned char>(1u << j);
    }
    arena->push_back(static_cast<char>(byte));
  }
}

}  // namespace

WireSlice WireSlice::Copy(const char* data, std::size_t size) {
  WireSlice slice(std::make_shared<std::string>(data, size), 0,
                  static_cast<std::uint32_t>(size));
  slice.owns_copy_ = true;
  return slice;
}

void WireSlice::Assign(const char* data, std::size_t size) {
  if (!owns_copy_ || arena_.use_count() != 1) {
    *this = Copy(data, size);
    return;
  }
  // The arena is a non-const string this slice allocated and alone owns.
  const_cast<std::string*>(arena_.get())->assign(data, size);
  offset_ = 0;
  length_ = static_cast<std::uint32_t>(size);
}

ArenaSpan AppendShardLatencyPayload(const double* latencies,
                                    std::size_t count, std::string* arena) {
  ArenaSpan span;
  span.offset = static_cast<std::uint32_t>(arena->size());
  arena->push_back('\0');  // encoding byte, patched after EncodeWords
  const std::uint8_t encoding = b1::EncodeWords(latencies, count, arena);
  (*arena)[span.offset] = static_cast<char>(encoding);
  span.length = static_cast<std::uint32_t>(arena->size() - span.offset);
  return span;
}

ArenaSpan AppendShardPricePayload(const double* mu,
                                  const std::uint8_t* congested,
                                  const std::uint8_t* stale,
                                  std::size_t count, std::string* arena) {
  bool any_stale = false;
  if (stale != nullptr) {
    for (std::size_t i = 0; i < count && !any_stale; ++i) {
      any_stale = stale[i] != 0;
    }
  }
  ArenaSpan span;
  span.offset = static_cast<std::uint32_t>(arena->size());
  arena->push_back(any_stale ? '\1' : '\0');  // flags
  arena->push_back('\0');  // encoding byte, patched after EncodeWords
  const std::uint8_t encoding = b1::EncodeWords(mu, count, arena);
  (*arena)[span.offset + 1] = static_cast<char>(encoding);
  AppendPackedBitset(congested, count, arena);
  if (any_stale) AppendPackedBitset(stale, count, arena);
  span.length = static_cast<std::uint32_t>(arena->size() - span.offset);
  return span;
}

bool DecodeShardLatencyUpdate(const ShardLatencyUpdate& update,
                              std::vector<double>* latencies) {
  const char* data = update.payload.data();
  const std::size_t size = update.payload.size();
  if (size < 1 || update.count > kMaxShardEntries) return false;
  const auto encoding = static_cast<std::uint8_t>(data[0]);
  std::size_t words = 0;
  if (!b1::EncodedWordsSize<double>(data + 1, size - 1, encoding,
                                    update.count, &words) ||
      size != 1 + words) {
    return false;
  }
  latencies->resize(update.count);
  std::string error;
  return b1::DecodeWords<double>(data + 1, words, encoding, update.count,
                                 latencies->data(), &error);
}

bool DecodeShardPriceUpdate(const ShardPriceUpdate& update,
                            std::vector<double>* mu,
                            ShardPriceBitsets* bits) {
  const char* data = update.payload.data();
  const std::size_t size = update.payload.size();
  if (size < 2 || update.count > kMaxShardEntries) return false;
  const auto flags = static_cast<std::uint8_t>(data[0]);
  if (flags > 1) return false;
  const auto encoding = static_cast<std::uint8_t>(data[1]);
  std::size_t words = 0;
  if (!b1::EncodedWordsSize<double>(data + 2, size - 2, encoding,
                                    update.count, &words)) {
    return false;
  }
  const std::size_t bitset = (update.count + 7) / 8;
  const std::size_t expected =
      2 + words + bitset + ((flags & 1) != 0 ? bitset : 0);
  if (size != expected) return false;
  mu->resize(update.count);
  std::string error;
  if (!b1::DecodeWords<double>(data + 2, words, encoding, update.count,
                               mu->data(), &error)) {
    return false;
  }
  bits->congested = data + 2 + words;
  bits->stale = (flags & 1) != 0 ? data + 2 + words + bitset : nullptr;
  return true;
}

void Serialize(const Message& message, std::vector<std::uint8_t>* out) {
  out->resize(WireSize(message));
  Writer w(out->data(), out->size());
  w.U32(message.sender);
  w.U32(message.receiver);
  w.U32(message.incarnation);
  if (const auto* latency = std::get_if<LatencyUpdate>(&message.payload)) {
    w.U8(kTagLatencyUpdate);
    w.U32(latency->task.value());
    WriteLatencyPairs(&w, latency->subtasks, latency->latencies_ms);
  } else if (const auto* price =
                 std::get_if<ResourcePriceUpdate>(&message.payload)) {
    w.U8(kTagResourcePriceUpdate);
    w.U32(price->resource.value());
    w.F64(price->mu);
    w.U32(price->epoch);
    w.U8(price->congested ? 1 : 0);
  } else if (const auto* request =
                 std::get_if<RepairRequest>(&message.payload)) {
    w.U8(kTagRepairRequest);
    w.U32(request->resource.value());
  } else if (const auto* shard_latency =
                 std::get_if<ShardLatencyUpdate>(&message.payload)) {
    w.U8(kTagShardLatencyUpdate);
    w.U32(shard_latency->task.value());
    w.U32(shard_latency->shard);
    w.U32(shard_latency->count);
    w.Bytes(shard_latency->payload.data(), shard_latency->payload.size());
  } else if (const auto* shard_price =
                 std::get_if<ShardPriceUpdate>(&message.payload)) {
    w.U8(kTagShardPriceUpdate);
    w.U32(shard_price->shard);
    w.U32(shard_price->epoch);
    w.U32(shard_price->count);
    w.Bytes(shard_price->payload.data(), shard_price->payload.size());
  } else {
    const auto& repair = std::get<RepairResponse>(message.payload);
    w.U8(kTagRepairResponse);
    w.U32(repair.resource.value());
    w.U32(repair.task.value());
    w.F64(repair.mu);
    w.U32(repair.epoch);
    w.U8(repair.congested ? 1 : 0);
    WriteLatencyPairs(&w, repair.subtasks, repair.latencies_ms);
  }
  if (!w.AtEnd()) EncodeFault("encoding ends before WireSize(message)");
}

std::vector<std::uint8_t> Serialize(const Message& message) {
  std::vector<std::uint8_t> bytes;
  Serialize(message, &bytes);
  return bytes;
}

bool Deserialize(const std::uint8_t* data, std::size_t size, Message* out,
                 std::vector<double>* scratch) {
  Reader r(data, size);
  std::uint8_t tag = 0;
  if (!r.U32(&out->sender) || !r.U32(&out->receiver) ||
      !r.U32(&out->incarnation) || !r.U8(&tag)) {
    return false;
  }
  if (tag == kTagLatencyUpdate) {
    auto& update = ReusePayload<LatencyUpdate>(&out->payload);
    std::uint32_t task = 0, count = 0;
    if (!r.U32(&task) || !r.U32(&count) ||
        !ReadLatencyPairs(&r, count, &update.subtasks,
                          &update.latencies_ms)) {
      return false;
    }
    update.task = TaskId(task);
  } else if (tag == kTagResourcePriceUpdate) {
    auto& update = ReusePayload<ResourcePriceUpdate>(&out->payload);
    std::uint32_t resource = 0;
    std::uint8_t congested = 0;
    if (!r.U32(&resource) || !r.F64(&update.mu) || !r.U32(&update.epoch) ||
        !r.U8(&congested) || congested > 1) {
      return false;
    }
    update.resource = ResourceId(resource);
    update.congested = congested != 0;
  } else if (tag == kTagRepairRequest) {
    auto& request = ReusePayload<RepairRequest>(&out->payload);
    std::uint32_t resource = 0;
    if (!r.U32(&resource)) return false;
    request.resource = ResourceId(resource);
  } else if (tag == kTagRepairResponse) {
    auto& repair = ReusePayload<RepairResponse>(&out->payload);
    std::uint32_t resource = 0, task = 0, count = 0;
    std::uint8_t congested = 0;
    if (!r.U32(&resource) || !r.U32(&task) || !r.F64(&repair.mu) ||
        !r.U32(&repair.epoch) || !r.U8(&congested) || congested > 1 ||
        !r.U32(&count) ||
        !ReadLatencyPairs(&r, count, &repair.subtasks,
                          &repair.latencies_ms)) {
      return false;
    }
    repair.resource = ResourceId(resource);
    repair.task = TaskId(task);
    repair.congested = congested != 0;
  } else if (tag == kTagShardLatencyUpdate) {
    auto& update = ReusePayload<ShardLatencyUpdate>(&out->payload);
    std::uint32_t task = 0;
    if (!r.U32(&task) || !r.U32(&update.shard) || !r.U32(&update.count)) {
      return false;
    }
    update.task = TaskId(task);
    // The payload runs to the end of the message; validate it fully (a
    // structurally-broken payload must be rejected here, not at apply time).
    const std::size_t remaining = r.Remaining();
    update.payload.Assign(r.Here(), remaining);
    if (!DecodeShardLatencyUpdate(update, scratch)) return false;
    r.Skip(remaining);
  } else if (tag == kTagShardPriceUpdate) {
    auto& update = ReusePayload<ShardPriceUpdate>(&out->payload);
    if (!r.U32(&update.shard) || !r.U32(&update.epoch) ||
        !r.U32(&update.count)) {
      return false;
    }
    const std::size_t remaining = r.Remaining();
    update.payload.Assign(r.Here(), remaining);
    ShardPriceBitsets bits;
    if (!DecodeShardPriceUpdate(update, scratch, &bits)) return false;
    r.Skip(remaining);
  } else {
    return false;
  }
  return r.AtEnd();  // trailing garbage fails
}

std::optional<Message> Deserialize(const std::vector<std::uint8_t>& bytes) {
  Message message;
  std::vector<double> scratch;
  if (!Deserialize(bytes.data(), bytes.size(), &message, &scratch)) {
    return std::nullopt;
  }
  return message;
}

bool WireRoundTrips(const Message& message, WireCheckScratch* scratch) {
  Serialize(message, &scratch->encoded);
  Message& decoded = scratch->decoded[message.payload.index()];
  if (!Deserialize(scratch->encoded.data(), scratch->encoded.size(),
                   &decoded, &scratch->values)) {
    return false;
  }
  Serialize(decoded, &scratch->reencoded);
  return scratch->reencoded == scratch->encoded;
}

std::size_t WireSize(const Message& message) {
  constexpr std::size_t kHeader = 4 + 4 + 4 + 1;  // sender/receiver/inc/tag
  if (const auto* latency = std::get_if<LatencyUpdate>(&message.payload)) {
    return kHeader + 4 + 4 + latency->subtasks.size() * 12;
  }
  if (std::holds_alternative<ResourcePriceUpdate>(message.payload)) {
    return kHeader + 4 + 8 + 4 + 1;
  }
  if (std::holds_alternative<RepairRequest>(message.payload)) {
    return kHeader + 4;
  }
  if (const auto* shard_latency =
          std::get_if<ShardLatencyUpdate>(&message.payload)) {
    return kHeader + 4 + 4 + 4 + shard_latency->payload.size();
  }
  if (const auto* shard_price =
          std::get_if<ShardPriceUpdate>(&message.payload)) {
    return kHeader + 4 + 4 + 4 + shard_price->payload.size();
  }
  const auto& repair = std::get<RepairResponse>(message.payload);
  return kHeader + 4 + 4 + 8 + 4 + 1 + 4 + repair.subtasks.size() * 12;
}

}  // namespace lla::net
