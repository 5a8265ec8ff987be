#pragma once
/// \file protocol.hpp
/// \brief Wire codec of the cache-server's length-prefixed pipelined binary
///        protocol — a pure in-memory layer with no socket types, so unit
///        tests and the fuzzer drive it byte-for-byte without a network.
///
/// Every frame, request or response, has the same envelope (little-endian):
///
///   u32 length     — bytes that FOLLOW this field (prefix + body)
///   u32 magic      = kMagic ("CCP1")
///   u8  version    = kVersion
///   u8  code       — request: opcode (GET/SET/STATS/REBALANCE); response:
///                    status
///   u16 reserved   = 0
///   ... body ...
///
/// Request body (12 bytes): u32 tenant, u64 page. STATS and REBALANCE carry
/// the same body with both fields zero, so every v1 request frame is exactly
/// kRequestFrameBytes long and the decoder can reject any other length as
/// malformed before buffering a single body byte.
///
/// Response body: u64 value (opcode-specific; 0 for GET/SET/errors),
/// followed by an optional tail — STATS responses append the per-tenant
/// books (see StatsPayload). Responses are returned strictly in request
/// order per connection, which is what makes pipelining unambiguous
/// without per-frame sequence numbers.
///
/// Framing errors (bad magic/version/reserved, undersized or oversized
/// length) poison the stream: after garbage there is no way to re-find a
/// frame boundary, so the decoder reports the error for every subsequent
/// feed and the server answers with one kMalformed reply and closes that
/// connection — other connections are unaffected. Well-framed but invalid
/// requests (unknown opcode, tenant out of range, page/tenant mismatch)
/// are NOT framing errors: they earn an in-order kBadRequest response and
/// the connection lives on.
///
/// Codec shape: a request frame (24 bytes) and a tail-less response frame
/// (20 bytes) are each one fixed record, written in one append and read
/// in place. Fields sit at fixed offsets and move with one memcpy each.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/types.hpp"

// The codec moves each field with one memcpy of its host representation,
// which is the wire's byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the v1 wire codec needs a little-endian host");

namespace ccc::server {

inline constexpr std::uint32_t kMagic = 0x31504343;  // "CCP1" little-endian
inline constexpr std::uint8_t kVersion = 1;

/// The u32 length field that opens every frame.
inline constexpr std::size_t kLengthBytes = 4;
/// Bytes between the length field and the body: magic, version, code,
/// reserved.
inline constexpr std::size_t kFramePrefixBytes = 8;
/// Length field plus prefix: the offset of a frame's body.
inline constexpr std::size_t kHeaderBytes = kLengthBytes + kFramePrefixBytes;
/// Request body: u32 tenant + u64 page.
inline constexpr std::size_t kRequestBodyBytes = 12;
/// A complete request frame on the wire, length field included.
inline constexpr std::size_t kRequestFrameBytes =
    kHeaderBytes + kRequestBodyBytes;
/// Response body prefix: u64 value (tail, if any, follows).
inline constexpr std::size_t kResponseBodyBytes = 8;
/// A complete tail-less response frame on the wire, length field included.
inline constexpr std::size_t kResponseFrameBytes =
    kHeaderBytes + kResponseBodyBytes;

enum class Opcode : std::uint8_t {
  kGet = 1,    ///< access the page; response status reports hit or miss
  kSet = 2,    ///< ensure the page is resident; response status is kOk
  kStats = 3,  ///< fetch the per-tenant books; response carries StatsPayload
  /// Recompute the capacity split from live shard stats and apply it
  /// (ShardedCache::rebalance). Runs after the connection's pending batch
  /// flushes, so a client that pipelines requests before REBALANCE knows
  /// they are all in the books when the kOk response arrives. Body is the
  /// zero 12-byte request body, like STATS.
  kRebalance = 4,
};

enum class Status : std::uint8_t {
  kHit = 0,
  kMiss = 1,
  kOk = 2,
  /// Well-framed but unserviceable request (unknown opcode, tenant out of
  /// range, page not owned by the claimed tenant). Connection survives.
  kBadRequest = 3,
  /// Framing violation; this is the last frame on the connection.
  kMalformed = 4,
};

/// Why the decoder rejected the stream.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kBadLength,   ///< length field smaller than the frame prefix
  kOversized,   ///< length field exceeds the decoder's max body size
  kBadMagic,
  kBadVersion,
  kBadReserved,
};

/// Field access at a fixed record offset: one memcpy each, in host order,
/// which the static_assert above pins to the wire's.
namespace wire {

template <class T>
void store(std::uint8_t* at, T value) noexcept {
  std::memcpy(at, &value, sizeof value);
}

template <class T>
[[nodiscard]] T load(const std::uint8_t* at) noexcept {
  T value;
  std::memcpy(&value, at, sizeof value);
  return value;
}

/// Writes the kHeaderBytes envelope of a frame whose body is `body_bytes`.
inline void store_header(std::uint8_t* at, std::size_t body_bytes,
                         std::uint8_t code) noexcept {
  store(at, static_cast<std::uint32_t>(kFramePrefixBytes + body_bytes));
  store(at + 4, kMagic);
  at[8] = kVersion;
  at[9] = code;
  store(at + 10, std::uint16_t{0});
}

/// Writes one kResponseFrameBytes response record; a `tail_bytes` tail,
/// if any, is the caller's to append after it.
inline void store_response(std::uint8_t* at, Status status,
                           std::uint64_t value,
                           std::size_t tail_bytes = 0) noexcept {
  store_header(at, kResponseBodyBytes + tail_bytes,
               static_cast<std::uint8_t>(status));
  store(at + kHeaderBytes, value);
}

}  // namespace wire

/// A decoded frame. `body` points into the bytes passed to feed() or into
/// the decoder's own buffer, and is valid only for the duration of the sink
/// callback.
struct FrameView {
  std::uint8_t code = 0;
  std::span<const std::uint8_t> body;
};

/// Incremental frame decoder for one byte stream. Feed it whatever the
/// socket produced — single bytes, half frames, ten pipelined frames at
/// once — and it emits each complete well-formed frame exactly once, in
/// order. The first framing error poisons the decoder permanently (see the
/// file comment for why resynchronization is impossible).
///
/// When nothing is buffered, complete frames are decoded in place from the
/// caller's bytes; only an incomplete tail is copied into the decoder. A
/// buffered partial frame takes from the next feed just the bytes it lacks
/// (its header, then its body), and the rest is again decoded in place.
class FrameDecoder {
 public:
  /// `max_body_bytes` bounds the body size this peer is willing to buffer;
  /// a length field promising more is rejected as kOversized *immediately*,
  /// before any of the oversized body arrives.
  explicit FrameDecoder(std::size_t max_body_bytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Invokes `sink(const FrameView&)` for every complete frame now
  /// available. Returns kNone while the stream is healthy; after an error,
  /// returns that error now and on every subsequent call without invoking
  /// the sink again.
  template <class Sink>
  DecodeError feed(std::span<const std::uint8_t> bytes, Sink&& sink);
  template <class Sink>
  DecodeError feed(std::string_view bytes, Sink&& sink) {
    return feed(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size()),
                sink);
  }

  [[nodiscard]] DecodeError error() const noexcept { return error_; }
  /// Bytes buffered awaiting a complete frame (0 right after a frame ends).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size();
  }
  [[nodiscard]] std::size_t max_body_bytes() const noexcept {
    return max_body_bytes_;
  }

 private:
  /// Size of the frame at `at` once `avail` bytes hold all of it and its
  /// envelope is valid; 0 while more bytes are needed, or after recording a
  /// framing error. The length is checked as soon as its field is in: a
  /// poisoned length must not make the decoder wait for (or buffer)
  /// gigabytes that will never be accepted.
  std::size_t frame_size(const std::uint8_t* at, std::size_t avail) noexcept {
    if (avail < kLengthBytes) return 0;
    const auto length = wire::load<std::uint32_t>(at);
    if (length < kFramePrefixBytes) return fail(DecodeError::kBadLength);
    if (length - kFramePrefixBytes > max_body_bytes_)
      return fail(DecodeError::kOversized);
    const std::size_t size = kLengthBytes + length;
    if (avail < size) return 0;
    if (wire::load<std::uint32_t>(at + 4) != kMagic)
      return fail(DecodeError::kBadMagic);
    if (at[8] != kVersion) return fail(DecodeError::kBadVersion);
    if (wire::load<std::uint16_t>(at + 10) != 0)
      return fail(DecodeError::kBadReserved);
    return size;
  }

  std::size_t fail(DecodeError error) noexcept {
    error_ = error;
    return 0;
  }

  static FrameView frame_at(const std::uint8_t* at, std::size_t size) {
    return FrameView{at[9], std::span<const std::uint8_t>(
                                at + kHeaderBytes, size - kHeaderBytes)};
  }

  std::size_t max_body_bytes_;
  /// The incomplete frame the last feed ended in. Once it holds the length
  /// field, that field has passed the length checks.
  std::vector<std::uint8_t> buffer_;
  DecodeError error_ = DecodeError::kNone;
};

template <class Sink>
DecodeError FrameDecoder::feed(std::span<const std::uint8_t> bytes,
                               Sink&& sink) {
  if (error_ != DecodeError::kNone) return error_;
  while (!buffer_.empty()) {
    if (const std::size_t size = frame_size(buffer_.data(), buffer_.size())) {
      sink(frame_at(buffer_.data(), size));
      buffer_.clear();
      break;
    }
    if (error_ != DecodeError::kNone) return error_;
    if (bytes.empty()) return DecodeError::kNone;
    const std::size_t want =
        buffer_.size() < kLengthBytes
            ? kLengthBytes
            : kLengthBytes + wire::load<std::uint32_t>(buffer_.data());
    const std::size_t take = std::min(want - buffer_.size(), bytes.size());
    buffer_.insert(buffer_.end(), bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(take));
    bytes = bytes.subspan(take);
  }
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  while (const std::size_t size = frame_size(at, left)) {
    sink(frame_at(at, size));
    at += size;
    left -= size;
  }
  if (error_ != DecodeError::kNone) return error_;
  buffer_.assign(at, at + left);
  return DecodeError::kNone;
}

/// One parsed request frame. `opcode` is the raw byte — the caller decides
/// how to answer unknown values (kBadRequest), so a new opcode added to one
/// side degrades gracefully instead of killing connections.
struct RequestMsg {
  std::uint8_t opcode = 0;
  TenantId tenant = 0;
  PageId page = 0;
};

/// One parsed response frame (client side). `tail` aliases the FrameView
/// body — copy it before the sink returns if it must outlive the frame.
struct ResponseMsg {
  std::uint8_t status = 0;
  std::uint64_t value = 0;
  std::span<const std::uint8_t> tail;
};

/// Per-tenant books carried by a STATS response, plus enough of the
/// server's configuration for a client to sanity-check its own.
struct StatsPayload {
  std::uint32_t num_tenants = 0;
  std::uint32_t num_shards = 0;
  std::uint64_t capacity = 0;
  std::uint64_t lockfree_hits = 0;  ///< hits served by the seqlock fast path
  std::vector<std::uint64_t> hits;       ///< one entry per tenant
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> evictions;
};

// ---- encoding (append to a byte string acting as an output buffer) ----

void append_request(std::string& out, Opcode opcode, TenantId tenant,
                    PageId page);
void append_response(std::string& out, Status status, std::uint64_t value = 0,
                     std::span<const std::uint8_t> tail = {});
/// Batch encoder: appends `n` tail-less, value-0 responses, the i-th with
/// status `status_of(i)`, after one resize of `out`. Byte-identical to n
/// append_response(out, status_of(i)) calls.
template <class StatusOf>
void append_responses(std::string& out, std::size_t n, StatusOf&& status_of) {
  const std::size_t start = out.size();
  out.resize(start + n * kResponseFrameBytes);
  auto* at = reinterpret_cast<std::uint8_t*>(out.data() + start);
  for (std::size_t i = 0; i < n; ++i, at += kResponseFrameBytes)
    wire::store_response(at, status_of(i), 0);
}
/// Serializes the stats books into `out` (the tail of a kOk response).
void append_stats_body(std::string& out, const StatsPayload& stats);

// ---- parsing (body layout checks; framing is the decoder's job) ----

/// nullopt iff the body is not exactly kRequestBodyBytes.
[[nodiscard]] inline std::optional<RequestMsg> parse_request(
    const FrameView& frame) {
  if (frame.body.size() != kRequestBodyBytes) return std::nullopt;
  return RequestMsg{frame.code, wire::load<std::uint32_t>(frame.body.data()),
                    wire::load<std::uint64_t>(frame.body.data() + 4)};
}
/// nullopt iff the body is shorter than kResponseBodyBytes.
[[nodiscard]] inline std::optional<ResponseMsg> parse_response(
    const FrameView& frame) {
  if (frame.body.size() < kResponseBodyBytes) return std::nullopt;
  return ResponseMsg{frame.code, wire::load<std::uint64_t>(frame.body.data()),
                     frame.body.subspan(kResponseBodyBytes)};
}
/// nullopt unless `tail` is a complete, self-consistent stats serialization.
[[nodiscard]] std::optional<StatsPayload> parse_stats_body(
    std::span<const std::uint8_t> tail);

}  // namespace ccc::server
