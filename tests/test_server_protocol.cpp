// Tests for the cache-server wire codec (src/server/protocol): the exact
// wire bytes, frame round-trips, pipelined and byte-at-a-time reassembly
// (both the in-place and the buffered decode path), the full framing error
// taxonomy (each one poisoning the decoder permanently), body-layout
// parsing, and the STATS payload serialization.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace ccc::server {
namespace {

std::vector<RequestMsg> decode_all(FrameDecoder& decoder,
                                   std::string_view bytes,
                                   DecodeError expect = DecodeError::kNone) {
  std::vector<RequestMsg> out;
  const DecodeError err = decoder.feed(bytes, [&](const FrameView& frame) {
    const auto msg = parse_request(frame);
    ASSERT_TRUE(msg.has_value());
    out.push_back(*msg);
  });
  EXPECT_EQ(err, expect);
  return out;
}

// Little-endian u32 at a byte offset of an encoded frame string.
void patch_u32(std::string& frame, std::size_t offset, std::uint32_t value) {
  ASSERT_GE(frame.size(), offset + 4);
  for (int i = 0; i < 4; ++i)
    frame[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
}

// A request frame prefixed to a bad one in the error tests below.
std::string good_frame() {
  std::string wire;
  append_request(wire, Opcode::kGet, 3, make_page(3, 77));
  return wire;
}

std::string bytes_of(std::initializer_list<unsigned char> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

// Feeds `wire` in two pieces cut at `cut` (0: in one piece), then one more
// valid frame. Returns the pages decoded and the final error, and fails if
// the sink runs after the decoder reported an error.
std::pair<std::vector<PageId>, DecodeError> decode_cut(std::string_view wire,
                                                       std::size_t cut) {
  FrameDecoder decoder(kRequestBodyBytes);
  std::vector<PageId> pages;
  bool poisoned = false;
  const auto sink = [&](const FrameView& frame) {
    EXPECT_FALSE(poisoned) << "sink after poison, cut=" << cut;
    pages.push_back(parse_request(frame)->page);
  };
  DecodeError err = DecodeError::kNone;
  for (const std::string_view piece : {wire.substr(0, cut), wire.substr(cut)}) {
    err = decoder.feed(piece, sink);
    poisoned = err != DecodeError::kNone;
  }
  const std::string extra = good_frame();
  const DecodeError after = decoder.feed(extra, sink);
  if (err != DecodeError::kNone) {
    EXPECT_EQ(after, err) << "cut=" << cut;
  }
  return {pages, err};
}

// `good_frame() + bad` must end in `expect` after exactly the good frame,
// whether fed whole or cut anywhere — so that the bad frame arrives after
// a buffered partial frame, or is itself completed in the buffer.
void expect_error_after_any_cut(const std::string& bad, DecodeError expect) {
  const std::string wire = good_frame() + bad;
  const auto whole = decode_cut(wire, 0);
  ASSERT_EQ(whole.second, expect);
  ASSERT_EQ(whole.first, std::vector<PageId>{make_page(3, 77)});
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    const auto split = decode_cut(wire, cut);
    EXPECT_EQ(split.second, whole.second) << "cut=" << cut;
    EXPECT_EQ(split.first, whole.first) << "cut=" << cut;
  }
}

TEST(ServerProtocol, WireBytesArePinned) {
  // Recorded from the byte-at-a-time encoder this codec replaced: a slip in
  // byte order or offset made the same way on both ends would survive every
  // round trip, but not these.
  std::string get;
  append_request(get, Opcode::kGet, 7, make_page(7, 1234));
  EXPECT_EQ(get, bytes_of({0x14, 0x00, 0x00, 0x00, 0x43, 0x43, 0x50, 0x31,
                           0x01, 0x01, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
                           0xd2, 0x04, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00}));

  const std::vector<std::uint8_t> tail = {1, 2, 3, 4, 5};
  std::string hit;
  append_response(hit, Status::kHit, 42, std::span<const std::uint8_t>(tail));
  EXPECT_EQ(hit, bytes_of({0x15, 0x00, 0x00, 0x00, 0x43, 0x43, 0x50, 0x31,
                           0x01, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00,
                           0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04,
                           0x05}));

  std::string miss;
  append_response(miss, Status::kMiss);
  EXPECT_EQ(miss, bytes_of({0x10, 0x00, 0x00, 0x00, 0x43, 0x43, 0x50, 0x31,
                            0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                            0x00, 0x00, 0x00, 0x00}));
}

TEST(ServerProtocol, BatchEncoderMatchesPerResponseEncoding) {
  const std::vector<Status> statuses = {Status::kHit, Status::kMiss,
                                        Status::kOk,  Status::kMiss,
                                        Status::kHit, Status::kOk};
  std::string expected = "prefix";
  for (const Status status : statuses) append_response(expected, status);

  std::string batch = "prefix";
  append_responses(batch, statuses.size(),
                   [&](std::size_t i) { return statuses[i]; });
  EXPECT_EQ(batch, expected);
  EXPECT_EQ(batch.size(),
            std::string("prefix").size() +
                statuses.size() * kResponseFrameBytes);

  append_responses(batch, 0, [](std::size_t) { return Status::kHit; });
  EXPECT_EQ(batch, expected);
}

TEST(ServerProtocol, RequestRoundTrip) {
  std::string wire;
  append_request(wire, Opcode::kGet, 7, make_page(7, 1234));
  EXPECT_EQ(wire.size(), kRequestFrameBytes);

  FrameDecoder decoder(kRequestBodyBytes);
  const auto msgs = decode_all(decoder, wire);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].opcode, static_cast<std::uint8_t>(Opcode::kGet));
  EXPECT_EQ(msgs[0].tenant, 7u);
  EXPECT_EQ(msgs[0].page, make_page(7, 1234));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.error(), DecodeError::kNone);
}

TEST(ServerProtocol, PipelinedFramesDecodeInOrder) {
  std::string wire;
  for (std::uint64_t i = 0; i < 100; ++i)
    append_request(wire, i % 2 == 0 ? Opcode::kGet : Opcode::kSet,
                   static_cast<TenantId>(i % 5),
                   make_page(static_cast<TenantId>(i % 5), i));

  FrameDecoder decoder(kRequestBodyBytes);
  const auto msgs = decode_all(decoder, wire);
  ASSERT_EQ(msgs.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(msgs[i].opcode,
              static_cast<std::uint8_t>(i % 2 == 0 ? Opcode::kGet
                                                   : Opcode::kSet));
    EXPECT_EQ(msgs[i].page, make_page(static_cast<TenantId>(i % 5), i));
  }
}

TEST(ServerProtocol, ReassemblesAcrossArbitraryChunkBoundaries) {
  std::string wire;
  for (std::uint64_t i = 0; i < 20; ++i)
    append_request(wire, Opcode::kGet, 1, make_page(1, i));

  // Every chunk size from 1 (byte-at-a-time) to a full frame and beyond
  // must reassemble the identical message sequence.
  for (std::size_t chunk = 1; chunk <= kRequestFrameBytes + 3; ++chunk) {
    FrameDecoder decoder(kRequestBodyBytes);
    std::vector<RequestMsg> msgs;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const auto piece = std::string_view(wire).substr(
          off, std::min(chunk, wire.size() - off));
      ASSERT_EQ(decoder.feed(piece,
                             [&](const FrameView& frame) {
                               msgs.push_back(*parse_request(frame));
                             }),
                DecodeError::kNone);
    }
    ASSERT_EQ(msgs.size(), 20u) << "chunk=" << chunk;
    for (std::uint64_t i = 0; i < 20; ++i)
      EXPECT_EQ(msgs[i].page, make_page(1, i));
  }

  // A response stream: bodies of varying size, so frames straddle chunk
  // boundaries at every offset of header, value and tail.
  const auto status_of = [](std::size_t i) {
    return i % 3 == 0 ? Status::kHit : Status::kMiss;
  };
  std::string responses;
  std::vector<std::vector<std::uint8_t>> tails;
  for (std::size_t i = 0; i < 20; ++i) {
    tails.emplace_back(i * 5 % 23, static_cast<std::uint8_t>(i));
    append_response(responses, status_of(i), i * 1000,
                    std::span<const std::uint8_t>(tails.back()));
  }
  const std::size_t longest = kResponseFrameBytes + 22;
  for (std::size_t chunk = 1; chunk <= 2 * longest + 3; ++chunk) {
    FrameDecoder decoder(64);
    std::size_t seen = 0;
    for (std::size_t off = 0; off < responses.size(); off += chunk) {
      const auto piece = std::string_view(responses).substr(
          off, std::min(chunk, responses.size() - off));
      ASSERT_EQ(decoder.feed(piece,
                             [&](const FrameView& frame) {
                               const auto msg = parse_response(frame);
                               ASSERT_TRUE(msg.has_value());
                               ASSERT_LT(seen, tails.size());
                               const std::size_t i = seen++;
                               EXPECT_EQ(msg->status,
                                         static_cast<std::uint8_t>(
                                             status_of(i)));
                               EXPECT_EQ(msg->value, i * 1000);
                               EXPECT_TRUE(std::equal(
                                   msg->tail.begin(), msg->tail.end(),
                                   tails[i].begin(), tails[i].end()))
                                   << "chunk=" << chunk << " i=" << i;
                             }),
                DecodeError::kNone);
    }
    EXPECT_EQ(seen, 20u) << "chunk=" << chunk;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ServerProtocol, BadMagicPoisonsPermanently) {
  std::string wire;
  append_request(wire, Opcode::kGet, 0, make_page(0, 1));
  patch_u32(wire, 4, 0xDEADBEEF);  // magic field

  FrameDecoder decoder(kRequestBodyBytes);
  decode_all(decoder, wire, DecodeError::kBadMagic);
  EXPECT_EQ(decoder.error(), DecodeError::kBadMagic);

  // A perfectly valid frame afterwards must NOT be decoded: there is no
  // trustworthy frame boundary after garbage.
  std::string good;
  append_request(good, Opcode::kGet, 0, make_page(0, 2));
  const DecodeError err = decoder.feed(
      good, [](const FrameView&) { FAIL() << "sink after poison"; });
  EXPECT_EQ(err, DecodeError::kBadMagic);

  expect_error_after_any_cut(wire, DecodeError::kBadMagic);
}

TEST(ServerProtocol, BadVersionAndReservedAreRejected) {
  {
    std::string wire;
    append_request(wire, Opcode::kGet, 0, make_page(0, 1));
    wire[8] = 99;  // version byte
    FrameDecoder decoder(kRequestBodyBytes);
    decode_all(decoder, wire, DecodeError::kBadVersion);
    expect_error_after_any_cut(wire, DecodeError::kBadVersion);
  }
  {
    std::string wire;
    append_request(wire, Opcode::kGet, 0, make_page(0, 1));
    wire[10] = 1;  // reserved lo byte
    FrameDecoder decoder(kRequestBodyBytes);
    decode_all(decoder, wire, DecodeError::kBadReserved);
    expect_error_after_any_cut(wire, DecodeError::kBadReserved);
  }
}

TEST(ServerProtocol, UndersizedLengthIsBadLength) {
  std::string wire;
  append_request(wire, Opcode::kGet, 0, make_page(0, 1));
  patch_u32(wire, 0, static_cast<std::uint32_t>(kFramePrefixBytes - 1));
  FrameDecoder decoder(kRequestBodyBytes);
  decode_all(decoder, wire, DecodeError::kBadLength);
  expect_error_after_any_cut(wire, DecodeError::kBadLength);
}

TEST(ServerProtocol, OversizedLengthRejectedBeforeBodyArrives) {
  // Only the 4-byte length field is sent; the decoder must reject it
  // immediately instead of waiting to buffer a body it will never accept.
  std::string wire;
  patch_u32(wire.insert(0, 4, '\0'), 0, 1u << 30);
  FrameDecoder decoder(kRequestBodyBytes);
  decode_all(decoder, wire, DecodeError::kOversized);
  EXPECT_EQ(decoder.error(), DecodeError::kOversized);
}

TEST(ServerProtocol, GarbageStreamIsRejected) {
  std::string garbage(256, '\x5A');
  FrameDecoder decoder(kRequestBodyBytes);
  std::size_t emitted = 0;
  const DecodeError err =
      decoder.feed(garbage, [&](const FrameView&) { ++emitted; });
  EXPECT_NE(err, DecodeError::kNone);
  EXPECT_EQ(emitted, 0u);
}

TEST(ServerProtocol, ResponseRoundTripWithTail) {
  const std::vector<std::uint8_t> tail = {1, 2, 3, 4, 5};
  std::string wire;
  append_response(wire, Status::kHit, 42,
                  std::span<const std::uint8_t>(tail));

  FrameDecoder decoder(64);
  std::size_t seen = 0;
  ASSERT_EQ(decoder.feed(wire,
                         [&](const FrameView& frame) {
                           const auto msg = parse_response(frame);
                           ASSERT_TRUE(msg.has_value());
                           EXPECT_EQ(msg->status,
                                     static_cast<std::uint8_t>(Status::kHit));
                           EXPECT_EQ(msg->value, 42u);
                           ASSERT_EQ(msg->tail.size(), tail.size());
                           EXPECT_TRUE(std::memcmp(msg->tail.data(),
                                                   tail.data(),
                                                   tail.size()) == 0);
                           ++seen;
                         }),
            DecodeError::kNone);
  EXPECT_EQ(seen, 1u);
}

TEST(ServerProtocol, ShortResponseBodyFailsParse) {
  std::string wire;
  append_response(wire, Status::kOk);
  // Shrink the body: drop the last byte and fix the length field.
  wire.pop_back();
  patch_u32(wire, 0,
            static_cast<std::uint32_t>(kFramePrefixBytes +
                                       kResponseBodyBytes - 1));
  FrameDecoder decoder(64);
  std::size_t seen = 0;
  ASSERT_EQ(decoder.feed(wire,
                         [&](const FrameView& frame) {
                           EXPECT_FALSE(parse_response(frame).has_value());
                           ++seen;
                         }),
            DecodeError::kNone);
  EXPECT_EQ(seen, 1u);
}

TEST(ServerProtocol, WrongRequestBodySizeFailsParse) {
  // A well-framed frame whose body is one byte short of a request body.
  std::string wire;
  append_response(wire, Status::kOk);  // 8-byte body != kRequestBodyBytes
  FrameDecoder decoder(64);
  ASSERT_EQ(decoder.feed(wire,
                         [&](const FrameView& frame) {
                           EXPECT_FALSE(parse_request(frame).has_value());
                         }),
            DecodeError::kNone);
}

TEST(ServerProtocol, StatsPayloadRoundTrip) {
  StatsPayload stats;
  stats.num_tenants = 3;
  stats.num_shards = 4;
  stats.capacity = 128;
  stats.lockfree_hits = 99;
  stats.hits = {10, 20, 30};
  stats.misses = {1, 2, 3};
  stats.evictions = {0, 1, 2};

  std::string body;
  append_stats_body(body, stats);
  const auto parsed = parse_stats_body(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_tenants, 3u);
  EXPECT_EQ(parsed->num_shards, 4u);
  EXPECT_EQ(parsed->capacity, 128u);
  EXPECT_EQ(parsed->lockfree_hits, 99u);
  EXPECT_EQ(parsed->hits, stats.hits);
  EXPECT_EQ(parsed->misses, stats.misses);
  EXPECT_EQ(parsed->evictions, stats.evictions);
}

TEST(ServerProtocol, TruncatedOrInflatedStatsBodyFailsParse) {
  StatsPayload stats;
  stats.num_tenants = 2;
  stats.hits = {1, 2};
  stats.misses = {3, 4};
  stats.evictions = {5, 6};
  std::string body;
  append_stats_body(body, stats);

  const auto* bytes = reinterpret_cast<const std::uint8_t*>(body.data());
  // Every strict prefix must fail.
  for (std::size_t n = 0; n < body.size(); ++n)
    EXPECT_FALSE(
        parse_stats_body(std::span<const std::uint8_t>(bytes, n)).has_value())
        << "prefix " << n;
  // One trailing junk byte must fail too (exact-length contract).
  std::string inflated = body + '\0';
  EXPECT_FALSE(parse_stats_body(
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(inflated.data()),
                       inflated.size()))
                   .has_value());
}

TEST(ServerProtocol, StatsOpcodeUsesRequestFraming) {
  // STATS requests ride the fixed-size request frame (tenant/page zero),
  // so the server's decoder needs exactly one max-body setting.
  std::string wire;
  append_request(wire, Opcode::kStats, 0, 0);
  EXPECT_EQ(wire.size(), kRequestFrameBytes);
  FrameDecoder decoder(kRequestBodyBytes);
  const auto msgs = decode_all(decoder, wire);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].opcode, static_cast<std::uint8_t>(Opcode::kStats));
}

}  // namespace
}  // namespace ccc::server
