/// \file protocol.cpp
/// \brief Implementation of the frame codec (see protocol.hpp for layout).

#include "server/protocol.hpp"

namespace ccc::server {

void append_request(std::string& out, Opcode opcode, TenantId tenant,
                    PageId page) {
  std::uint8_t record[kRequestFrameBytes];
  wire::store_header(record, kRequestBodyBytes,
                     static_cast<std::uint8_t>(opcode));
  wire::store(record + kHeaderBytes, tenant);
  wire::store(record + kHeaderBytes + 4, page);
  out.append(reinterpret_cast<const char*>(record), sizeof record);
}

void append_response(std::string& out, Status status, std::uint64_t value,
                     std::span<const std::uint8_t> tail) {
  std::uint8_t record[kResponseFrameBytes];
  wire::store_response(record, status, value, tail.size());
  out.append(reinterpret_cast<const char*>(record), sizeof record);
  out.append(reinterpret_cast<const char*>(tail.data()), tail.size());
}

namespace {

constexpr std::size_t kStatsHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kStatsTenantBytes = 3 * 8;

}  // namespace

void append_stats_body(std::string& out, const StatsPayload& stats) {
  const std::size_t start = out.size();
  out.resize(start + kStatsHeaderBytes +
             kStatsTenantBytes * std::size_t{stats.num_tenants});
  auto* at = reinterpret_cast<std::uint8_t*>(out.data() + start);
  wire::store(at, stats.num_tenants);
  wire::store(at + 4, stats.num_shards);
  wire::store(at + 8, stats.capacity);
  wire::store(at + 16, stats.lockfree_hits);
  at += kStatsHeaderBytes;
  for (std::uint32_t t = 0; t < stats.num_tenants; ++t) {
    wire::store(at, stats.hits[t]);
    wire::store(at + 8, stats.misses[t]);
    wire::store(at + 16, stats.evictions[t]);
    at += kStatsTenantBytes;
  }
}

std::optional<StatsPayload> parse_stats_body(
    std::span<const std::uint8_t> tail) {
  if (tail.size() < kStatsHeaderBytes) return std::nullopt;
  const std::uint8_t* at = tail.data();
  StatsPayload stats;
  stats.num_tenants = wire::load<std::uint32_t>(at);
  stats.num_shards = wire::load<std::uint32_t>(at + 4);
  stats.capacity = wire::load<std::uint64_t>(at + 8);
  stats.lockfree_hits = wire::load<std::uint64_t>(at + 16);
  if (tail.size() !=
      kStatsHeaderBytes + kStatsTenantBytes * std::size_t{stats.num_tenants})
    return std::nullopt;
  stats.hits.resize(stats.num_tenants);
  stats.misses.resize(stats.num_tenants);
  stats.evictions.resize(stats.num_tenants);
  at += kStatsHeaderBytes;
  for (std::uint32_t t = 0; t < stats.num_tenants; ++t) {
    stats.hits[t] = wire::load<std::uint64_t>(at);
    stats.misses[t] = wire::load<std::uint64_t>(at + 8);
    stats.evictions[t] = wire::load<std::uint64_t>(at + 16);
    at += kStatsTenantBytes;
  }
  return stats;
}

}  // namespace ccc::server
