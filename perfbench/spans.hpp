#pragma once
/// \file spans.hpp
/// \brief In-memory span recording for the traced run.
///
/// Spans are recorded by the benchmark around calls into each layer's
/// public API — the program itself is not instrumented. A span has a name,
/// start and end (steady-clock ns since process start), the span that
/// caused it (`parent`, 0 for a root) and a `trace` id shared by every span
/// of one unit of work (a server window, a shard batch, a sim chunk). Each
/// thread writes its own SpanLog; logs are merged only after the threads
/// are joined, so recording takes no lock.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (the span time base).
[[nodiscard]] std::int64_t since_start_ns(Clock::time_point t) noexcept;

struct Span {
  const char* name = "";  ///< string literal
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// `lane` tags the recording thread; it keeps ids unique across logs.
  explicit SpanLog(std::uint32_t lane) : lane_(lane) {}

  /// Allocates the id of a span about to be recorded, so children can name
  /// it as their parent before it ends.
  [[nodiscard]] std::uint32_t next_id() noexcept {
    return (lane_ << 24) | ++counter_;
  }

  void add(std::uint32_t id, const char* name, std::uint32_t parent,
           std::uint64_t trace, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back(
        {name, id, parent, trace, since_start_ns(start), since_start_ns(end)});
  }

  /// Room for `more` spans, so a section whose allocations are being
  /// counted does not count the log's own growth.
  void reserve(std::size_t more) { spans_.reserve(spans_.size() + more); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }

 private:
  std::uint32_t lane_;
  std::uint32_t counter_ = 0;
  std::vector<Span> spans_;
};

/// Per span name: how many, total duration and self time (duration minus
/// the time covered by the span's direct children).
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

[[nodiscard]] std::vector<SpanSummary> summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace_event "X" event (ts/dur in µs,
/// tid = lane, args carry id/parent/trace), with `metadata_json` — a JSON
/// object — under "otherData".
void write_chrome_trace(std::ostream& out,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& metadata_json);

}  // namespace perfbench
