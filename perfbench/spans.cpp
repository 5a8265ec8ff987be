#include "spans.hpp"

#include <iomanip>
#include <map>
#include <ostream>
#include <unordered_map>

namespace perfbench {

std::int64_t since_start_ns(Clock::time_point t) noexcept {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

std::vector<SpanSummary> summarize(const std::vector<const SpanLog*>& logs) {
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const SpanLog* log : logs)
    for (const Span& span : log->spans())
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;

  std::map<std::string, SpanSummary> by_name;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      SpanSummary& summary = by_name[span.name];
      summary.name = span.name;
      const std::int64_t duration = span.end_ns - span.start_ns;
      const auto children = child_ns.find(span.id);
      const std::int64_t self =
          duration - (children == child_ns.end() ? 0 : children->second);
      ++summary.count;
      summary.total_us += static_cast<double>(duration) / 1e3;
      summary.self_us += static_cast<double>(self) / 1e3;
    }
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) out.push_back(std::move(summary));
  return out;
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const SpanLog*>& logs,
                        const std::string& metadata_json) {
  out << std::fixed << std::setprecision(3);
  out << "{\"otherData\": " << metadata_json << ",\n\"traceEvents\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->lane()
          << ",\"ts\":" << static_cast<double>(span.start_ns) / 1e3
          << ",\"dur\":"
          << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"trace\":" << span.trace << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
