#pragma once
/// \file harness.hpp
/// \brief Helpers shared by the throughput harnesses (e6, e10, e11): the
///        Zipf multi-tenant trace they all replay and the observability
///        snapshot files written next to a bench JSON.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "trace/generators.hpp"

namespace ccc::bench {

/// `tenants` equally weighted tenants, each drawing from its own
/// `pages_per_tenant`-page Zipf(`skew`) universe.
inline Trace make_zipf_trace(std::uint32_t tenants,
                             std::uint64_t pages_per_tenant, double skew,
                             std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  workloads.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, skew), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// Derives the obs snapshot path from the bench JSON path: `foo.json` →
/// `foo.obs.json` / `foo.obs.prom`; a non-.json path just gets the suffix
/// appended.
inline std::string obs_path(const std::string& json_path,
                            const char* suffix) {
  const std::string base =
      json_path.size() > 5 && json_path.ends_with(".json")
          ? json_path.substr(0, json_path.size() - 5)
          : json_path;
  return base + suffix;
}

/// Writes `registry` as JSON and Prometheus text next to `json_path`.
inline void write_obs_outputs(const obs::MetricsRegistry& registry,
                              const std::string& json_path) {
  const std::string obs_json = obs_path(json_path, ".obs.json");
  std::ofstream json_out(obs_json);
  if (!json_out) throw std::runtime_error("cannot write " + obs_json);
  registry.write_json(json_out);
  std::cout << "wrote " << obs_json << "\n";

  const std::string obs_prom = obs_path(json_path, ".obs.prom");
  std::ofstream prom_out(obs_prom);
  if (!prom_out) throw std::runtime_error("cannot write " + obs_prom);
  registry.write_prometheus(prom_out);
  std::cout << "wrote " << obs_prom << "\n";
}

}  // namespace ccc::bench
