#include "exp/policy_factory.hpp"

#include <stdexcept>

#include "core/convex_caching.hpp"
#include "core/naive_convex_caching.hpp"
#include "policies/arc.hpp"
#include "policies/belady.hpp"
#include "policies/clock.hpp"
#include "policies/two_q.hpp"
#include "policies/fifo.hpp"
#include "policies/lfu.hpp"
#include "policies/lru.hpp"
#include "policies/lru_k.hpp"
#include "policies/marking.hpp"
#include "policies/random_policy.hpp"
#include "policies/randomized_marking.hpp"
#include "policies/static_partition.hpp"

namespace ccc {

std::unique_ptr<ReplacementPolicy> make_policy(const std::string& name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  if (name == "2q") return std::make_unique<TwoQPolicy>();
  if (name == "arc") return std::make_unique<ArcPolicy>();
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "lfu") return std::make_unique<LfuPolicy>();
  if (name == "random") return std::make_unique<RandomPolicy>();
  if (name == "marking") return std::make_unique<MarkingPolicy>();
  if (name == "rand-marking")
    return std::make_unique<RandomizedMarkingPolicy>();
  if (name == "lru2") return std::make_unique<LruKPolicy>(2);
  if (name == "landlord") {
    ConvexCachingOptions options;
    options.derivative = DerivativeMode::kFirstMarginal;
    return std::make_unique<ConvexCachingPolicy>(options);
  }
  if (name == "static") return std::make_unique<StaticPartitionPolicy>();
  if (name == "convex") return std::make_unique<ConvexCachingPolicy>();
  if (name == "convex-naive")
    return std::make_unique<NaiveConvexCachingPolicy>();
  if (name == "convex-discrete") {
    ConvexCachingOptions options;
    options.derivative = DerivativeMode::kDiscreteMarginal;
    return std::make_unique<ConvexCachingPolicy>(options);
  }
  if (name == "belady") return std::make_unique<BeladyPolicy>();
  throw std::invalid_argument(
      "unknown policy '" + name +
      "'; valid: lru clock 2q arc fifo lfu random marking rand-marking lru2 "
      "landlord static convex convex-naive convex-discrete belady");
}

std::vector<std::string> online_policy_names() {
  return {"convex", "lru", "lru2", "arc", "2q", "clock", "landlord",
          "static", "fifo", "marking", "lfu"};
}

}  // namespace ccc
