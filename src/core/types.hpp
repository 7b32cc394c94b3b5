// rdcn: shared vocabulary of the matching layer.
#pragma once

#include <cstdint>

#include "net/distance_matrix.hpp"
#include "trace/request.hpp"

namespace rdcn::core {

using trace::Rack;
using trace::Request;
using trace::pair_hi;
using trace::pair_index;
using trace::pair_key;
using trace::pair_lo;
using trace::pair_table_size;

/// A problem instance: the fixed network (via its rack-to-rack distance
/// matrix), the online degree bound b, and the reconfiguration cost α.
/// The optional `a` (<= b) is the offline degree bound of the
/// (b,a)-matching generalization; online algorithms ignore it, offline
/// comparators respect it.
struct Instance {
  const net::DistanceMatrix* distances = nullptr;
  std::size_t b = 1;
  std::size_t a = 0;  ///< 0 means "a = b"
  std::uint64_t alpha = 1;

  std::size_t num_racks() const noexcept { return distances->num_racks(); }
  std::size_t offline_degree() const noexcept { return a == 0 ? b : a; }
  std::uint16_t dist(Rack u, Rack v) const noexcept {
    return (*distances)(u, v);
  }
  std::uint16_t max_dist() const noexcept { return distances->max_distance(); }

  /// γ = 1 + ℓmax/α — the reduction overhead factor of Theorem 1.
  double gamma() const noexcept {
    return 1.0 + static_cast<double>(max_dist()) /
                     static_cast<double>(alpha);
  }
};

/// Cumulative cost ledger, split as in the paper's cost model (§1.1).
struct CostStats {
  std::uint64_t routing_cost = 0;    ///< Σ (1 if matched else ℓe)
  std::uint64_t reconfig_cost = 0;   ///< α per matching add/remove
  std::uint64_t requests = 0;
  std::uint64_t direct_serves = 0;   ///< requests served on a matching edge
  std::uint64_t edge_adds = 0;
  std::uint64_t edge_removals = 0;
  /// Matching changes by pre-scheduled (demand-oblivious) architectures;
  /// not charged α (see OnlineBMatcher::add_matching_edge_prescheduled).
  std::uint64_t prescheduled_ops = 0;

  std::uint64_t total_cost() const noexcept {
    return routing_cost + reconfig_cost;
  }
  double direct_fraction() const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(direct_serves) /
                               static_cast<double>(requests);
  }
};

}  // namespace rdcn::core
