#include "core/so_bma.hpp"

#include "common/flat_hash.hpp"
#include "core/static_bmatching.hpp"

namespace rdcn::core {

SoBma::SoBma(const Instance& inst, const trace::Trace& full_trace,
             const SoBmaOptions& options)
    : OnlineBMatcher(inst) {
  RDCN_ASSERT_MSG(full_trace.num_racks() <= inst.num_racks(),
                  "trace universe exceeds instance");
  // Aggregate demand.
  FlatMap<std::uint64_t> counts(full_trace.size() / 4 + 16);
  for (const Request& r : full_trace) ++counts[pair_key(r)];

  std::vector<WeightedEdge> edges;
  edges.reserve(counts.size());
  counts.for_each([&](std::uint64_t key, std::uint64_t cnt) {
    const std::uint64_t d = inst.dist(pair_lo(key), pair_hi(key));
    if (d > 1) edges.push_back({key, cnt * (d - 1)});
  });

  const std::size_t cap = inst.offline_degree();
  chosen_ = greedy_b_matching(inst.num_racks(), cap, edges);
  if (options.local_search) {
    chosen_ = local_search_b_matching(inst.num_racks(), cap, edges,
                                      std::move(chosen_),
                                      options.local_search_passes);
  }
  install();
}

void SoBma::install() {
  for (std::uint64_t key : chosen_) {
    // Note: installation is bounded by offline_degree() <= b, so the
    // online matching structure (cap b) always accepts it.
    add_matching_edge(pair_lo(key), pair_hi(key));
  }
}

void SoBma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const BMatching& m = matching_view();
  for (const Request& r : batch) {
    RDCN_DCHECK(r.u != r.v);
    const bool matched = m.has(r.u, r.v);
    acc.routing_cost += matched ? 1 : dist(r.u, r.v);
    ++acc.requests;
    acc.direct_serves += matched ? 1 : 0;
  }
  commit_routing(acc);
}

void SoBma::reset() {
  OnlineBMatcher::reset();
  install();
}

}  // namespace rdcn::core
