#include "core/b_matching.hpp"

#include <bit>

namespace rdcn::core {

bool BMatching::check_invariants() const {
  std::size_t adjacency_entries = 0;
  for (Rack u = 0; u < num_racks(); ++u) {
    const auto& adj = adjacency_[u];
    if (adj.size() > degree_cap_) return false;
    adjacency_entries += adj.size();
    for (std::size_t i = 0; i < adj.size(); ++i) {
      const Rack v = adj[i];
      if (v == u || v >= num_racks()) return false;
      if (!has(u, v) || !has(v, u)) return false;
      if (!adjacency_[v].contains(u)) return false;
      // No duplicate neighbor entries.
      for (std::size_t j = i + 1; j < adj.size(); ++j)
        if (adj[j] == v) return false;
    }
  }
  if (adjacency_entries != 2 * size_) return false;

  // Every set bit is an adjacency entry: with the checks above, a stray bit
  // (or a bit past n²) shows up as a popcount above 2·size().
  std::size_t bits_set = 0;
  for (const std::uint64_t word : bits_) bits_set += std::popcount(word);
  return bits_set == 2 * size_;
}

}  // namespace rdcn::core
