// rdcn: dynamic b-matching — the set M of reconfigurable optical links.
//
// Invariant (the feasibility constraint of §1.1): every rack has at most
// `degree_cap` incident matching edges.  Membership queries are on the
// per-request hot path (every routed request asks "is {s,t} matched?"),
// so membership lives in an n×n adjacency bitmap with both orientations
// set: has(u, v) is one word load and a shift for every b, with no
// canonicalization.  The bitmap costs n²/8 bytes (1.25 KB at 100 racks).
// Per-rack adjacency rows (small inline vectors, insertion order with
// swap-erase) serve degree queries and the O(b) neighbor scans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/small_vector.hpp"
#include "core/types.hpp"

namespace rdcn::core {

class BMatching {
 public:
  BMatching(std::size_t num_racks, std::size_t degree_cap)
      : adjacency_(num_racks),
        bits_((num_racks * num_racks + 63) / 64, 0),
        degree_cap_(degree_cap) {
    RDCN_ASSERT_MSG(degree_cap >= 1, "degree cap must be at least 1");
  }

  std::size_t num_racks() const noexcept { return adjacency_.size(); }
  std::size_t degree_cap() const noexcept { return degree_cap_; }
  std::size_t size() const noexcept { return size_; }

  bool has(Rack u, Rack v) const noexcept {
    RDCN_DCHECK(u < adjacency_.size() && v < adjacency_.size());
    const std::size_t bit = bit_index(u, v);
    return (bits_[bit >> 6] >> (bit & 63)) & 1;
  }
  bool has_key(std::uint64_t key) const noexcept {
    return has(pair_lo(key), pair_hi(key));
  }

  std::size_t degree(Rack u) const noexcept {
    RDCN_DCHECK(u < adjacency_.size());
    return adjacency_[u].size();
  }

  bool full(Rack u) const noexcept { return degree(u) >= degree_cap_; }

  /// Neighbors of u in M (unordered).
  const SmallVector<Rack, 8>& neighbors(Rack u) const noexcept {
    RDCN_DCHECK(u < adjacency_.size());
    return adjacency_[u];
  }

  /// Adds {u,v}; asserts the edge is absent and both degrees are below cap.
  void add(Rack u, Rack v) {
    RDCN_DCHECK(u != v && u < num_racks() && v < num_racks());
    RDCN_ASSERT_MSG(!full(u) && !full(v),
                    "b-matching degree cap would be violated");
    RDCN_ASSERT_MSG(!has(u, v), "edge already in matching");
    flip(u, v);
    ++size_;
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
  }

  /// Removes {u,v}; asserts presence.
  void remove(Rack u, Rack v) {
    RDCN_ASSERT_MSG(has(u, v), "removing an edge not in the matching");
    flip(u, v);
    --size_;
    const bool ru = adjacency_[u].erase_value(v);
    const bool rv = adjacency_[v].erase_value(u);
    RDCN_ASSERT(ru && rv);
  }

  void clear() {
    std::fill(bits_.begin(), bits_.end(), 0);
    size_ = 0;
    for (auto& adj : adjacency_) adj.clear();
  }

  /// All matching edges as canonical pair keys (order unspecified).
  std::vector<std::uint64_t> edge_keys() const {
    std::vector<std::uint64_t> keys;
    keys.reserve(size_);
    for (Rack u = 0; u < num_racks(); ++u)
      for (const Rack v : adjacency_[u])
        if (u < v) keys.push_back(pair_key(u, v));
    return keys;
  }

  /// Full consistency audit: degree caps respected, adjacency symmetric,
  /// adjacency consistent with the bitmap, and no stray bits.  O(n·b + n²/64);
  /// test/debug use.
  bool check_invariants() const;

 private:
  std::size_t bit_index(Rack u, Rack v) const noexcept {
    return static_cast<std::size_t>(u) * adjacency_.size() + v;
  }

  /// Toggles both orientations of {u,v} in the bitmap.
  void flip(Rack u, Rack v) noexcept {
    const std::size_t uv = bit_index(u, v), vu = bit_index(v, u);
    bits_[uv >> 6] ^= std::uint64_t{1} << (uv & 63);
    bits_[vu >> 6] ^= std::uint64_t{1} << (vu & 63);
  }

  std::vector<SmallVector<Rack, 8>> adjacency_;
  std::vector<std::uint64_t> bits_;  ///< bit u·n+v set ⇔ {u,v} ∈ M
  std::size_t size_ = 0;
  std::size_t degree_cap_;
};

}  // namespace rdcn::core
