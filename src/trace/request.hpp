// rdcn: a communication request — an unordered rack pair {s, t}, the unit
// of demand in the paper's model (§1.1: "a request could either be an
// individual packet or a certain amount of bytes transferred").
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"

namespace rdcn::trace {

using Rack = std::uint32_t;

struct Request {
  Rack u;
  Rack v;

  /// Normalized constructor: stores min(u,v), max(u,v).
  static Request make(Rack a, Rack b) {
    RDCN_DCHECK(a != b);
    return a < b ? Request{a, b} : Request{b, a};
  }

  friend bool operator==(const Request&, const Request&) = default;
};

/// Canonical 64-bit id of an unordered pair: (min << 32) | max.
/// Never equals FlatMap::kEmptyKey because rack ids are < 2^32 - 1.
inline std::uint64_t pair_key(Rack a, Rack b) noexcept {
  RDCN_DCHECK(a != b);
  const Rack lo = a < b ? a : b;
  const Rack hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

inline std::uint64_t pair_key(const Request& r) noexcept {
  return pair_key(r.u, r.v);
}

inline Rack pair_lo(std::uint64_t key) noexcept {
  return static_cast<Rack>(key >> 32);
}
inline Rack pair_hi(std::uint64_t key) noexcept {
  return static_cast<Rack>(key & 0xFFFFFFFFu);
}

/// Dense index of the unordered rack pair {u, v} (u != v) in a triangular
/// table of n(n−1)/2 per-pair records: hi·(hi−1)/2 + lo.  Per-pair state on
/// the request path (BMA, R-BMA) and the trace statistics fold index a
/// flat vector with it instead of hashing the pair key.
inline std::size_t pair_index(Rack u, Rack v) noexcept {
  RDCN_DCHECK(u != v);
  const std::size_t lo = u < v ? u : v, hi = u < v ? v : u;
  return hi * (hi - 1) / 2 + lo;
}

/// Number of entries of a pair_index() table over `num_racks` racks.
inline std::size_t pair_table_size(std::size_t num_racks) noexcept {
  return num_racks * (num_racks - 1) / 2;
}

}  // namespace rdcn::trace
