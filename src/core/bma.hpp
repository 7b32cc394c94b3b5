// rdcn: BMA — the deterministic online b-matching baseline
// (Bienkowski, Fuchssteiner, Marcinkowski, Schmid; PERFORMANCE 2020),
// the state of the art the paper benchmarks R-BMA against.
//
// Counter-based scheme (Θ(b)-competitive, asymptotically optimal among
// deterministic algorithms):
//
//   * every non-matched pair e accumulates ℓe per request into a counter
//     c[e] — the routing cost paid on the fixed network since e last
//     left/missed the matching;
//   * when c[e] reaches the reconfiguration cost α, the edge has "paid its
//     dues" and is admitted to M (c[e] resets);
//   * if admission pushes an endpoint over degree b, the incident matching
//     edge with the lowest usage counter (direct serves since admission,
//     ties broken by age) is evicted, and its counter restarts from zero.
//
// Per-request cost profile: following the paper's reference implementation
// (and to keep admission O(1)), BMA maintains the eviction candidate at
// each endpoint eagerly — every request re-scans the ≤ b incident matching
// edges of both endpoints to refresh the candidate.  This Θ(b)
// request-path scan — which the randomized algorithm does not need — is
// the mechanistic source of BMA's runtime growth with b seen in the
// paper's Figs 1b–4b.
//
// State layout: the counters c[e] live in a dense triangular table indexed
// by pair_index() (trace/request.hpp), one u64 per rack pair, so charging a
// request is one indexed add.  A matched edge's usage and admission tick
// live only in the SoA rack rows (core/rack_rows.hpp), so the scan is two
// streaming SIMD kernels (simd::argmin_u64_pair + simd::find_u64) with no
// hashing.  A matched pair's counter is always 0 — admission resets it and
// matched requests never charge — so eviction leaves the table untouched.
// Admission clock ticks are unique, so the scan's argmin victim is unique
// and neither row order nor SIMD lane order can affect the ledger.
#pragma once

#include <algorithm>
#include <vector>

#include "core/online_matcher.hpp"
#include "core/rack_rows.hpp"

namespace rdcn::core {

class Bma final : public OnlineBMatcher {
 public:
  explicit Bma(const Instance& instance)
      : OnlineBMatcher(instance),
        charges_(pair_table_size(instance.num_racks()), 0),
        eviction_candidate_(instance.num_racks(), kNoCandidate),
        rows_(instance.num_racks()) {}

  std::string name() const override { return "bma"; }

  /// Devirtualized chunk loop.  Beyond skipping the per-request virtual
  /// dispatch, it *fuses* the matched-membership check into the two
  /// eviction-candidate scans: the rack rows mirror the matching adjacency
  /// exactly, so the request's pair is matched iff one of the scans found
  /// its key — the separate adjacency probe serve() pays disappears
  /// entirely.
  void serve_batch(std::span<const Request> batch) override;

  void reset() override {
    OnlineBMatcher::reset();
    std::fill(charges_.begin(), charges_.end(), 0);
    std::fill(eviction_candidate_.begin(), eviction_candidate_.end(),
              kNoCandidate);
    rows_.clear();
    clock_ = 0;
  }

  /// Test hook: accumulated charge toward admission for pair key.
  std::uint64_t charge(std::uint64_t key) const {
    return charges_[pair_index(pair_lo(key), pair_hi(key))];
  }

 private:
  static constexpr std::uint64_t kNoCandidate = 0;

  void on_request(const Request& r, bool matched) override;

  /// Matched-request tail: bumps the usage columns at both endpoint rows
  /// (the scans captured the row indices).
  void bump_matched(const Request& r, std::size_t index_u,
                    std::size_t index_v);

  /// Shared non-matched tail of the request path: accumulates `d` into the
  /// pair's counter and admits the pair once it has paid α (evicting at
  /// full endpoints).  `d` must equal dist(r.u, r.v).
  void charge_and_maybe_admit(const Request& r, std::uint64_t key,
                              std::uint64_t d);

  /// Evicts the cached candidate at w (falls back to a scan if stale).
  void evict_at(Rack w);

  std::vector<std::uint64_t> charges_;  ///< c[e] at pair_index(e)
  std::vector<std::uint64_t> eviction_candidate_;  ///< per-rack victim key
  RackRows rows_;  ///< incident matching edges with usage and age
  std::uint64_t clock_ = 0;
};

}  // namespace rdcn::core
