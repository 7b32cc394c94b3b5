#include "core/bma.hpp"

namespace rdcn::core {

void Bma::on_request(const Request& r, bool matched) {
  ++clock_;
  const std::uint64_t key = pair_key(r);

  // Request-path bookkeeping (see header): every request can change the
  // usage ranking at its endpoints (a direct serve bumps the served edge;
  // a fixed-network serve moves a pair toward admission), so the reference
  // implementation refreshes the eviction candidate at both endpoints on
  // every request.  This is the Θ(b) component of BMA's per-request cost.
  RDCN_DCHECK(rows_.size(r.u) == matching_view().degree(r.u));
  RDCN_DCHECK(rows_.size(r.v) == matching_view().degree(r.v));
  const RackRows::ScanResult su = rows_.scan(r.u, key);
  const RackRows::ScanResult sv = rows_.scan(r.v, key);
  eviction_candidate_[r.u] = su.victim_key;
  eviction_candidate_[r.v] = sv.victim_key;

  if (matched) {
    // A matched pair is incident to both endpoints, so the scans above
    // already located its row entries — no extra probe.
    bump_matched(r, su.request_index, sv.request_index);
    return;
  }

  charge_and_maybe_admit(r, key, dist(r.u, r.v));
}

void Bma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    // One-request lookahead (only a batch knows its future): pull the next
    // request's incident row columns toward the cache while the current
    // scans run.  Advisory only — no semantic effect.
    if (i + 1 < batch.size()) {
      const Request& next = batch[i + 1];
      rows_.prefetch(next.u);
      rows_.prefetch(next.v);
    }
    RDCN_DCHECK(r.u != r.v);
    ++clock_;
    const std::uint64_t key = pair_key(r);
    const RackRows::ScanResult su = rows_.scan(r.u, key);
    const RackRows::ScanResult sv = rows_.scan(r.v, key);
    eviction_candidate_[r.u] = su.victim_key;
    eviction_candidate_[r.v] = sv.victim_key;
    ++acc.requests;
    // The rack rows mirror the matching adjacency (both mutate only at
    // admission/eviction), so the pair is matched iff a scan found its key
    // — same verdict matching().has() would return, one Θ(b) probe
    // cheaper.  The scans read but never mutate the matching, so routing
    // still sees the pre-reconfiguration state the cost model prescribes.
    RDCN_DCHECK((su.request_index != RackRows::kNone) ==
                matching_view().has(r.u, r.v));
    if (su.request_index != RackRows::kNone) {
      acc.routing_cost += 1;
      ++acc.direct_serves;
      bump_matched(r, su.request_index, sv.request_index);
      continue;
    }
    const std::uint64_t d = dist(r.u, r.v);
    acc.routing_cost += d;
    charge_and_maybe_admit(r, key, d);
  }
  commit_routing(acc);
}

void Bma::bump_matched(const Request& r, std::size_t index_u,
                       std::size_t index_v) {
  RDCN_DCHECK(index_u != RackRows::kNone && index_v != RackRows::kNone);
  rows_.bump_usage(r.u, index_u);
  rows_.bump_usage(r.v, index_v);
  // Both endpoint rows hold the edge's usage; they move in lockstep.
  RDCN_DCHECK(rows_.usage_at(r.u, index_u) == rows_.usage_at(r.v, index_v));
}

void Bma::charge_and_maybe_admit(const Request& r, std::uint64_t key,
                                 std::uint64_t d) {
  std::uint64_t& charge = charges_[pair_index(r.u, r.v)];
  charge += d;
  if (charge < alpha()) return;

  // The pair has paid α in fixed-network routing: admit it.
  if (matching_view().full(r.u)) evict_at(r.u);
  if (matching_view().full(r.v)) evict_at(r.v);
  add_matching_edge(r.u, r.v);
  charge = 0;
  rows_.admit(r.u, key, clock_);
  rows_.admit(r.v, key, clock_);
}

void Bma::evict_at(Rack w) {
  std::uint64_t victim_key = eviction_candidate_[w];
  // The cached candidate can be stale (evicted from the other endpoint in
  // this very step); rescan if so.  kNoCandidate (0) is never a pair key,
  // so the rescan's membership side-channel stays empty.
  if (victim_key == kNoCandidate || !matching_view().has_key(victim_key)) {
    victim_key = rows_.scan(w, kNoCandidate).victim_key;
  }
  RDCN_ASSERT_MSG(victim_key != kNoCandidate,
                  "evict_at on rack with no matching edges");
  // The evicted pair's counter restarts from zero: it was reset at
  // admission and matched requests never charge, so it is zero already.
  RDCN_DCHECK(charges_[pair_index(pair_lo(victim_key),
                                  pair_hi(victim_key))] == 0);
  remove_matching_edge_key(victim_key);
  [[maybe_unused]] const bool lo = rows_.evict(pair_lo(victim_key), victim_key);
  [[maybe_unused]] const bool hi = rows_.evict(pair_hi(victim_key), victim_key);
  RDCN_DCHECK(lo && hi);
  eviction_candidate_[w] = kNoCandidate;
}

}  // namespace rdcn::core
