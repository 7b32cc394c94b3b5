// rdcn: R-BMA — the paper's randomized online (b,a)-matching algorithm.
//
// Composition of the two reductions of §2:
//
//   Theorem 1 (general → uniform): per node pair e, only every
//   ke = ⌈α/ℓe⌉-th request is *special*; the algorithm reconfigures only on
//   special requests.  This costs a factor 4γ, γ = 1 + ℓmax/α ≈ 1.
//
//   Theorem 2 (uniform → paging): every rack v runs an independent
//   (b,a)-paging algorithm over the node pairs incident to v, with cache
//   capacity b.  A special request {u,v} is passed to the engines at u and
//   at v.  The matching maintains the intersection invariant:
//
//       e ∈ M  ⇐⇒  e is cached at both endpoints of e.
//
// With the randomized marking engine (2·ln(b/(b−a+1))-competitive paging,
// Young '91) the composition is O(γ·log(b/(b−a+1)))-competitive
// (Corollary 3) — exponentially better than any deterministic algorithm.
//
// Eviction handling (footnote 2 of the paper): when a pair leaves one
// endpoint's cache, the *eager* policy removes it from M immediately
// (exactly the invariant); the *lazy* policy only marks it and prunes
// marked edges when a rack's matching degree would exceed b — keeping
// useful-but-evicted shortcuts alive longer at zero extra reconfiguration
// cost.  Lazy is the paper's experimental default.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/online_matcher.hpp"
#include "core/predictor.hpp"
#include "paging/factory.hpp"

namespace rdcn::core {

struct RBmaOptions {
  paging::EngineKind engine = paging::EngineKind::kMarking;
  bool lazy_eviction = true;
  std::uint64_t seed = 1;

  /// Learning-augmented mode (the paper's §5 future-work direction): when
  /// set, the per-rack engines become PredictiveMarking instances that
  /// consult this predictor for eviction advice.  `engine` is ignored.
  /// The predictor observes every request (not only special ones).
  std::shared_ptr<DemandPredictor> predictor;
  /// Probability of following the prediction on an eviction; the
  /// remaining mass hedges with uniform-random marking evictions, which
  /// preserves an O(log b / (1 - trust)) worst-case guarantee.
  double prediction_trust = 0.8;
};

class RBma final : public OnlineBMatcher {
 public:
  RBma(const Instance& instance, const RBmaOptions& options);

  std::string name() const override;

  /// Devirtualized chunk loop: one bitmap membership load, one distance
  /// load, one threshold-table load and one dense counter update per
  /// request (serve() pays the distance load twice — once for routing,
  /// once for the Theorem 1 threshold), with routing accumulation
  /// committed per chunk.  RNG draws happen in exactly the scalar order,
  /// so ledgers and engine states stay bit-identical.
  void serve_batch(std::span<const Request> batch) override;

  void reset() override;

  /// Diagnostics: total special requests forwarded to paging engines.
  std::uint64_t special_requests() const noexcept { return specials_; }

  /// Diagnostics: paging faults summed over all per-rack engines.
  std::uint64_t total_paging_faults() const;

  /// Test hook: is `e` currently cached at rack `w`?
  bool cached_at(Rack w, std::uint64_t key) const {
    return engines_[w]->contains(key);
  }

  /// Test hook: is `e` marked for (lazy) removal?
  bool marked_for_removal(std::uint64_t key) const {
    return pair_state(pair_lo(key), pair_hi(key)).marked;
  }

  /// Test hook: number of matching edges currently marked for lazy removal.
  std::size_t marked_count() const noexcept { return marked_count_; }

  /// Verifies the Theorem 2 intersection invariant in its lazy form:
  ///   - a pair cached at either endpoint is cached at both ⇔ it is
  ///     matched and unmarked (so every unmarked matched edge is doubly
  ///     cached, and a marked edge has left at least one cache);
  ///   - every marked pair is matched;
  ///   - marked_count() equals the number of marked pairs (0 under eager
  ///     eviction, where the invariant is exactly e ∈ M ⇔ doubly cached).
  /// O(n·b + n²); test use.
  bool check_intersection_invariant() const;

 private:
  /// Per-pair record: the Theorem 1 request counter and the lazy removal
  /// mark.  One record per rack pair, stored densely at pair_index(u, v)
  /// (trace/request.hpp), so the request path reads it with one indexed
  /// access and no hashing; the n(n−1)/2 records take at most 4n² bytes.
  /// `marked` is only ever true for pairs currently in the matching.
  struct PairCounter {
    std::uint32_t counter = 0;  ///< requests since last special request
    bool marked = false;        ///< lazily-removed matching edge?
  };

  PairCounter& pair_state(Rack u, Rack v) noexcept {
    return pairs_[pair_index(u, v)];
  }
  const PairCounter& pair_state(Rack u, Rack v) const noexcept {
    return pairs_[pair_index(u, v)];
  }

  void on_request(const Request& r, bool matched) override;

  /// Theorem 2 step for a special request: forward to both endpoint
  /// engines, process evictions, re-establish the intersection invariant.
  void special_request(const Request& r, std::uint64_t key);

  void build_engines();

  /// Flips the mark on `s`, keeping the running marked-edge count exact.
  void set_marked(PairCounter& s, bool marked) {
    if (s.marked != marked) {
      s.marked = marked;
      if (marked) {
        ++marked_count_;
      } else {
        --marked_count_;
      }
    }
  }

  /// Handles keys evicted from rack w's cache.
  void handle_evictions(const std::vector<paging::Key>& evicted);

  /// Ensures e={u,v} (already in both caches) is in M, pruning lazily
  /// marked edges if an endpoint is at its degree cap.
  void ensure_matched(Rack u, Rack v);

  /// Removes one marked edge incident to w from M (must exist).
  void prune_marked_at(Rack w);

  RBmaOptions options_;
  Xoshiro256 master_rng_;
  std::vector<std::unique_ptr<paging::PagingAlgorithm>> engines_;
  std::vector<PairCounter> pairs_;  ///< dense per-pair state, n(n−1)/2
  /// Theorem 1 thresholds by distance: ke_by_distance_[d] = ⌈α/d⌉ for
  /// d = 1..max_distance() (entry 0 is unused: distinct racks are at
  /// distance ≥ 1), so the request path does no division.
  std::vector<std::uint64_t> ke_by_distance_;
  std::size_t marked_count_ = 0;
  std::vector<paging::Key> evicted_scratch_;
  std::uint64_t specials_ = 0;
};

}  // namespace rdcn::core
