#include "core/r_bma.hpp"

#include "paging/predictive_marking.hpp"

namespace rdcn::core {

RBma::RBma(const Instance& instance, const RBmaOptions& options)
    : OnlineBMatcher(instance),
      options_(options),
      master_rng_(options.seed) {
  pairs_.resize(pair_table_size(instance.num_racks()));
  ke_by_distance_.resize(std::size_t{instance.max_dist()} + 1);
  for (std::uint64_t d = 1; d < ke_by_distance_.size(); ++d)
    ke_by_distance_[d] = (alpha() + d - 1) / d;
  build_engines();
}

void RBma::build_engines() {
  engines_.clear();
  engines_.reserve(instance().num_racks());
  for (std::size_t v = 0; v < instance().num_racks(); ++v) {
    if (options_.predictor != nullptr) {
      DemandPredictor* predictor = options_.predictor.get();
      engines_.push_back(std::make_unique<paging::PredictiveMarking>(
          b(), master_rng_.split(v),
          [predictor](paging::Key key) { return predictor->score(key); },
          options_.prediction_trust));
    } else {
      engines_.push_back(paging::make_engine(options_.engine, b(),
                                             master_rng_.split(v)));
    }
  }
}

std::string RBma::name() const {
  const std::string engine =
      options_.predictor != nullptr
          ? "predictive:" + options_.predictor->name()
          : paging::engine_name(options_.engine);
  return "r_bma[" + engine + (options_.lazy_eviction ? ",lazy]" : ",eager]");
}

void RBma::reset() {
  OnlineBMatcher::reset();
  master_rng_ = Xoshiro256(options_.seed);
  build_engines();
  pairs_.assign(pairs_.size(), PairCounter{});
  marked_count_ = 0;
  specials_ = 0;
}

std::uint64_t RBma::total_paging_faults() const {
  std::uint64_t faults = 0;
  for (const auto& e : engines_) faults += e->faults();
  return faults;
}

void RBma::on_request(const Request& r, bool /*matched*/) {
  // Learning-augmented mode: the predictor sees the full stream.
  if (options_.predictor != nullptr) options_.predictor->observe(pair_key(r));

  // Theorem 1 reduction: act only on every ke-th request to this pair,
  // ke = ceil(alpha / dist).
  PairCounter& state = pair_state(r.u, r.v);
  if (++state.counter < ke_by_distance_[dist(r.u, r.v)]) return;
  state.counter = 0;
  ++specials_;

  special_request(r, pair_key(r));
}

void RBma::serve_batch(std::span<const Request> batch) {
  RoutingDelta acc;
  const BMatching& m = matching_view();
  const std::uint64_t* const ke = ke_by_distance_.data();
  DemandPredictor* const predictor = options_.predictor.get();
  for (const Request& r : batch) {
    RDCN_DCHECK(r.u != r.v);
    // Route with the current matching (membership checked before any
    // reconfiguration below, exactly as serve() does).
    const bool matched = m.has(r.u, r.v);
    const std::uint16_t d = dist(r.u, r.v);
    acc.routing_cost += matched ? 1 : d;
    ++acc.requests;
    acc.direct_serves += matched ? 1 : 0;

    if (predictor != nullptr) predictor->observe(pair_key(r));

    PairCounter& state = pair_state(r.u, r.v);
    if (++state.counter < ke[d]) continue;
    state.counter = 0;
    ++specials_;
    special_request(r, pair_key(r));
  }
  commit_routing(acc);
}

void RBma::special_request(const Request& r, std::uint64_t key) {
  // Theorem 2 reduction: forward the special request to the paging engines
  // at both endpoints; a request always ends with the pair cached there.
  evicted_scratch_.clear();
  engines_[r.u]->request(key, evicted_scratch_);
  engines_[r.v]->request(key, evicted_scratch_);
  handle_evictions(evicted_scratch_);

  // Intersection invariant: the pair is now in both caches, so it becomes
  // (or stays) a matching edge.
  ensure_matched(r.u, r.v);
}

void RBma::handle_evictions(const std::vector<paging::Key>& evicted) {
  for (const paging::Key key : evicted) {
    if (!matching_view().has_key(key)) continue;  // was never doubly cached
    if (options_.lazy_eviction) {
      // Keep the edge until capacity forces pruning.
      set_marked(pair_state(pair_lo(key), pair_hi(key)), true);
    } else {
      remove_matching_edge_key(key);
    }
  }
}

void RBma::ensure_matched(Rack u, Rack v) {
  if (matching_view().has(u, v)) {
    // A lazily marked edge that is requested again is doubly cached once
    // more — resurrect it for free (no reconfiguration happened).
    set_marked(pair_state(u, v), false);
    return;
  }
  if (matching_view().full(u)) prune_marked_at(u);
  if (matching_view().full(v)) prune_marked_at(v);
  add_matching_edge(u, v);
}

void RBma::prune_marked_at(Rack w) {
  // A marked incident edge must exist: all unmarked matched edges at w are
  // cached at w, the cache holds <= b keys, and the incoming pair occupies
  // one cache slot without being matched yet.
  const auto& neighbors = matching_view().neighbors(w);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    PairCounter& s = pair_state(w, neighbors[i]);
    if (s.marked) {
      set_marked(s, false);
      remove_matching_edge(w, neighbors[i]);
      return;
    }
  }
  RDCN_ASSERT_MSG(false,
                  "lazy eviction invariant violated: no marked edge to prune");
}

bool RBma::check_intersection_invariant() const {
  const BMatching& m = matching_view();
  const auto doubly_cached = [&](std::uint64_t key) {
    return engines_[pair_lo(key)]->contains(key) &&
           engines_[pair_hi(key)]->contains(key);
  };
  const auto matched_unmarked = [&](std::uint64_t key) {
    return m.has_key(key) && !marked_for_removal(key);
  };
  // Pairs cached somewhere: doubly cached ⇔ matched and unmarked.
  for (const auto& engine : engines_)
    for (const paging::Key key : engine->cached_keys())
      if (doubly_cached(key) != matched_unmarked(key)) return false;
  // Unmarked matching edges are doubly cached (this also covers edges that
  // no cache holds any more).
  for (const std::uint64_t key : m.edge_keys())
    if (matched_unmarked(key) && !doubly_cached(key)) return false;
  // Every marked pair is matched, and the running count is exact.
  std::size_t marked = 0;
  for (Rack hi = 1; hi < m.num_racks(); ++hi) {
    for (Rack lo = 0; lo < hi; ++lo) {
      if (!pair_state(lo, hi).marked) continue;
      if (!m.has(lo, hi)) return false;
      ++marked;
    }
  }
  if (marked != marked_count_) return false;
  return options_.lazy_eviction || marked == 0;
}

}  // namespace rdcn::core
