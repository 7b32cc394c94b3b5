// Example: workload characterization — reproduce the trace-structure
// analysis (§3.1 / Avin et al.) that explains WHEN demand-aware
// reconfiguration pays off.
//
// Prints the spatial-skew / temporal-locality fingerprint of each built-in
// workload family next to the routing-cost reduction R-BMA achieves on it,
// making the structure -> benefit correlation visible.  Workloads and
// algorithms are addressed through the scenario registries, so adding a
// row is one spec string.
//
//   $ ./examples/trace_analysis
#include <cstdio>

#include "rdcn.hpp"

namespace {

using namespace rdcn;

double rbma_reduction(const net::Topology& topo, const trace::Trace& t,
                      std::size_t b) {
  core::Instance inst;
  inst.distances = &topo.distances;
  inst.b = b;
  inst.alpha = 60;

  auto obl = scenario::make_algorithm("oblivious", inst);
  for (const core::Request& r : t) obl->serve(r);

  double rbma = 0.0;
  const int seeds = 3;
  for (int s = 1; s <= seeds; ++s) {
    auto alg = scenario::make_algorithm("r_bma", inst, nullptr,
                                        static_cast<std::uint64_t>(s));
    for (const core::Request& r : t) alg->serve(r);
    rbma += static_cast<double>(alg->costs().routing_cost);
  }
  rbma /= seeds;
  return 100.0 *
         (1.0 - rbma / static_cast<double>(obl->costs().routing_cost));
}

}  // namespace

int main() {
  using namespace rdcn;
  const std::size_t racks = 64, requests = 60'000, b = 8;
  const net::Topology topo = net::make_fat_tree(racks);

  struct Row {
    const char* name;  ///< display label
    const char* spec;  ///< WorkloadRegistry spec string
  };
  const Row rows[] = {
      {"uniform (no structure)", "uniform"},
      {"zipf s=1.2 (spatial only)", "zipf:skew=1.2"},
      {"microsoft-like (spatial only)", "microsoft"},
      {"fb-web (mild both)", "facebook_web"},
      {"fb-hadoop (bursty)", "facebook_hadoop"},
      {"fb-database (skewed+bursty)", "facebook_db"},
      {"permutation (ideal)", "permutation"},
  };

  // Every row draws its workload from the same seed state (make_workload
  // snapshots the rng, it does not advance it).
  const Xoshiro256 rng(1);
  std::printf("%-30s %8s %9s %10s %10s %12s\n", "workload", "gini",
              "entropy", "locality", "repeat_p", "R-BMA saves");
  for (const Row& row : rows) {
    const trace::Trace t =
        scenario::make_workload(row.spec, racks, requests, rng);
    trace::MaterializedStream stream(t);
    const trace::TraceStats s = trace::compute_stats(stream);
    const double saved = rbma_reduction(topo, t, b);
    std::printf("%-30s %8.2f %9.2f %10.2f %10.3f %11.1f%%\n", row.name,
                s.gini, s.normalized_pair_entropy, s.locality_window64,
                s.repeat_probability, saved);
  }
  std::printf(
      "\nReading: reduction tracks structure — spatial skew (gini up, "
      "entropy down)\n"
      "and temporal locality (locality/repeat_p up) both push savings "
      "toward the\n"
      "permutation ideal; the structureless uniform trace yields almost "
      "nothing.\n");
  return 0;
}
