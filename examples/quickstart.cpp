// Quickstart: one scenario spec string — topology, workload, algorithms,
// instance knobs — run end-to-end through the scenario registries, and the
// paper's randomized algorithm (R-BMA) compared against the deterministic
// baseline (BMA) and an oblivious network.
//
//   $ ./examples/quickstart
#include <iostream>

#include "rdcn.hpp"

int main() {
  using namespace rdcn;

  // The whole experiment as data: every name and parameter below resolves
  // through scenario::{Topology,Workload,Algorithm}Registry, so swapping
  // any component is a string edit (see `rdcn_sim --help` for the catalog).
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "topology=fat_tree;"
      "workload=flow_pool:pairs=200,skew=1.1,burst=30;"
      "algorithms=r_bma,bma,oblivious;"
      "b=4;racks=32;requests=100000;alpha=50;trials=5;checkpoints=5;"
      "seed=2023");

  const scenario::ScenarioResult result = scenario::run_scenario(spec);

  std::cout << "topology: " << result.topology.name
            << ", racks=" << result.topology.num_racks()
            << ", mean rack distance="
            << result.topology.distances.mean_distance() << "\n";
  trace::MaterializedStream stream(result.workload);
  const trace::TraceStats stats = trace::compute_stats(stream);
  std::cout << "workload: " << result.workload.size() << " requests, "
            << stats.distinct_pairs << " distinct pairs, skew(gini)="
            << stats.gini << ", locality(w64)=" << stats.locality_window64
            << "\n\n";

  sim::print_table(std::cout, result.runs, sim::Metric::kRoutingCost,
                   "quickstart");
  sim::print_summary(std::cout, result.runs, result.runs.back());  // vs obl.
  return 0;
}
