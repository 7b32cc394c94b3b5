// The traced pass: times the calls into each layer (net, trace, core,
// common.simd, sim, scenario, serve) from here with spans, on the
// workload's own scenarios, and checks thread-count invariance and the
// streamed/materialized prefix on the way.
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "common/simd.hpp"
#include "scenario/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

namespace rdcnbench {

using rdcn::scenario::ScenarioSpec;
namespace scn = rdcn::scenario;
namespace sim = rdcn::sim;

namespace {

// The per-algorithm panel and the SIMD ratios replay this many requests
// of the workload's first scenario, whatever algorithms it runs itself.
constexpr std::size_t kPanelRequests = 400'000;
const char* const kPanelAlgorithms[] = {"r_bma", "bma", "so_bma", "greedy",
                                        "oblivious"};
constexpr std::size_t kPrefix = 1 << 16;
constexpr double kServeProbeSeconds = 4;

double ms(double seconds) { return seconds * 1e3; }

/// The scenario's network and the RNG state at which its workload starts,
/// built as run_scenario builds them.
struct Network {
  rdcn::net::Topology topology;
  std::size_t racks = 0;  ///< racks the workload spans
  rdcn::Xoshiro256 workload_rng;
};

Network build_network(const ScenarioSpec& spec) {
  rdcn::Xoshiro256 rng(spec.seed);
  rdcn::net::Topology topology =
      scn::TopologyRegistry::instance().make(spec.topology, spec.racks, rng);
  const std::size_t racks = std::min(spec.racks, topology.num_racks());
  return {std::move(topology), racks, rng};
}

rdcn::core::Instance instance_of(const Network& network,
                                 const ScenarioSpec& spec, std::size_t b) {
  rdcn::core::Instance instance;
  instance.distances = &network.topology.distances;
  instance.b = b;
  instance.a = spec.a;
  instance.alpha = spec.alpha;
  return instance;
}

/// Layer times of one scenario replayed task by task on this thread.
struct Parts {
  double topology = 0, generate = 0, build = 0, serve = 0, pull = 0;
  std::map<std::string, Ledger> ledgers;
  std::string csv;
};

/// What run_scenario does, one call per layer, each under its own span.
Parts decompose(const ScenarioSpec& spec, bool streamed,
                const std::string& workload, Tracer& tracer, Report& report) {
  Parts parts;
  const scn::AlgorithmRegistry& algorithms = scn::AlgorithmRegistry::instance();
  const scn::WorkloadRegistry& workloads = scn::WorkloadRegistry::instance();
  ScopedSpan root(tracer, "scenario.decomposed");
  std::optional<Network> network;
  {
    ScopedSpan span(tracer, "net.topology_build");
    network = build_network(spec);
    parts.topology += span.finish();
  }
  const std::size_t racks = network->racks;
  const rdcn::Xoshiro256& workload_rng = network->workload_rng;
  std::optional<rdcn::trace::Trace> trace;
  if (!streamed) {
    ScopedSpan span(tracer, "trace.generate");
    rdcn::Xoshiro256 rng = workload_rng;
    trace = workloads.make(spec.workload, racks, spec.requests, rng);
    parts.generate += span.finish();
  }

  // Streamed and materialized forms of the same workload agree.
  {
    auto stream = workloads.make_stream(spec.workload, racks, spec.requests,
                                        workload_rng);
    std::vector<rdcn::trace::Request> head(kPrefix);
    head.resize(stream->next(head.data(), head.size()));
    rdcn::Xoshiro256 again = workload_rng;
    const rdcn::trace::Trace full =
        streamed ? workloads.make(spec.workload, racks, spec.requests, again)
                 : rdcn::trace::Trace();
    const rdcn::trace::Trace& reference = streamed ? full : *trace;
    std::vector<rdcn::trace::Request> expected(head.size());
    reference.gather(0, expected.size(), expected.data());
    report.attempt();
    if (head != expected)
      report.fail(workload + ": streamed prefix of " +
                  spec.workload.to_string() + " differs from the trace");
  }

  const std::uint64_t total = spec.requests;
  std::vector<sim::RunResult> results;
  for (const rdcn::Spec& algorithm : spec.algorithms) {
    const scn::AlgorithmEntry& entry = algorithms.at(algorithm.name);
    for (const std::size_t b : spec.cache_sizes) {
      const std::string label = algorithm.to_string() + "(b=" +
                                std::to_string(b) + ")";
      std::vector<sim::RunResult> group;
      for (std::size_t t = 0; t < (entry.randomized ? spec.trials : 1); ++t) {
        const std::uint64_t seed = spec.seed + t;
        std::unique_ptr<rdcn::core::OnlineBMatcher> matcher;
        {
          ScopedSpan span(tracer, "core.build." + algorithm.name);
          matcher = algorithms.make(algorithm, instance_of(*network, spec, b),
                                    trace ? &*trace : nullptr, seed);
          parts.build += span.finish();
        }
        const auto grid = sim::checkpoint_grid(total, spec.checkpoints);
        sim::RunResult r;
        if (!streamed) {
          ScopedSpan span(tracer, "core.serve." + algorithm.name);
          r = sim::run_simulation(*matcher, *trace, grid);
          parts.serve += span.finish();
        } else {
          auto stream = workloads.make_stream(spec.workload, racks,
                                              spec.requests, workload_rng);
          ScopedSpan span(tracer, "core.task." + algorithm.name);
          r = sim::run_simulation(*matcher, *stream, grid);
          const double task = span.finish();
          parts.serve += r.final().wall_seconds;
          parts.pull += task - r.final().wall_seconds;
        }
        r.seed = seed;
        r.algorithm = label;
        parts.ledgers[workload + " " + spec.workload.to_string() + " " +
                      label + " " + std::to_string(seed)] =
            ledger_of(r.final());
        group.push_back(std::move(r));
      }
      results.push_back(sim::average_runs(group));
      if (entry.b_independent) break;
    }
  }
  std::ostringstream csv;
  sim::write_csv(csv, results, sim::Metric::kRoutingCost);
  parts.csv = csv.str();
  return parts;
}

/// Median write_csv time over repeated calls on the same results.
double csv_ms(const ScenarioSpec& spec, Tracer& tracer) {
  ScenarioSpec small = spec;
  small.requests = 20'000;
  small.threads = 4;
  const auto results = scn::run_scenario(small).runs;
  std::vector<double> samples;
  for (int i = 0; i < 51; ++i) {
    std::ostringstream out;
    ScopedSpan span(tracer, "sim.report.write_csv");
    sim::write_csv(out, results, sim::Metric::kRoutingCost);
    samples.push_back(ms(span.finish()));
  }
  return median(samples);
}

/// run_experiment at 1/2/4 threads over the first scenario's task set.
void pool_scaling(const ScenarioSpec& spec, bool streamed, Tracer& tracer,
                  Report& report) {
  const Network network = build_network(spec);
  const scn::WorkloadRegistry& workloads = scn::WorkloadRegistry::instance();
  std::optional<rdcn::trace::Trace> trace;
  if (!streamed) {
    rdcn::Xoshiro256 rng = network.workload_rng;
    trace = workloads.make(spec.workload, network.racks, spec.requests, rng);
  }
  const sim::StreamFactory factory = [&] {
    return workloads.make_stream(spec.workload, network.racks, spec.requests,
                                 network.workload_rng);
  };
  std::vector<sim::ExperimentSpec> tasks;
  for (const rdcn::Spec& a : spec.algorithms) {
    for (const std::size_t b : spec.cache_sizes) {
      tasks.push_back({a.name, b, a.params, ""});
      if (scn::AlgorithmRegistry::instance().at(a.name).b_independent) break;
    }
  }
  double wall[5] = {};
  double task_wall = 0;
  for (const std::size_t threads : {1, 2, 4}) {
    std::mutex mu;
    std::map<std::string, double> last;
    sim::ExperimentConfig config;
    config.distances = &network.topology.distances;
    config.alpha = spec.alpha;
    config.a = spec.a;
    config.checkpoints = spec.checkpoints;
    config.trials = spec.trials;
    config.base_seed = spec.seed;
    config.threads = threads;
    config.on_checkpoint = [&](const sim::ExperimentSpec& e, std::uint64_t seed,
                               const sim::Checkpoint& c) {
      const std::lock_guard<std::mutex> lock(mu);
      last[e.display() + " " + std::to_string(seed)] = c.wall_seconds;
    };
    ScopedSpan span(tracer, "sim.run_experiment.t" + std::to_string(threads));
    if (streamed) sim::run_experiment(config, factory, tasks);
    else sim::run_experiment(config, *trace, tasks);
    wall[threads] = span.finish();
    task_wall = 0;
    for (const auto& [key, seconds] : last) task_wall += seconds;
  }
  report.add("sim.pool.speedup_2t", "x", wall[1] / wall[2], 1);
  report.add("sim.pool.speedup_4t", "x", wall[1] / wall[4], 1);
  report.add("sim.pool.efficiency", "ratio", task_wall / (4 * wall[4]), 1,
             "sum of task walls / (4 threads x wall)");
}

/// Every panel algorithm on a sample of the first scenario's traffic:
/// 1-thread serve time over the workload's b values, and the b=64 serve
/// time with kernels pinned to scalar over the default dispatch.
void algorithm_panel(const ScenarioSpec& spec, Tracer& tracer,
                     Report& report) {
  const Network network = build_network(spec);
  rdcn::Xoshiro256 rng = network.workload_rng;
  const rdcn::trace::Trace sample = scn::WorkloadRegistry::instance().make(
      spec.workload, network.racks, kPanelRequests, rng);
  const auto serve = [&](const std::string& name, std::size_t b,
                         const std::string& span_name) {
    auto matcher = scn::AlgorithmRegistry::instance().make(
        {name, {}}, instance_of(network, spec, b), &sample, spec.seed);
    ScopedSpan span(tracer, span_name);
    sim::run_simulation(*matcher, sample, {sample.size()});
    return span.finish();
  };
  for (const char* name : kPanelAlgorithms) {
    double total = 0;
    for (const std::size_t b : spec.cache_sizes)
      total += serve(name, b, std::string("core.panel.") + name);
    report.add(std::string("core.serve_ms.") + name, "ms", ms(total),
               spec.cache_sizes.size(), "400k-request sample, 1 thread");
  }
  for (const char* name : kPanelAlgorithms) {
    std::vector<double> simd, scalar;
    for (int rep = 0; rep < 3; ++rep) {
      rdcn::simd::set_force_scalar(false);
      simd.push_back(serve(name, 64, std::string("common.simd.default.") + name));
      rdcn::simd::set_force_scalar(true);
      scalar.push_back(serve(name, 64, std::string("common.simd.scalar.") + name));
    }
    rdcn::simd::set_force_scalar(false);
    report.add(std::string("common.simd.scalar_over_simd.") + name, "x",
               median(scalar) / median(simd), 3, "b=64, median of 3");
  }
}

/// Drains each scenario's stream without serving it.
double stream_mreq_per_s(const SimWorkload& w, Tracer& tracer) {
  std::uint64_t requests = 0;
  double seconds = 0;
  std::vector<rdcn::trace::Request> chunk(sim::kServeChunk);
  for (const ScenarioSpec& spec : w.specs) {
    const Network network = build_network(spec);
    auto stream = scn::WorkloadRegistry::instance().make_stream(
        spec.workload, network.racks, spec.requests, network.workload_rng);
    ScopedSpan span(tracer, "trace.stream_drain");
    while (const std::size_t n = stream->next(chunk.data(), chunk.size()))
      requests += n;
    seconds += span.finish();
  }
  return static_cast<double>(requests) / seconds / 1e6;
}

/// One pass over the workload's scenarios at their own thread count;
/// keeps each scenario's CSV in `csv`.
double e2e_pass(const SimWorkload& w, LedgerGate& gate, Tracer& tracer,
                std::map<std::string, std::string>& csv) {
  ScopedSpan pass(tracer, "workload.pass");
  for (const ScenarioSpec& s : w.specs) {
    ScopedSpan call(tracer, w.streamed ? "scenario.run_scenario_streamed"
                                       : "scenario.run_scenario");
    csv[s.workload.to_string()] = run_gated(s, w.streamed, w.name, gate);
  }
  return pass.finish();
}

/// What run_scenario spends outside the layers it calls: a 1-thread
/// run_scenario minus the decomposed layer times, on a 20k-request copy of
/// the scenario so that the difference is not lost in run-to-run noise.
double glue_ms(const ScenarioSpec& spec, bool streamed,
               const std::string& workload, Tracer& tracer, Report& report) {
  ScenarioSpec small = spec;
  small.requests = 20'000;
  small.threads = 1;
  std::vector<double> samples;
  for (int rep = 0; rep < 15; ++rep) {
    ScopedSpan span(tracer, "scenario.run_scenario.t1");
    streamed ? scn::run_scenario_streamed(small) : scn::run_scenario(small);
    const double whole = span.finish();
    const Parts p = decompose(small, streamed, workload, tracer, report);
    samples.push_back(
        ms(whole - p.topology - p.generate - p.build - p.serve - p.pull));
  }
  return median(samples);
}

}  // namespace

void layers(const Options& options, LedgerGate& gate, Report& report,
            Tracer& tracer) {
  const bool serve = options.workload == "serve_mix";
  const SimWorkload w = serve ? serve_mix_workload(options.seed)
                              : sim_workload(options.workload, options.seed);

  // Tracing cost plus the 4-thread ledgers and CSVs, from alternating
  // passes (serve_mix measures its tracing cost on the daemon instead).
  Tracer off(false);
  std::vector<double> plain, traced;
  std::map<std::string, std::string> four_thread_csv;
  for (int round = 0; round < (serve ? 1 : 2); ++round) {
    plain.push_back(e2e_pass(w, gate, off, four_thread_csv));
    if (!serve) traced.push_back(e2e_pass(w, gate, tracer, four_thread_csv));
  }
  const std::map<std::string, Ledger> four_threads = gate.seen();

  Parts sum;
  std::size_t tasks = 0;
  for (const ScenarioSpec& spec : w.specs) {
    const Parts p = decompose(spec, w.streamed, w.name, tracer, report);
    sum.topology += p.topology;
    sum.generate += p.generate;
    sum.build += p.build;
    sum.serve += p.serve;
    sum.pull += p.pull;
    tasks += p.ledgers.size();
    for (const auto& [key, ledger] : p.ledgers) {
      report.attempt();
      const auto it = four_threads.find(key);
      if (it == four_threads.end() || it->second.routing != ledger.routing ||
          it->second.reconfig != ledger.reconfig ||
          it->second.adds != ledger.adds ||
          it->second.removals != ledger.removals)
        report.fail("1-thread ledger differs from the 4-thread one: " + key);
    }
    report.attempt();
    if (!compare_csv(four_thread_csv[spec.workload.to_string()], p.csv).equal)
      report.fail("1-thread decomposed CSV differs from the 4-thread one: " +
                  spec.workload.to_string());
  }
  const double generation = w.streamed ? sum.pull : sum.generate;
  report.add("net.topology_build_ms", "ms", ms(sum.topology), w.specs.size());
  report.add("trace.generate_ms", "ms", ms(generation), w.specs.size(),
             w.streamed ? "stream pull time over all tasks" : "materialized");
  report.add("trace.stream_mreq_per_s", "Mreq/s", stream_mreq_per_s(w, tracer),
             w.specs.size());
  report.add("trace.generate_share", "ratio",
             generation / (generation + sum.serve), w.specs.size());
  report.add("core.build_ms", "ms", ms(sum.build), tasks);
  report.add("core.serve_ms.all_tasks", "ms", ms(sum.serve), w.specs.size(),
             "1 thread, every task of the workload");
  algorithm_panel(w.specs.front(), tracer, report);
  pool_scaling(w.specs.front(), w.streamed, tracer, report);
  report.add("sim.report.csv_ms", "ms", csv_ms(w.specs.front(), tracer), 51);
  report.add("scenario.glue_ms", "ms",
             glue_ms(w.specs.front(), w.streamed, w.name, tracer, report), 15,
             "20k-request copy, 1-thread run_scenario minus its layers");

  const double serve_overhead =
      serve_layers(options, kServeProbeSeconds, serve, report, tracer);
  report.add("bench.trace_overhead_pct", "%",
             serve ? serve_overhead
                   : (median(traced) - median(plain)) / median(plain) * 100,
             serve ? 2 : plain.size() + traced.size(),
             serve ? "runs_per_s, traced vs untraced session"
                   : "pass wall, traced vs untraced");
}

}  // namespace rdcnbench
