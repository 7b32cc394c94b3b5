// The in-process workloads (sim_paper, sim_stream) and the pieces every
// pass shares: the report, the ledger gate, setup timing, peak RSS.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "process.hpp"
#include "scenario/registry.hpp"
#include "sim/report.hpp"
#include "sim/thread_pool.hpp"

namespace rdcnbench {

using rdcn::scenario::ScenarioSpec;

namespace {

// sim_paper: 1M requests per profile keeps one pass over the three
// profiles near a second on 4 threads, so a run holds many passes.
constexpr std::size_t kPaperRequests = 1'000'000;
// sim_stream: sized for about the same wall time per call; memory stays
// constant whatever the length.
constexpr std::size_t kStreamRequests = 8'000'000;

/// Median time from spawning this program in setup-probe mode until it
/// reports ready, over `count` spawns.
double sim_setup_seconds(const SimWorkload& w, int count) {
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) {
    const std::int64_t start = now_ns();
    Child child({"/proc/self/exe", "--setup-probe=" + w.name}, "");
    const std::string line = child.read_line();
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    if (line != "ready" || child.wait(std::chrono::seconds(10)) != 0)
      throw std::runtime_error("setup probe failed: '" + line + "'");
  }
  return median(samples);
}

}  // namespace

void Report::add(std::string name, std::string unit, double value,
                 std::size_t n, std::string note) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back(
      {std::move(name), std::move(unit), value, n, std::move(note)});
}

void Report::info(std::string name, std::string unit, double value,
                  std::size_t n) {
  const std::lock_guard<std::mutex> lock(mu_);
  infos_.push_back({std::move(name), std::move(unit), value, n, ""});
}

void Report::fail(const std::string& reason) {
  ++failed_;
  const std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 20) failures_.push_back(reason);
}

void LedgerGate::check(const std::string& key, const Ledger& ledger,
                       std::uint64_t alpha) {
  report_.attempt();
  const std::string why = check_ledger(ledger, alpha, anchors_, key);
  if (!why.empty()) report_.fail("ledger " + key + ": " + why);
  const std::lock_guard<std::mutex> lock(mu_);
  seen_[key] = ledger;
}

std::map<std::string, Ledger> LedgerGate::seen() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

Ledger ledger_of(const rdcn::sim::Checkpoint& c) {
  return {c.routing_cost, c.reconfig_cost, c.total_cost, c.edge_adds,
          c.edge_removals};
}

SimWorkload sim_workload(const std::string& name, std::uint64_t seed) {
  SimWorkload w;
  w.name = name;
  const auto algorithms = rdcn::scenario::parse_algorithm_list;
  if (name == "sim_paper") {
    for (const char* profile : {"facebook_db", "facebook_hadoop", "microsoft"}) {
      ScenarioSpec s;
      s.topology = {"fat_tree", {}};
      s.workload = {profile, {}};
      s.algorithms = algorithms("r_bma,bma,so_bma,greedy,oblivious");
      s.cache_sizes = {4, 16, 64};
      s.racks = 100;
      s.requests = kPaperRequests;
      s.alpha = 60;
      s.trials = 4;
      s.threads = 4;
      s.seed = seed;
      w.specs.push_back(s.resolved());
    }
  } else if (name == "sim_stream") {
    ScenarioSpec s;
    s.topology = {"fat_tree", {}};
    s.workload = {"zipf", {}};
    s.algorithms = algorithms("oblivious,greedy,r_bma");
    s.cache_sizes = {16};
    s.racks = 100;
    s.requests = kStreamRequests;
    s.alpha = 60;
    s.trials = 2;
    s.threads = 4;
    s.seed = seed;
    w.specs.push_back(s.resolved());
    w.streamed = true;
  } else {
    throw std::invalid_argument("not an in-process workload: " + name);
  }
  return w;
}

std::uint64_t replayed_requests(const ScenarioSpec& spec) {
  const auto& registry = rdcn::scenario::AlgorithmRegistry::instance();
  std::uint64_t tasks = 0;
  for (const rdcn::Spec& a : spec.algorithms) {
    const auto& entry = registry.at(a.name);
    tasks += (entry.b_independent ? 1 : spec.cache_sizes.size()) *
             (entry.randomized ? spec.trials : 1);
  }
  return tasks * spec.requests;
}

std::string run_gated(const ScenarioSpec& spec, bool streamed,
                      const std::string& workload, LedgerGate& gate) {
  std::mutex mu;
  std::map<std::string, rdcn::sim::Checkpoint> last;  // per (label, seed)
  rdcn::scenario::RunHooks hooks;
  hooks.on_checkpoint = [&](const std::string& label, std::uint64_t seed,
                            const rdcn::sim::Checkpoint& c) {
    const std::lock_guard<std::mutex> lock(mu);
    last[label + " " + std::to_string(seed)] = c;
  };
  const rdcn::scenario::ScenarioResult result =
      streamed ? rdcn::scenario::run_scenario_streamed(spec, hooks)
               : rdcn::scenario::run_scenario(spec, hooks);
  const std::string prefix = workload + " " + spec.workload.to_string() + " ";
  for (const auto& [task, c] : last)
    gate.check(prefix + task, ledger_of(c), spec.alpha);
  const std::uint64_t expected = replayed_requests(spec) / spec.requests;
  if (last.size() != expected)
    gate.fail(prefix + "saw " + std::to_string(last.size()) + " of " +
              std::to_string(expected) + " tasks");
  std::ostringstream csv;
  rdcn::sim::write_csv(csv, result.runs, rdcn::sim::Metric::kRoutingCost);
  return csv.str();
}

int setup_probe(const std::string& workload) {
  const SimWorkload w = sim_workload(workload, kDefaultSeed);
  rdcn::sim::ThreadPool::instance();
  for (const ScenarioSpec& s : w.specs) {
    rdcn::scenario::TopologyRegistry::instance().validate(s.topology);
    rdcn::scenario::WorkloadRegistry::instance().validate(s.workload);
    for (const rdcn::Spec& a : s.algorithms)
      rdcn::scenario::AlgorithmRegistry::instance().validate(a);
  }
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM for pid " + pid);
}

void sim_end_to_end(const Options& options, LedgerGate& gate,
                    Report& report) {
  const SimWorkload w = sim_workload(options.workload, options.seed);
  const double setup = sim_setup_seconds(w, 15);
  report.add("setup_s", "s", setup, 15, "process start to pool up");

  // One untimed pass lets allocator and pool warm-up finish.
  for (const ScenarioSpec& s : w.specs) run_gated(s, w.streamed, w.name, gate);

  // A run is one pass over the workload's scenarios: what a user of the
  // paper's evaluation waits for.  (Per-call latencies would mix the three
  // profiles' distinct durations, and their median would jump between
  // them.)
  std::uint64_t pass_requests = 0;
  for (const ScenarioSpec& s : w.specs) pass_requests += replayed_requests(s);
  std::vector<double> pass_ms;
  std::vector<double> pass_rate;
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  do {
    const std::int64_t t0 = now_ns();
    for (const ScenarioSpec& s : w.specs) run_gated(s, w.streamed, w.name, gate);
    const double pass_s = static_cast<double>(now_ns() - t0) * 1e-9;
    pass_ms.push_back(pass_s * 1e3);
    pass_rate.push_back(static_cast<double>(pass_requests) / pass_s / 1e6);
  } while (now_ns() < deadline);
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;

  report.add("replay_mreq_per_s", "Mreq/s", median(pass_rate),
             pass_rate.size(), "median over passes");
  report.add("peak_rss_mb", "MB", peak_rss_mb("self"), 1, "VmHWM");
  report.add("cold_run_p50_ms", "ms", percentile(pass_ms, 50), pass_ms.size(),
             "one pass");
  report.info("runs_per_s", "1/s", static_cast<double>(pass_ms.size()) / wall,
              pass_ms.size());
  report.info("cold_run_p90_ms", "ms", percentile(pass_ms, 90), pass_ms.size());
}

}  // namespace rdcnbench
