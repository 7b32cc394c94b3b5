// rdcnbench: shared declarations of the benchmark's workloads.
//
//   sim_paper   the paper's evaluation in-process (scenario::run_scenario)
//   sim_stream  one long streamed zipf replay (run_scenario_streamed)
//   serve_mix   a real rdcn_serve driven closed-loop over 4 connections
//
// The untraced pass (--trace 0) measures a workload's end-to-end metrics;
// the traced pass (--trace 1) times the calls into each layer from here
// with spans and reports the per-layer metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "scenario/scenario.hpp"

namespace rdcnbench {

/// Anchors in anchors.txt were captured with this workload seed.
constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string daemon;       ///< path of the rdcn_serve binary
  std::string work_dir;     ///< daemon sockets, journals, caches
  std::string out_dir;      ///< span JSON files
  std::string anchors;      ///< golden final ledgers (anchors.txt)
  std::string anchors_out;  ///< when set, write observed ledgers here
};

/// Metrics and outcome counters of one benchmark run (thread-safe).
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    std::size_t n = 0;  ///< samples behind the value
    std::string note;
  };

  void add(std::string name, std::string unit, double value, std::size_t n,
           std::string note = "");
  /// Printed with the run but kept out of the result JSON.
  void info(std::string name, std::string unit, double value, std::size_t n);
  void attempt(std::uint64_t count = 1) { attempted_ += count; }
  void fail(const std::string& reason);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& infos() const { return infos_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> infos_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<std::string> failures_;  ///< the first few reasons
};

/// Checks each task's final ledger (cost identity always; anchors at the
/// default seed) and keeps every ledger it saw.
class LedgerGate {
 public:
  LedgerGate(const AnchorTable* anchors, Report& report)
      : anchors_(anchors), report_(report) {}

  void check(const std::string& key, const Ledger& ledger,
             std::uint64_t alpha);
  std::map<std::string, Ledger> seen() const;
  /// Counts one failed check that has no ledger to show.
  void fail(const std::string& reason) {
    report_.attempt();
    report_.fail(reason);
  }

 private:
  const AnchorTable* anchors_;
  Report& report_;
  mutable std::mutex mu_;
  std::map<std::string, Ledger> seen_;
};

Ledger ledger_of(const rdcn::sim::Checkpoint& c);

/// The scenarios one run of an in-process workload replays.
struct SimWorkload {
  std::string name;
  bool streamed = false;
  std::vector<rdcn::scenario::ScenarioSpec> specs;
};
SimWorkload sim_workload(const std::string& name, std::uint64_t seed);
/// serve_mix's specs as in-process scenarios: one hot small spec and one
/// bulk spec (for the traced pass's layer decomposition).
SimWorkload serve_mix_workload(std::uint64_t seed);

/// Replay work of a resolved spec: requests × (algorithm, b, trial) tasks.
std::uint64_t replayed_requests(const rdcn::scenario::ScenarioSpec& spec);

/// One scenario through run_scenario / run_scenario_streamed with every
/// task's final ledger gated under "<workload> <workload spec> <label>
/// <seed>".  Returns the scenario's CSV (routing cost).
std::string run_gated(const rdcn::scenario::ScenarioSpec& spec, bool streamed,
                      const std::string& workload, LedgerGate& gate);

/// Untraced end-to-end pass of sim_paper / sim_stream.
void sim_end_to_end(const Options& options, LedgerGate& gate, Report& report);

/// Untraced end-to-end pass of serve_mix.
void serve_end_to_end(const Options& options, Report& report);

/// Traced pass: per-layer metrics of `options.workload`.
void layers(const Options& options, LedgerGate& gate, Report& report,
            Tracer& tracer);

/// serve.* per-layer metrics from `seconds` of traced sessions against a
/// fresh daemon.  With `untraced_first`, untraced and traced sessions
/// alternate and the drop in runs_per_s is returned as the tracing
/// overhead in percent (otherwise 0).
double serve_layers(const Options& options, double seconds,
                    bool untraced_first, Report& report, Tracer& tracer);

/// Peak resident set (VmHWM) of `pid` ("self" for this process), MB.
double peak_rss_mb(const std::string& pid);

/// Internal hook: the child half of sim_setup_seconds.
int setup_probe(const std::string& workload);

}  // namespace rdcnbench
