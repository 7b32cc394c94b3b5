// rdcnbench — end-to-end and per-layer benchmark of rdcn.
//
//   rdcnbench --workload=sim_paper|sim_stream|serve_mix --seed=N
//             --seconds=S --trace=0|1 --daemon=PATH --work-dir=DIR
//             --out-dir=DIR --anchors=FILE [--anchors-out=FILE]
//
// Prints each metric by name with its unit and sample count, then as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any check failed, 2 on a usage or setup error.  Normally
// started through run.py, which builds it and cleans up after it.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "common/flags.hpp"

namespace {

using namespace rdcnbench;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `digits` significant digits; the JSON gets every digit of the double.
std::string number(double value, int digits = 10) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits,
                std::isfinite(value) ? value : 0.0);
  return buf;
}

void print_metric(const Report::Metric& m, const char* tag) {
  std::printf("  %-40s %14s %-7s n=%-6zu %s%s\n", m.name.c_str(),
              number(m.value).c_str(), m.unit.c_str(), m.n, tag,
              m.note.c_str());
}

/// Self time per span name, largest first.
void print_self_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].first += self[i];
    ++by_name[spans[i].name].second;
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, v] : by_name) order.emplace_back(v.first, name);
  std::sort(order.rbegin(), order.rend());
  std::printf("  self time by span (ms, from %zu spans):\n", spans.size());
  for (std::size_t i = 0; i < order.size() && i < 30; ++i)
    std::printf("    %-40s %12.3f  x%zu\n", order[i].second.c_str(),
                order[i].first, by_name[order[i].second].second);
}

int run(const Options& options) {
  const bool sim = options.workload == "sim_paper" ||
                   options.workload == "sim_stream";
  if (!sim && options.workload != "serve_mix")
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  std::printf("rdcnbench workload=%s seed=%llu trace=%d seconds=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, number(options.seconds).c_str());

  // Golden ledgers hold for the default seed of the in-process workloads.
  AnchorTable anchors;
  const bool anchored = sim && options.seed == kDefaultSeed &&
                        options.anchors_out.empty();
  if (anchored) anchors = parse_anchors(read_file(options.anchors));
  Report report;
  LedgerGate gate(anchored ? &anchors : nullptr, report);
  Tracer tracer(options.trace);

  if (options.trace) layers(options, gate, report, tracer);
  else if (sim) sim_end_to_end(options, gate, report);
  else serve_end_to_end(options, report);

  const std::uint64_t attempted = report.attempted();
  const std::uint64_t failed = report.failed();
  std::printf("  attempted=%llu succeeded=%llu failed=%llu error_rate=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - failed),
              static_cast<unsigned long long>(failed),
              number(attempted ? double(failed) / double(attempted) : 0).c_str());
  for (const Report::Metric& m : report.metrics()) print_metric(m, "");
  for (const Report::Metric& m : report.infos()) print_metric(m, "(not gated) ");
  for (const std::string& f : report.failures())
    std::printf("  FAILED: %s\n", f.c_str());

  if (options.trace) {
    const std::vector<Span> spans = tracer.spans();
    print_self_times(spans);
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/spans_" + options.workload +
                             "_seed" + std::to_string(options.seed) + ".json";
    std::ofstream(path) << spans_json(spans);
    std::printf("  spans written to %s\n", path.c_str());
  }
  if (!options.anchors_out.empty()) {
    std::ofstream out(options.anchors_out, std::ios::app);
    for (const auto& [key, ledger] : gate.seen())
      out << anchor_line(key, ledger) << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Report::Metric& m : report.metrics()) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << number(m.value, 17) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const rdcn::Flags flags(argc, argv);
  try {
    if (flags.has("setup-probe")) return setup_probe(flags.get("setup-probe"));
    Options options;
    options.workload = flags.get("workload", "");
    options.seed = flags.get_uint("seed", kDefaultSeed);
    options.seconds = flags.get_double("seconds", 10);
    options.trace = flags.get_uint("trace", 0) != 0;
    options.daemon = flags.get("daemon", "");
    options.work_dir = flags.get("work-dir", ".bench_tmp");
    options.out_dir = flags.get("out-dir", ".bench_out");
    options.anchors = flags.get("anchors", "");
    options.anchors_out = flags.get("anchors-out", "");
    return run(options);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "rdcnbench: %s\n", e.what());
    return 2;
  }
}
