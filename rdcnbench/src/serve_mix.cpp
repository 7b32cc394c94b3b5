// serve_mix: a real rdcn_serve (--executors=2 --threads=1, journal and
// disk cache on) driven closed-loop with zero think time over four
// connections — three interactive tenants and one bulk tenant.  Closed
// loop because serve::Client is blocking: a caller waits for DONE.
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "process.hpp"
#include "serve/client.hpp"
#include "sim/report.hpp"

namespace rdcnbench {

namespace fs = std::filesystem;
using rdcn::serve::Client;
using rdcn::serve::ServerLine;

namespace {

constexpr int kInteractiveTenants = 3;
constexpr std::uint64_t kHotSpecs = 8;
// Interactive draw: hot-set repeat (a cache hit), fresh small spec (a cold
// run), or a STATS/METRICS scrape.
constexpr double kHotShare = 0.55;
constexpr double kColdShare = 0.40;
// No reply in this long means a wedged daemon: fail the run instead of
// outliving the benchmark's time limit.
constexpr long kReadTimeoutS = 60;

std::string small_spec(std::uint64_t seed) {
  return std::string("topology=fat_tree;workload=") +
         (seed % 2 == 0 ? "facebook_web" : "facebook_hadoop") +
         ";algorithms=r_bma,bma;b=8;racks=64;requests=20000;trials=2;seed=" +
         std::to_string(seed);
}

// 500k requests (25x a small spec) gives a few hundred ms per bulk run:
// long enough to hold an executor against the interactive runs, short
// enough that a run sees dozens of bulk cycles, whose phase sets how often
// cold runs get both executors.  With 2M requests only ~10 cycles fit and
// cold-run latency swung by 20% between runs.
std::string bulk_spec(std::uint64_t seed) {
  return "topology=fat_tree;workload=zipf;algorithms=r_bma,bma,oblivious;"
         "b=16;racks=100;requests=500000;trials=2;seed=" +
         std::to_string(seed);
}

std::uint64_t hot_seed(std::uint64_t seed, std::uint64_t i) {
  return seed * 1'000'003 + i;
}

/// Distinct per (session, tenant, counter) and never a hot seed.
std::uint64_t fresh_seed(std::uint64_t seed, std::uint64_t session,
                         std::uint64_t tenant, std::uint64_t counter) {
  return seed * 1'000'003 + 1'000 + (session << 40) + (tenant << 32) + counter;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

/// One RUN from write to DONE, with the wire timestamps of its phases.
struct RunRecord {
  std::string spec;
  bool bulk = false;
  std::uint64_t id = 0;
  std::int64_t sent = 0, accepted = 0, first_checkpoint = 0, result = 0,
               done = 0;
  bool cached = false;
  std::string status;  ///< DONE status, or "rejected" / "refused"
  std::string csv;
  std::string error;

  bool ok() const { return status == "ok"; }
  double latency_ms() const { return ms_between(sent, done); }
};

RunRecord run_once(Client& client, const std::string& spec, bool bulk) {
  RunRecord r;
  r.spec = spec;
  r.bulk = bulk;
  r.sent = now_ns();
  client.send_line("RUN " + spec);
  while (true) {
    const ServerLine line = rdcn::serve::parse_server_line(client.read_line());
    const std::int64_t t = now_ns();
    switch (line.kind) {
      case ServerLine::Kind::kAccepted:
        r.accepted = t;
        r.id = line.id;
        break;
      case ServerLine::Kind::kReject:
        r.status = "rejected";
        r.error = line.status;
        return r;
      case ServerLine::Kind::kError:
        r.error = line.text;
        if (r.accepted == 0) {
          r.status = "refused";
          return r;
        }
        break;
      case ServerLine::Kind::kCheckpoint:
        if (r.first_checkpoint == 0) r.first_checkpoint = t;
        break;
      case ServerLine::Kind::kResult:
        r.result = t;
        r.cached = line.cached;
        for (std::size_t i = 0; i < line.lines; ++i)
          r.csv += client.read_line() + "\n";
        break;
      case ServerLine::Kind::kDone:
        r.done = t;
        r.status = line.status;
        return r;
      default:
        break;
    }
  }
}

void add_run_spans(Tracer& tracer, const RunRecord& r) {
  if (!tracer.enabled() || !r.ok()) return;
  const std::int64_t root = tracer.add(r.bulk ? "serve.run.bulk" : "serve.run",
                                       r.sent, r.done, -1, r.id);
  tracer.add("serve.admission", r.sent, r.accepted, root, r.id);
  std::int64_t executor_start = r.accepted;
  if (r.first_checkpoint != 0) {
    tracer.add("serve.queue", r.accepted, r.first_checkpoint, root, r.id);
    executor_start = r.first_checkpoint;
  }
  if (!r.cached) tracer.add("serve.executor", executor_start, r.result, root, r.id);
  tracer.add("serve.payload", r.result, r.done, root, r.id);
}

/// A spawned rdcn_serve with its own socket, journal and disk cache under
/// one directory, removed again when this object goes away.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& name)
      : dir_(options.work_dir + "/" + name), socket_(dir_ + "/d.sock") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::int64_t start = now_ns();
    child_ = std::make_unique<Child>(
        std::vector<std::string>{options.daemon, "--socket=" + socket_,
                                 "--executors=2", "--threads=1",
                                 "--journal=" + dir_ + "/journal",
                                 "--disk-cache=" + dir_ + "/cache"},
        dir_ + "/stderr.log");
    const std::string banner = child_->read_line();
    if (banner.rfind("rdcn_serve listening", 0) != 0)
      throw std::runtime_error("daemon did not start: '" + banner + "'");
    Client client;
    client.connect(socket_, 10'000);
    client.ping();
    setup_seconds_ = static_cast<double>(now_ns() - start) * 1e-9;
  }
  ~Daemon() {
    try {
      stop();
    } catch (...) {
    }
    child_.reset();  // kills and reaps if stop() could not
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& dir() const { return dir_; }
  double setup_seconds() const { return setup_seconds_; }
  pid_t pid() const { return child_->pid(); }

  /// SHUTDOWN, then waits for the process to exit.
  void stop() {
    if (child_->pid() <= 0) return;
    {
      Client client;
      client.set_read_timeout_seconds(5);
      client.connect(socket_, 2'000);
      client.shutdown_daemon(false);
    }
    if (child_->wait(std::chrono::seconds(10)) != 0)
      throw std::runtime_error("daemon did not exit cleanly");
  }

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<Child> child_;
  double setup_seconds_ = 0;
};

struct Session {
  std::vector<RunRecord> runs;
  std::vector<double> stats_ms, metrics_ms, ping_us;
  double wall_s = 0;
};

void append(Session& into, Session from) {
  for (RunRecord& r : from.runs) into.runs.push_back(std::move(r));
  for (auto [to, add] : {std::pair{&into.stats_ms, &from.stats_ms},
                         std::pair{&into.metrics_ms, &from.metrics_ms},
                         std::pair{&into.ping_us, &from.ping_us}})
    to->insert(to->end(), add->begin(), add->end());
  into.wall_s += from.wall_s;
}

/// Submits the hot set once so the timed window sees it cached.
std::vector<RunRecord> warm_hot_set(const std::string& socket,
                                    std::uint64_t seed) {
  Client client;
  client.set_read_timeout_seconds(kReadTimeoutS);
  client.connect(socket);
  client.hello("warmup");
  std::vector<RunRecord> runs;
  for (std::uint64_t i = 0; i < kHotSpecs; ++i)
    runs.push_back(run_once(client, small_spec(hot_seed(seed, i)), false));
  return runs;
}

/// The closed-loop mix for `seconds`.  `session` salts the fresh seeds so
/// each session's cold runs are really cold.  A traced session adds a
/// PING probe connection and records spans.
Session run_session(const std::string& socket, std::uint64_t seed,
                    std::uint64_t session, double seconds, Tracer& tracer) {
  Session out;
  std::mutex mu;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::string> errors;

  const auto tenant_main = [&](int tenant) {
    std::vector<RunRecord> runs;
    std::vector<double> stats_ms, metrics_ms;
    try {
      Client client;
      client.set_read_timeout_seconds(kReadTimeoutS);
      client.connect(socket);
      const bool bulk = tenant == kInteractiveTenants;
      client.hello(bulk ? "bulk" : "t" + std::to_string(tenant));
      std::mt19937_64 rng(fresh_seed(seed, session, tenant, 0));
      std::uniform_real_distribution<double> draw(0.0, 1.0);
      std::uint64_t counter = 0;
      while (now_ns() < deadline) {
        if (bulk) {
          runs.push_back(run_once(
              client, bulk_spec(fresh_seed(seed, session, tenant, ++counter)),
              true));
          continue;
        }
        const double u = draw(rng);
        if (u < kHotShare) {
          runs.push_back(run_once(
              client, small_spec(hot_seed(seed, rng() % kHotSpecs)), false));
        } else if (u < kHotShare + kColdShare) {
          runs.push_back(run_once(
              client, small_spec(fresh_seed(seed, session, tenant, ++counter)),
              false));
        } else {
          const bool metrics = rng() % 2 == 0;
          const std::int64_t t0 = now_ns();
          if (metrics) client.metrics(); else client.stats();
          const std::int64_t t1 = now_ns();
          (metrics ? metrics_ms : stats_ms).push_back(ms_between(t0, t1));
          tracer.add(metrics ? "serve.scrape.metrics" : "serve.scrape.stats",
                     t0, t1);
        }
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu);
      errors.push_back(e.what());
    }
    for (const RunRecord& r : runs) add_run_spans(tracer, r);
    const std::lock_guard<std::mutex> lock(mu);
    for (RunRecord& r : runs) out.runs.push_back(std::move(r));
    out.stats_ms.insert(out.stats_ms.end(), stats_ms.begin(), stats_ms.end());
    out.metrics_ms.insert(out.metrics_ms.end(), metrics_ms.begin(),
                          metrics_ms.end());
  };
  const auto ping_main = [&] {
    try {
      Client client;
      client.set_read_timeout_seconds(kReadTimeoutS);
      client.connect(socket);
      while (now_ns() < deadline) {
        const std::int64_t t0 = now_ns();
        client.ping();
        const std::int64_t t1 = now_ns();
        tracer.add("serve.protocol.ping", t0, t1);
        out.ping_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu);
      errors.push_back(e.what());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t <= kInteractiveTenants; ++t)
    threads.emplace_back(tenant_main, t);
  std::thread ping;
  if (tracer.enabled()) ping = std::thread(ping_main);
  for (std::thread& t : threads) t.join();
  if (ping.joinable()) ping.join();
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  if (!errors.empty()) throw std::runtime_error("serve session: " + errors[0]);
  return out;
}

/// Every run must end ok.  Each executed run's CSV must equal an
/// in-process run_scenario + write_csv of its spec; each cache hit must
/// equal its executed original.  Runs outside any timed window.
void check_runs(const std::vector<const RunRecord*>& runs, Report& report) {
  std::map<std::string, const RunRecord*> originals;
  std::vector<const RunRecord*> executed;
  for (const RunRecord* r : runs) {
    if (r->ok() && !r->cached) {
      executed.push_back(r);
      originals.emplace(r->spec, r);
    }
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < executed.size(); i = next++) {
      const RunRecord& r = *executed[i];
      try {
        rdcn::scenario::ScenarioSpec spec =
            rdcn::scenario::ScenarioSpec::parse(r.spec);
        spec.threads = 1;
        std::ostringstream csv;
        rdcn::sim::write_csv(csv, rdcn::scenario::run_scenario(spec).runs,
                             rdcn::sim::Metric::kRoutingCost);
        const CsvDiff diff = compare_csv(csv.str(), r.csv);
        if (!diff.equal)
          report.fail("run " + std::to_string(r.id) +
                      " CSV differs from the direct call at line " +
                      std::to_string(diff.line) + ": '" + diff.actual_line +
                      "' != '" + diff.expected_line + "'");
      } catch (const std::exception& e) {
        report.fail("run " + std::to_string(r.id) + " direct call: " + e.what());
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  for (const RunRecord* r : runs) {
    report.attempt();
    if (!r->ok()) {
      report.fail("run " + std::to_string(r->id) + " ended " + r->status +
                  (r->error.empty() ? "" : " (" + r->error + ")"));
    } else if (r->cached) {
      const auto it = originals.find(r->spec);
      if (it == originals.end())
        report.fail("cache hit without an executed original: " + r->spec);
      else if (!compare_csv(it->second->csv, r->csv).equal)
        report.fail("cache hit " + std::to_string(r->id) +
                    " differs from run " + std::to_string(it->second->id));
    }
  }
}

std::vector<double> latencies(const std::vector<RunRecord>& runs,
                              bool bulk, bool cached) {
  std::vector<double> out;
  for (const RunRecord& r : runs)
    if (r.ok() && r.bulk == bulk && r.cached == cached)
      out.push_back(r.latency_ms());
  return out;
}

std::uint64_t dir_bytes(const std::string& dir, std::size_t* files) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    bytes += e.file_size();
    if (files != nullptr) ++*files;
  }
  return bytes;
}

void add_percentiles(Report& report, const std::string& name,
                     const std::vector<double>& values, double p,
                     const std::string& unit = "ms") {
  report.add(name, unit, percentile(values, p), values.size());
}

}  // namespace

SimWorkload serve_mix_workload(std::uint64_t seed) {
  SimWorkload w;
  w.name = "serve_mix";
  for (const std::string& text :
       {small_spec(hot_seed(seed, 0)), bulk_spec(fresh_seed(seed, 0, 0, 0))}) {
    rdcn::scenario::ScenarioSpec spec =
        rdcn::scenario::ScenarioSpec::parse(text).resolved();
    spec.threads = 4;
    w.specs.push_back(spec);
  }
  return w;
}

void serve_end_to_end(const Options& options, Report& report) {
  // The daemon's start fsyncs its journal; flush what earlier work left
  // pending on this filesystem (a previous run deletes thousands of cache
  // files) so that setup_s measures the daemon, not that backlog.
  fs::create_directories(options.work_dir);
  if (const int dir = ::open(options.work_dir.c_str(), O_RDONLY | O_CLOEXEC);
      dir >= 0) {
    ::syncfs(dir);
    ::close(dir);
  }
  std::vector<double> setup;
  for (int i = 0; i < 14; ++i) {
    Daemon probe(options, "setup" + std::to_string(i));
    setup.push_back(probe.setup_seconds());
  }
  Daemon daemon(options, "mix");
  setup.push_back(daemon.setup_seconds());

  const std::vector<RunRecord> warm = warm_hot_set(daemon.socket(), options.seed);
  Tracer off(false);
  const Session s = run_session(daemon.socket(), options.seed, 1,
                                options.seconds, off);
  const double rss = peak_rss_mb(std::to_string(daemon.pid()));
  daemon.stop();

  std::vector<const RunRecord*> all;
  for (const RunRecord& r : warm) all.push_back(&r);
  for (const RunRecord& r : s.runs) all.push_back(&r);
  check_runs(all, report);

  std::uint64_t replayed = 0;
  std::size_t ok = 0;
  for (const RunRecord& r : s.runs) {
    if (!r.ok()) continue;
    ++ok;
    if (!r.cached)
      replayed += replayed_requests(
          rdcn::scenario::ScenarioSpec::parse(r.spec).resolved());
  }
  const std::vector<double> cold = latencies(s.runs, false, false);
  const std::vector<double> hits = latencies(s.runs, false, true);
  const std::vector<double> bulk = latencies(s.runs, true, false);
  report.add("setup_s", "s", median(setup), setup.size(),
             "spawn to first PONG");
  report.add("replay_mreq_per_s", "Mreq/s",
             static_cast<double>(replayed) / s.wall_s / 1e6, ok,
             "executed runs' requests over the window");
  report.add("peak_rss_mb", "MB", rss, 1, "daemon VmHWM");
  add_percentiles(report, "cold_run_p50_ms", cold, 50);
  report.info("runs_per_s", "1/s", static_cast<double>(ok) / s.wall_s, ok);
  report.info("cold_run_p90_ms", "ms", percentile(cold, 90), cold.size());
  report.info("cache_hit_p50_ms", "ms", percentile(hits, 50), hits.size());
  report.info("cache_hit_p99_ms", "ms", percentile(hits, 99), hits.size());
  report.info("bulk_run_p50_ms", "ms", percentile(bulk, 50), bulk.size());
}

double serve_layers(const Options& options, double seconds,
                    bool untraced_first, Report& report, Tracer& tracer) {
  Daemon daemon(options, "layers");
  const std::vector<RunRecord> warm = warm_hot_set(daemon.socket(), options.seed);
  // With a tracing-cost comparison, untraced and traced sessions alternate
  // so that drift on the machine hits both.
  Tracer off(false);
  Session plain, s;
  const int rounds = untraced_first ? 2 : 1;
  for (int r = 0; r < rounds; ++r) {
    if (untraced_first)
      append(plain, run_session(daemon.socket(), options.seed, 2 + 2 * r,
                                seconds / rounds, off));
    append(s, run_session(daemon.socket(), options.seed, 3 + 2 * r,
                          seconds / rounds, tracer));
  }
  rdcn::serve::StatsReport stats;
  {
    Client client;
    client.connect(daemon.socket());
    stats = client.stats_report();
  }
  daemon.stop();
  std::size_t cache_files = 0;
  const std::uint64_t journal = dir_bytes(daemon.dir() + "/journal", nullptr);
  const std::uint64_t cache = dir_bytes(daemon.dir() + "/cache", &cache_files);

  std::vector<const RunRecord*> all;
  for (const RunRecord& r : warm) all.push_back(&r);
  for (const RunRecord& r : plain.runs) all.push_back(&r);
  for (const RunRecord& r : s.runs) all.push_back(&r);
  check_runs(all, report);

  std::vector<double> accept, queue, run, bulk_run, send;
  std::size_t rejected = 0;
  std::size_t executed = 0;
  for (const RunRecord* r : all) executed += r->ok() && !r->cached;
  for (const RunRecord& r : s.runs) {
    if (r.status == "rejected") ++rejected;
    if (!r.ok()) continue;
    accept.push_back(ms_between(r.sent, r.accepted));
    send.push_back(ms_between(r.result, r.done));
    if (r.cached || r.first_checkpoint == 0) continue;
    (r.bulk ? bulk_run : run)
        .push_back(ms_between(r.first_checkpoint, r.result));
    if (!r.bulk) queue.push_back(ms_between(r.accepted, r.first_checkpoint));
  }

  // The bulk spec in-process on one thread: what the daemon adds on top.
  rdcn::scenario::ScenarioSpec bulk =
      rdcn::scenario::ScenarioSpec::parse(bulk_spec(fresh_seed(options.seed, 3, 0, 0)));
  bulk.threads = 1;
  ScopedSpan direct_span(tracer, "serve.direct.bulk");
  std::ostringstream csv;
  rdcn::sim::write_csv(csv, rdcn::scenario::run_scenario(bulk).runs,
                       rdcn::sim::Metric::kRoutingCost);
  const double direct_ms = direct_span.finish() * 1e3;
  const std::vector<double> bulk_lat = latencies(s.runs, true, false);
  const std::vector<double> hits = latencies(s.runs, false, true);

  add_percentiles(report, "serve.protocol.ping_rtt_us_p50", s.ping_us, 50, "us");
  add_percentiles(report, "serve.admission.accept_ms_p50", accept, 50);
  report.add("serve.admission.rejected", "count",
             static_cast<double>(rejected), s.runs.size());
  add_percentiles(report, "serve.queue.wait_ms_p50", queue, 50);
  add_percentiles(report, "serve.queue.wait_ms_p90", queue, 90);
  add_percentiles(report, "serve.executor.run_ms_p50", run, 50);
  add_percentiles(report, "serve.executor.bulk_run_ms_p50", bulk_run, 50);
  add_percentiles(report, "serve.payload.send_ms_p50", send, 50);
  report.add("serve.direct.bulk_ms", "ms", direct_ms, 1);
  report.add("serve.overhead.bulk_ms", "ms",
             percentile(bulk_lat, 50) - direct_ms, bulk_lat.size());
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  report.add("serve.cache.hit_ratio", "ratio",
             lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0,
             static_cast<std::size_t>(lookups));
  add_percentiles(report, "serve.scrape.stats_ms_p50", s.stats_ms, 50);
  add_percentiles(report, "serve.scrape.metrics_ms_p50", s.metrics_ms, 50);
  report.add("serve.journal.bytes_per_run", "B",
             executed > 0 ? static_cast<double>(journal) / executed : 0, executed);
  report.add("serve.disk_cache.bytes_per_entry", "B",
             cache_files > 0 ? static_cast<double>(cache) / cache_files : 0,
             cache_files);
  add_percentiles(report, "serve.mix.cache_hit_p50_ms", hits, 50);
  add_percentiles(report, "serve.mix.cache_hit_p99_ms", hits, 99);
  add_percentiles(report, "serve.mix.bulk_run_p50_ms", bulk_lat, 50);

  if (!untraced_first) return 0;
  const auto rate = [](const Session& x) {
    std::size_t ok = 0;
    for (const RunRecord& r : x.runs) ok += r.ok();
    return static_cast<double>(ok) / x.wall_s;
  };
  return (rate(plain) - rate(s)) / rate(plain) * 100.0;
}

}  // namespace rdcnbench
