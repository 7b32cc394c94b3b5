// rdcnbench helpers that carry the benchmark's rules: the percentile rule,
// in-memory spans with self time, the CSV byte-identity comparator, and the
// ledger gate (cost identity + golden anchors).  Header-only so the
// self-test links nothing but this file.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace rdcnbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// 1-based nearest rank of percentile p among n samples (the epsilon
/// keeps 99.9% of 10000 at 9990 despite rounding).
inline std::size_t nearest_rank(double p, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t k =
      std::clamp<std::size_t>(nearest_rank(p, values.size()), 1, values.size());
  return values[k - 1];
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
/// its nearest rank among `n` samples; 0 when not even the median has.
inline double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    if (n >= nearest_rank(p, n) + 10) best = p;
  return best;
}

// ---------------------------------------------------------------------------
// Spans

/// One timed interval around a call into a layer.  `parent` indexes the
/// span that caused it (-1 = root); `group` ties together the spans of one
/// request (a serve run id; 0 when there is no request).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t group = 0;
};

/// Thread-safe in-memory span store.  A disabled tracer records nothing,
/// which is how the untraced runs stay free of instrumentation.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (-1 when disabled).
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t group = 0) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, group});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  std::int64_t open(std::string name, std::int64_t parent) {
    return add(std::move(name), now_ns(), 0, parent);
  }
  void close(std::int64_t index) {
    if (index < 0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; nested ScopedSpans on the same thread
/// become children.  Also measures its duration when tracing is off, so
/// callers read elapsed times from one place either way.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), parent_(current()), start_(now_ns()) {
    index_ = tracer_.open(std::move(name), parent_);
    if (index_ >= 0) current() = index_;
  }
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent); returns its length in seconds.
  double finish() {
    if (end_ == 0) {
      end_ = now_ns();
      tracer_.close(index_);
      if (index_ >= 0) current() = parent_;
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  static std::int64_t& current() {
    thread_local std::int64_t open_span = -1;
    return open_span;
  }

  Tracer& tracer_;
  std::int64_t parent_;
  std::int64_t index_ = -1;
  std::int64_t start_;
  std::int64_t end_ = 0;
};

/// Self time per span: its duration minus the part of its interval that
/// the union of its children covers.
inline std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// The span list as JSON (times relative to the first span's start).
inline std::string spans_json(const std::vector<Span>& spans) {
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::ostringstream out;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << ", \"group\": " << s.group << "}";
  }
  out << "\n]}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// CSV byte identity

struct CsvDiff {
  bool equal = true;
  std::size_t offset = 0;  ///< first differing byte
  std::size_t line = 0;    ///< 1-based line holding that byte
  std::string expected_line;
  std::string actual_line;
};

inline CsvDiff compare_csv(const std::string& expected,
                           const std::string& actual) {
  CsvDiff diff;
  if (expected == actual) return diff;
  diff.equal = false;
  const std::size_t limit = std::min(expected.size(), actual.size());
  while (diff.offset < limit && expected[diff.offset] == actual[diff.offset])
    ++diff.offset;
  diff.line = 1 + static_cast<std::size_t>(std::count(
                      expected.begin(),
                      expected.begin() + static_cast<std::ptrdiff_t>(diff.offset),
                      '\n'));
  const auto line_at = [&](const std::string& text) {
    const std::size_t begin =
        diff.offset == 0 ? 0 : text.rfind('\n', diff.offset - 1) + 1;
    const std::size_t end = text.find('\n', begin);
    return text.substr(begin, end == std::string::npos ? end : end - begin);
  };
  diff.expected_line = line_at(expected);
  diff.actual_line = line_at(actual);
  return diff;
}

// ---------------------------------------------------------------------------
// Ledger gate

/// Final cost ledger of one (algorithm, b, trial) task.
struct Ledger {
  std::uint64_t routing = 0;
  std::uint64_t reconfig = 0;
  std::uint64_t total = 0;
  std::uint64_t adds = 0;
  std::uint64_t removals = 0;
};

/// Golden final ledgers keyed "<workload> <scenario> <label> <seed>",
/// parsed from lines "<key fields...> routing reconfig adds removals".
using AnchorTable = std::map<std::string, Ledger>;

inline AnchorTable parse_anchors(const std::string& text) {
  AnchorTable table;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scenario, label, seed;
    Ledger l;
    if (fields >> workload >> scenario >> label >> seed >> l.routing >>
        l.reconfig >> l.adds >> l.removals) {
      l.total = l.routing + l.reconfig;
      table[workload + " " + scenario + " " + label + " " + seed] = l;
    }
  }
  return table;
}

inline std::string anchor_line(const std::string& key, const Ledger& l) {
  return key + " " + std::to_string(l.routing) + " " +
         std::to_string(l.reconfig) + " " + std::to_string(l.adds) + " " +
         std::to_string(l.removals);
}

/// Empty when `ledger` passes: total = routing + reconfig and reconfig =
/// α·(adds + removals) always, and equality with its anchor when
/// `anchors` is given (the default seed).  Otherwise the reason.
inline std::string check_ledger(const Ledger& ledger, std::uint64_t alpha,
                                const AnchorTable* anchors,
                                const std::string& key) {
  if (ledger.total != ledger.routing + ledger.reconfig)
    return "total != routing + reconfig";
  if (ledger.reconfig != alpha * (ledger.adds + ledger.removals))
    return "reconfig != alpha * (adds + removals)";
  if (anchors == nullptr) return "";
  const auto it = anchors->find(key);
  if (it == anchors->end()) return "no anchor";
  const Ledger& a = it->second;
  if (a.routing != ledger.routing || a.reconfig != ledger.reconfig ||
      a.adds != ledger.adds || a.removals != ledger.removals)
    return "differs from anchor '" + anchor_line(key, a) + "'";
  return "";
}

}  // namespace rdcnbench
