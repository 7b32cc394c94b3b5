// Tests of the benchmark's own helpers (harness.hpp).  Exits non-zero on
// the first failed expectation.  Run with `python3 rdcnbench/run.py
// --selftest`.
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace {

using namespace rdcnbench;

int failures = 0;

#define EXPECT(cond)                                               \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: EXPECT(%s)\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                  \
    }                                                              \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  EXPECT(percentile(one_to(10), 50) == 5);
  EXPECT(percentile(one_to(100), 90) == 90);
  EXPECT(percentile(one_to(100), 99) == 99);
  EXPECT(percentile(one_to(1), 99) == 1);
  EXPECT(percentile({}, 50) == 0);
  EXPECT(median({3, 1, 2}) == 2);
  // The highest percentile with at least ten samples beyond its rank.
  EXPECT(tail_percentile(19) == 0);
  EXPECT(tail_percentile(20) == 50);
  EXPECT(tail_percentile(99) == 50);
  EXPECT(tail_percentile(100) == 90);
  EXPECT(tail_percentile(999) == 90);
  EXPECT(tail_percentile(1000) == 99);
  EXPECT(tail_percentile(10000) == 99.9);
}

void span_self_time() {
  // root [0,100] ms with children [10,30] and [20,50] (overlapping, from
  // two threads) and [60,70]; grandchild [62,66] under the last one.
  const auto ms = [](double v) { return static_cast<std::int64_t>(v * 1e6); };
  const std::vector<Span> spans = {
      {"root", ms(0), ms(100), -1, 0},   {"a", ms(10), ms(30), 0, 0},
      {"b", ms(20), ms(50), 0, 0},       {"c", ms(60), ms(70), 0, 0},
      {"c.inner", ms(62), ms(66), 3, 0},
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT(std::abs(self[0] - 50) < 1e-9);  // 100 - |[10,50] ∪ [60,70]|
  EXPECT(std::abs(self[1] - 20) < 1e-9);
  EXPECT(std::abs(self[2] - 30) < 1e-9);
  EXPECT(std::abs(self[3] - 6) < 1e-9);
  EXPECT(std::abs(self[4] - 4) < 1e-9);

  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer");
    ScopedSpan inner(tracer, "inner");
  }
  const std::vector<Span> recorded = tracer.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == 0);
  EXPECT(spans_json(recorded).find("\"name\": \"inner\"") != std::string::npos);

  Tracer off(false);
  ScopedSpan quiet(off, "ignored");
  EXPECT(quiet.finish() >= 0);
  EXPECT(off.spans().empty());
}

void csv_identity() {
  const std::string a = "requests,x\n10,1\n20,2\n";
  EXPECT(compare_csv(a, a).equal);
  const CsvDiff d = compare_csv(a, "requests,x\n10,1\n20,3\n");
  EXPECT(!d.equal);
  EXPECT(d.line == 3);
  EXPECT(d.expected_line == "20,2");
  EXPECT(d.actual_line == "20,3");
  EXPECT(!compare_csv(a, a + "30,3\n").equal);  // extra row
  EXPECT(!compare_csv(a, "").equal);
}

void ledger_gate() {
  const std::string key = "sim_paper facebook_db r_bma(b=4) 42";
  const AnchorTable good =
      parse_anchors("# comment\n" + key + " 100 120 1 1\n");
  const Ledger ledger{100, 120, 220, 1, 1};
  EXPECT(check_ledger(ledger, 60, &good, key).empty());
  EXPECT(check_ledger(ledger, 60, nullptr, key).empty());
  EXPECT(anchor_line(key, ledger) == key + " 100 120 1 1");

  // A corrupted anchor, a missing anchor and a broken identity all fail.
  const AnchorTable corrupt = parse_anchors(key + " 101 120 1 1\n");
  EXPECT(!check_ledger(ledger, 60, &corrupt, key).empty());
  EXPECT(!check_ledger(ledger, 60, &good, "sim_paper microsoft bma(b=4) 42")
              .empty());
  EXPECT(!check_ledger({100, 120, 221, 1, 1}, 60, nullptr, key).empty());
  EXPECT(!check_ledger({100, 60, 160, 1, 0}, 61, nullptr, key).empty());
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  csv_identity();
  ledger_gate();
  std::printf("rdcnbench selftest: %s (%d failed expectations)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
