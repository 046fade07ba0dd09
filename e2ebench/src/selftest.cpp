// Self-tests for the benchmark's helpers (harness.hpp). Exits non-zero when
// any expectation fails. The last stdout line is a result_json() document
// that `run.py --selftest` parses back with Python's json module.

#include <cmath>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile() {
  const std::vector<double> v = {5, 1, 3, 2, 4};
  expect(e2e::percentile(v, 50.0) == 3.0, "median of 1..5 is 3");
  expect(e2e::percentile(v, 100.0) == 5.0, "p100 is the maximum");
  expect(e2e::percentile(v, 1.0) == 1.0, "p1 of five samples is the minimum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(e2e::percentile(hundred, 90.0) == 90.0, "nearest-rank p90 of 1..100");
  expect(e2e::samples_beyond(100, 90.0) == 10, "ten samples beyond p90 of 100");
  expect(e2e::percentile_supported(100, 90.0), "p90 supported at n = 100");
  expect(!e2e::percentile_supported(99, 90.0), "p90 unsupported at n = 99");
  expect(!e2e::percentile_supported(0, 50.0), "nothing supported at n = 0");
  expect(e2e::min_samples_for(90.0) == 100, "p90 needs 100 samples");
  expect(e2e::min_samples_for(50.0) == 20, "p50 needs 20 samples");
  expect(e2e::min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  expect(throws([] { (void)e2e::percentile(std::vector<double>{}, 50.0); }),
         "empty input throws");
  expect(throws([&] { (void)e2e::percentile(v, 0.0); }), "p = 0 throws");
}

void test_self_time() {
  // parent [0, 100] with children [10, 30], [20, 40] (overlapping) and
  // [90, 120] (runs past the parent): covered = [10, 40] + [90, 100].
  std::vector<e2e::Span> spans = {
      {"parent", 0, 100, -1, -1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 40, 0, 2},
      {"c", 90, 120, 0, 3},
      {"grandchild", 12, 18, 1, 1},
  };
  const std::vector<std::int64_t> self = e2e::self_times_ns(spans);
  expect(self[0] == 60, "parent self time excludes the union of children");
  expect(self[1] == 14, "child self time excludes its own child");
  expect(self[2] == 20 && self[3] == 30, "leaf self time is its duration");
  expect(self[4] == 6, "grandchild self time");
  expect(e2e::root_time_ns(spans) == 100, "root time sums root spans");
  const auto totals = e2e::totals_by_name(spans);
  expect(totals.at("parent").self_ns == 60 &&
             totals.at("parent").total_ns == 100 && totals.at("a").self_ns == 14,
         "totals by name");

  e2e::Trace trace(true);
  {
    const e2e::ScopedSpan outer(trace, "outer");
    const e2e::ScopedSpan inner(trace, "inner", 7);
  }
  trace.add_root("later", 1, 2);
  expect(trace.spans().size() == 3, "recorded three spans");
  expect(trace.spans()[1].parent == 0 && trace.spans()[1].job == 7,
         "inner span nests in outer and keeps its job id");
  expect(trace.spans()[2].parent == -1, "add_root records a root");
  expect(trace.spans()[0].end_ns >= trace.spans()[1].end_ns,
         "outer closes after inner");

  e2e::Trace off(false);
  { const e2e::ScopedSpan s(off, "ignored"); }
  off.add_root("ignored", 1, 2);
  expect(off.spans().empty(), "a disabled trace records nothing");
}

void test_names() {
  for (const char* ok : {"jobs_per_s", "sim.sample_ms_per_batch",
                         "service.route_share.ibmq_toronto27", "9-a_b.c"}) {
    expect(e2e::valid_metric_name(ok), std::string("valid name ") + ok);
  }
  for (const char* bad : {"", ".lead", "-lead", "has space", "a/b", "a:b",
                          "caf\xc3\xa9", "quote\""}) {
    expect(!e2e::valid_metric_name(bad), std::string("invalid name ") + bad);
  }
  expect(e2e::valid_metric_name(std::string(64, 'a')), "64 characters ok");
  expect(!e2e::valid_metric_name(std::string(65, 'a')), "65 characters bad");
}

std::string test_json() {
  std::map<std::string, e2e::Metric> m;
  m["latency_ms"] = {0.1 + 0.2, "ms"};
  m["jobs_per_s"] = {12345.678901234567, "1/s"};
  m["share.x"] = {1e-300, "ratio"};
  const std::string json = e2e::result_json(true, 1000, 0, m);
  expect(json.find("\"correct\": true") != std::string::npos, "correct key");
  expect(json.find("0.30000000000000004") != std::string::npos,
         "values keep all 17 significant digits");

  std::map<std::string, e2e::Metric> bad_name = {{"bad name", {1.0, "s"}}};
  expect(throws([&] { (void)e2e::result_json(true, 1, 0, bad_name); }),
         "bad metric name throws");
  std::map<std::string, e2e::Metric> bad_unit = {{"x", {1.0, "a unit"}}};
  expect(throws([&] { (void)e2e::result_json(true, 1, 0, bad_unit); }),
         "bad unit throws");
  std::map<std::string, e2e::Metric> nan = {
      {"x", {std::numeric_limits<double>::quiet_NaN(), "s"}}};
  expect(throws([&] { (void)e2e::result_json(true, 1, 0, nan); }),
         "non-finite value throws");
  return json;
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_names();
  const std::string json = test_json();
  if (failures != 0) {
    std::cerr << failures << " self-test expectation(s) failed\n";
    return 1;
  }
  std::cout << "selftest: all expectations hold\n" << json << std::endl;
  return 0;
}
