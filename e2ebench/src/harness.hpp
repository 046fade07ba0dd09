#pragma once
// Benchmark-side helpers: percentiles with a tail-sample rule, in-memory
// spans with self time, metric naming and the one-line JSON result.
//
// Everything here lives in the benchmark, not in the library: spans are
// recorded around calls into the library's public functions, so the
// library itself reads no clocks while it is measured.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Nearest-rank percentile of `samples` (p in (0, 100]); the samples need
/// not be sorted. Throws std::invalid_argument on an empty input.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it (so p90 needs >= 100 samples).
inline constexpr std::size_t kMinTailSamples = 10;
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// Fewest samples for which percentile_supported(n, p) holds.
[[nodiscard]] std::size_t min_samples_for(double p);

/// Metric names follow [A-Za-z0-9_.-]+, starting with a letter or digit,
/// at most 64 characters (the BENCHMARK.json naming rule).
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// One recorded interval. `parent` indexes the enclosing span (-1 for a
/// root); `job` is the job id the span belongs to (-1 when batch- or
/// round-level).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t job = -1;
};

/// Single-threaded span recorder. Disabled, it reads no clock and keeps
/// nothing, so the correctness replay can share the traced code path.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Open a span nested in the innermost open one; returns its id.
  int begin(const char* name, std::int64_t job = -1);
  void end(int id);
  /// Record an interval measured elsewhere (e.g. on another code path of
  /// the same thread) as a root span.
  void add_root(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t job = -1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] static std::int64_t now_ns();

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name, std::int64_t job = -1)
      : trace_(trace), id_(trace.begin(name, job)) {}
  ~ScopedSpan() { trace_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  int id_;
};

/// Per span: its duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    std::span<const Span> spans);

/// Self time and duration summed per span name.
struct NameTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    std::span<const Span> spans);

/// Sum of root-span durations: the traced time the layer shares divide.
[[nodiscard]] std::int64_t root_time_ns(std::span<const Span> spans);

/// Chrome trace-event JSON ("X" events, one track), for offline viewing.
[[nodiscard]] std::string chrome_trace_json(std::span<const Span> spans);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{
/// name: {"value": v, "unit": u}}}. Values print with 17 significant
/// digits. Throws std::invalid_argument on a bad metric name, unit or a
/// non-finite value.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::map<std::string, Metric>& m);

/// FNV-1a accumulator for the result digest.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(std::string_view s) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace e2e
