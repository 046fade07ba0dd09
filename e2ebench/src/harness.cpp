#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <regex>
#include <stdexcept>

namespace e2e {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p outside (0, 100]");
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

bool valid_metric_name(std::string_view name) {
  static const std::regex kName("[A-Za-z0-9][A-Za-z0-9_.-]*");
  return name.size() <= 64 &&
         std::regex_match(name.begin(), name.end(), kName);
}

std::int64_t Trace::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Trace::begin(const char* name, std::int64_t job) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.job = job;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Trace::end(int id) {
  if (!enabled_) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();  // ScopedSpan closes innermost-first
}

void Trace::add_root(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t job) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start_ns, end_ns, -1, job});
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
  }
  return out;
}

std::int64_t root_time_ns(std::span<const Span> spans) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

std::string chrome_trace_json(std::span<const Span> spans) {
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"job\":%lld}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<int>(s.parent), static_cast<long long>(s.job));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  static const std::regex kUnit("[A-Za-z0-9_/%.-]{1,16}");
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument("result_json: bad metric name '" + name +
                                  "'");
    }
    if (!std::regex_match(m.unit, kUnit)) {
      throw std::invalid_argument("result_json: bad unit '" + m.unit +
                                  "' for " + name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("result_json: non-finite value for " + name);
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(std::string_view s) noexcept {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

}  // namespace e2e
