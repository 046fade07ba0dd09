// End-to-end job benchmark for the ExecutionService.
//
//   e2e_bench --workload <table2_mix|vqe_sweep_8q|fleet_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// One process, one submitting thread. The client builds each round's
// circuits from the seed, submits them through the service's public API,
// flushes and waits for every result (a closed loop: the next round starts
// only after the last result of this one). Set-up — service construction
// plus one warm-up round — is timed separately, several times, and the
// median reported. Timed rounds run for --seconds and at least until the
// p90 round time is supported by ten samples beyond it.
//
// Every run is checked: every job reaches Done, every count total equals
// the shots, a single-threaded replay through the public stage functions
// (replay.hpp) reproduces each replayed batch's placement, partitions,
// swaps and counts, and the result digest changes under another seed.
// --trace 0 prints the end-to-end metrics; --trace 1 replays more rounds
// with spans on and prints the per-layer metrics instead. The last stdout
// line is the JSON result; the exit code is 0 only when every check holds.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "sim/kernels.hpp"
#include "workloads.hpp"

namespace {

using e2e::Metric;
using e2e::Trace;
using qucp::Circuit;
using qucp::JobResult;

constexpr int kSetupRepeats = 7;
// Timed rounds the replay covers: the first one in every run (the
// correctness check), the first six with --trace 1.
constexpr std::size_t kCheckedRounds = 1;
constexpr std::size_t kTracedRounds = 6;
constexpr double kRoundPercentile = 90.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have[3] = true;
    } else if (key == "--trace-file") {
      a.trace_file = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-file <path>]");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<qucp::ExecutionService> make_service(
    const e2e::WorkloadSpec& spec) {
  return std::make_unique<qucp::ExecutionService>(
      qucp::BackendRegistry(e2e::make_backends(spec)), spec.options);
}

/// One round's submission calls as measured by the client (trace mode).
struct SubmitCall {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Submit a round, flush, and wait for every result. Returns the handles.
std::vector<qucp::JobHandle> run_round(qucp::ExecutionService& svc,
                                       const e2e::WorkloadSpec& spec,
                                       std::vector<Circuit> circuits,
                                       std::vector<SubmitCall>* calls) {
  std::vector<qucp::JobHandle> handles;
  if (spec.submit_all) {
    const std::int64_t t0 = calls ? Trace::now_ns() : 0;
    handles = svc.submit_all(std::move(circuits));
    if (calls) calls->push_back({t0, Trace::now_ns()});
  } else {
    handles.reserve(circuits.size());
    for (Circuit& c : circuits) {
      const std::int64_t t0 = calls ? Trace::now_ns() : 0;
      handles.push_back(svc.submit(std::move(c)));
      if (calls) calls->push_back({t0, Trace::now_ns()});
    }
  }
  svc.flush();
  for (const qucp::JobHandle& h : handles) h.wait();
  return handles;
}

/// Running totals over the timed rounds, plus the correctness verdict.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  double pst_sum = 0.0;
  double jsd_sum = 0.0;
  std::uint64_t scored = 0;
  double throughput_sum = 0.0;  ///< per batch
  double runtime_reduction_sum = 0.0;
  std::uint64_t batches = 0;

  void problem(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
};

/// Collect one round's results: checks (Done, count totals), metric sums
/// and the round digest. Returns the results in submission order (a
/// default JobResult stands in for a failed job).
std::vector<JobResult> collect(const std::vector<qucp::JobHandle>& handles,
                               const std::vector<std::string>& names,
                               int shots, Totals& t, std::uint64_t& digest) {
  std::vector<JobResult> results(handles.size());
  e2e::Digest d;
  // Batch indices are unique across the service's lifetime, so one
  // round's set sees each batch once; it is dropped after the round so
  // the client's bookkeeping does not grow with the run.
  std::set<std::pair<int, std::uint64_t>> round_batches;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ++t.attempted;
    if (handles[i].status() != qucp::JobStatus::Done) {
      ++t.failed;
      t.problem(names[i] + ": not Done: " + handles[i].error());
      continue;
    }
    results[i] = handles[i].result();
    const JobResult& r = results[i];
    if (r.report.counts.total() != shots) {
      ++t.failed;
      t.problem(names[i] + ": count total " +
                std::to_string(r.report.counts.total()) + " != " +
                std::to_string(shots));
    }
    e2e::add_job_digest(d, names[i], r);
    t.pst_sum += r.report.pst_value;
    t.jsd_sum += r.report.jsd_value;
    ++t.scored;
    if (round_batches.insert({r.batch.backend_id, r.batch.batch_index})
            .second) {
      t.throughput_sum += r.batch.throughput;
      t.runtime_reduction_sum += r.batch.runtime_reduction;
      ++t.batches;
    }
  }
  digest = d.value();
  return results;
}

std::vector<std::string> names_of(const std::vector<Circuit>& circuits) {
  std::vector<std::string> names;
  names.reserve(circuits.size());
  for (const Circuit& c : circuits) names.push_back(c.name());
  return names;
}

/// A timed round kept for the replay.
struct KeptRound {
  std::vector<Circuit> circuits;
  std::vector<JobResult> results;
  std::uint64_t digest = 0;
  std::int64_t wall_ns = 0;
  std::vector<SubmitCall> submits;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  const e2e::WorkloadSpec spec = e2e::make_workload(args.workload);
  const int shots = spec.options.exec.shots;
  const std::size_t kept_rounds = args.trace ? kTracedRounds : kCheckedRounds;
  Totals totals;

  // Set-up: construction plus the warm-up round, repeated; the last
  // service stays up for the timed rounds.
  const std::vector<Circuit> warm = e2e::make_round(spec, args.seed, "warm", 0);
  std::unique_ptr<qucp::ExecutionService> svc;
  std::vector<double> setup_s;
  std::vector<JobResult> warm_results;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    svc.reset();
    std::vector<Circuit> round = warm;
    const std::int64_t t0 = Trace::now_ns();
    svc = make_service(spec);
    const auto handles = run_round(*svc, spec, std::move(round), nullptr);
    setup_s.push_back(static_cast<double>(Trace::now_ns() - t0) / 1e9);
    Totals warm_totals;
    std::uint64_t unused = 0;
    warm_results = collect(handles, names_of(warm), shots, warm_totals, unused);
    for (std::string& p : warm_totals.problems) {
      totals.problem("warm-up " + p);
    }
    totals.failed += warm_totals.failed;
  }

  // Timed rounds: at least --seconds, and at least enough rounds for the
  // p90 rule. Circuits are generated before each round's clock starts.
  const std::size_t min_rounds = e2e::min_samples_for(kRoundPercentile);
  std::vector<double> round_ms;
  std::vector<KeptRound> kept;
  // Structures seen so far (the parametric transpile cache key).
  std::set<std::uint64_t> structures;
  for (const Circuit& c : warm) {
    structures.insert(qucp::structural_fingerprint(c));
  }
  bool structures_distinct = true;
  e2e::Digest run_digest;
  double timed_s = 0.0;
  std::size_t jobs_timed = 0;
  for (std::size_t r = 0; timed_s < args.seconds || r < min_rounds; ++r) {
    std::vector<Circuit> circuits =
        e2e::make_round(spec, args.seed, "timed", r);
    if (spec.cold_mapping) {
      for (const Circuit& c : circuits) {
        structures_distinct &=
            structures.insert(qucp::structural_fingerprint(c)).second;
      }
    }
    const std::vector<std::string> names = names_of(circuits);
    const bool keep = r < kept_rounds;
    KeptRound k;
    if (keep) k.circuits = circuits;
    const std::int64_t t0 = Trace::now_ns();
    const auto handles = run_round(*svc, spec, std::move(circuits),
                                   keep && args.trace ? &k.submits : nullptr);
    const std::int64_t wall = Trace::now_ns() - t0;
    timed_s += static_cast<double>(wall) / 1e9;
    round_ms.push_back(static_cast<double>(wall) / 1e6);
    jobs_timed += handles.size();
    std::uint64_t digest = 0;
    std::vector<JobResult> results =
        collect(handles, names, shots, totals, digest);
    run_digest.add(digest);
    if (keep) {
      k.results = std::move(results);
      k.digest = digest;
      k.wall_ns = wall;
      kept.push_back(std::move(k));
    }
  }
  if (!structures_distinct) {
    ++totals.failed;
    totals.problem("a timed circuit repeats an earlier structure");
  }
  const qucp::ServiceStats stats = svc->stats();
  svc.reset();
  const double rss_mb = peak_rss_mb();

  // Replay: the warm-up round (untraced, to bring the replay's caches to
  // the state the timed rounds saw), then the kept timed rounds.
  Trace off(false);
  Trace trace(args.trace);
  e2e::ReplayTally tally;
  const qucp::kern::ParallelThreadsGuard one_thread(1);
  e2e::Replayer replayer(spec);
  const auto note = [&](const e2e::Replayer::RoundOut& out) {
    for (const std::string& m : out.mismatches) {
      ++totals.failed;
      totals.problem("replay: " + m);
    }
  };
  note(replayer.round(warm, &warm_results, off, nullptr));
  const std::vector<std::uint64_t> ordinals_at_timed = replayer.ordinals();
  const qucp::TranspileCacheStats cache_before = replayer.cache_stats();
  std::uint64_t first_batch_digest = 0;
  std::int64_t replay_ns = 0;
  std::int64_t replayed_e2e_ns = 0;
  for (std::size_t r = 0; r < kept.size(); ++r) {
    for (const SubmitCall& c : kept[r].submits) {
      trace.add_root("service.submit", c.start_ns, c.end_ns);
    }
    const std::int64_t t0 = Trace::now_ns();
    const auto out =
        replayer.round(kept[r].circuits, &kept[r].results, trace, &tally);
    replay_ns += Trace::now_ns() - t0;
    replayed_e2e_ns += kept[r].wall_ns;
    note(out);
    if (out.digest != kept[r].digest) {
      ++totals.failed;
      totals.problem("replay digest differs in timed round " +
                     std::to_string(r));
    }
    if (r == 0) first_batch_digest = out.first_batch_digest;
  }
  const qucp::TranspileCacheStats cache_after = replayer.cache_stats();

  // The digest must depend on the seed: the first batch of timed round 0
  // under another seed, at the same batch ordinals, must differ.
  {
    replayer.set_ordinals(ordinals_at_timed);
    const std::vector<Circuit> other =
        e2e::make_round(spec, args.seed + 1, "timed", 0);
    const auto out = replayer.round(other, nullptr, off, nullptr, 1);
    note(out);
    if (out.first_batch_digest == first_batch_digest) {
      ++totals.failed;
      totals.problem("result digest does not change with the seed");
    }
  }

  std::map<std::string, Metric> m;
  if (!args.trace) {
    const double nb =
        static_cast<double>(std::max<std::uint64_t>(1, totals.batches));
    const double scored =
        static_cast<double>(std::max<std::uint64_t>(1, totals.scored));
    m["jobs_per_s"] = {static_cast<double>(jobs_timed) / timed_s, "1/s"};
    m["iter_p50_ms"] = {e2e::percentile(round_ms, 50.0), "ms"};
    m["iter_p90_ms"] = {e2e::percentile(round_ms, kRoundPercentile), "ms"};
    m["mean_pst"] = {totals.pst_sum / scored, "ratio"};
    m["mean_jsd"] = {totals.jsd_sum / scored, "bits"};
    m["hw_throughput"] = {totals.throughput_sum / nb, "ratio"};
    m["runtime_reduction"] = {totals.runtime_reduction_sum / nb, "x"};
    m["done_share"] = {
        static_cast<double>(totals.attempted -
                            std::min(totals.attempted, totals.failed)) /
            static_cast<double>(std::max<std::uint64_t>(1, totals.attempted)),
        "ratio"};
    m["setup_s"] = {e2e::percentile(setup_s, 50.0), "s"};
    m["peak_rss_mb"] = {rss_mb, "MB"};
  } else {
    const auto by_name = e2e::totals_by_name(trace.spans());
    const auto self = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0
                                 : static_cast<double>(it->second.self_ns);
    };
    const auto total = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0
                                 : static_cast<double>(it->second.total_ns);
    };
    const double root = static_cast<double>(
        std::max<std::int64_t>(1, e2e::root_time_ns(trace.spans())));
    const double jobs = static_cast<double>(std::max<std::size_t>(1, tally.jobs));
    const double nbatch =
        static_cast<double>(std::max<std::size_t>(1, tally.batches));
    const double mapping_ns =
        self("mapping.transpile") + self("mapping.transpile_sweep");
    const double ideal_ns = self("sim.ideal") + self("sim.fusion_plan");
    std::size_t submitted_jobs = 0;
    for (const KeptRound& k : kept) submitted_jobs += k.circuits.size();

    m["sim.sample_ms_per_batch"] = {self("sim.sample") / nbatch / 1e6, "ms"};
    m["sim.noisy_self_ms_per_batch"] = {self("sim.execute") / nbatch / 1e6,
                                        "ms"};
    m["sim.gate_ops_per_job"] = {tally.gate_ops / jobs, "count"};
    m["sim.superket_bytes_per_job"] = {tally.superket_bytes / jobs, "B"};
    m["sim.ideal_us_per_job"] = {ideal_ns / jobs / 1e3, "us"};
    m["partition.allocate_us_per_batch"] = {
        self("partition.allocate") / nbatch / 1e3, "us"};
    m["service.pack_ms_per_1k_jobs"] = {self("service.pack") / jobs / 1e3,
                                        "ms"};
    m["mapping.transpile_us_per_job"] = {mapping_ns / jobs / 1e3, "us"};
    const std::uint64_t hits = (cache_after.hits - cache_before.hits) +
                               (cache_after.structural_hits -
                                cache_before.structural_hits);
    const std::uint64_t misses = cache_after.misses - cache_before.misses;
    const std::uint64_t fallbacks =
        cache_after.bind_fallbacks - cache_before.bind_fallbacks;
    const std::uint64_t probes = hits + misses + fallbacks;
    m["mapping.hit_ratio"] = {
        probes == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(probes),
        "ratio"};
    m["mapping.misses"] = {static_cast<double>(misses), "count"};
    m["mapping.bind_fallbacks"] = {static_cast<double>(fallbacks), "count"};
    m["mapping.swaps_per_job"] = {tally.swaps / jobs, "count"};
    m["metrics.score_us_per_job"] = {self("metrics.score") / jobs / 1e3, "us"};
    m["schedule.solo_makespan_us_per_job"] = {
        self("schedule.solo_makespan") / jobs / 1e3, "us"};
    m["service.submit_us_per_job"] = {
        self("service.submit") /
            static_cast<double>(std::max<std::size_t>(1, submitted_jobs)) /
            1e3,
        "us"};
    m["service.mean_batch_size"] = {jobs / nbatch, "count"};
    m["service.spill_events"] = {static_cast<double>(tally.spill_events),
                                 "count"};
    m["service.cross_device_spills"] = {
        static_cast<double>(tally.cross_device_spills), "count"};
    // Every device any workload routes to, so each workload prints the
    // same metric set (0 where a device is not in the workload's fleet).
    std::vector<std::string> devices;
    for (const std::string& w : e2e::workload_names()) {
      for (const qucp::Device& d : e2e::make_workload(w).devices) {
        if (std::find(devices.begin(), devices.end(), d.name()) ==
            devices.end()) {
          devices.push_back(d.name());
        }
      }
    }
    for (const std::string& d : devices) {
      double share = 0.0;
      for (std::size_t s = 0; s < spec.devices.size(); ++s) {
        if (spec.devices[s].name() == d && s < tally.jobs_per_slot.size()) {
          share = static_cast<double>(tally.jobs_per_slot[s]) / jobs;
        }
      }
      m["service.route_share." + d] = {share, "ratio"};
    }
    const double workers = static_cast<double>(spec.options.num_workers) *
                           static_cast<double>(spec.devices.size());
    m["service.lane_busy_share"] = {
        total("service.lane") /
            (static_cast<double>(std::max<std::int64_t>(1, replayed_e2e_ns)) *
             workers),
        "ratio"};
    m["service.submit.share"] = {self("service.submit") / root, "ratio"};
    m["service.pack.share"] = {self("service.pack") / root, "ratio"};
    m["service.lane.share"] = {self("service.lane") / root, "ratio"};
    m["partition.allocate.share"] = {self("partition.allocate") / root,
                                     "ratio"};
    m["mapping.transpile.share"] = {mapping_ns / root, "ratio"};
    m["sim.noisy_self.share"] = {self("sim.execute") / root, "ratio"};
    m["sim.sample.share"] = {self("sim.sample") / root, "ratio"};
    m["sim.ideal.share"] = {ideal_ns / root, "ratio"};
    m["metrics.score.share"] = {self("metrics.score") / root, "ratio"};
    m["schedule.solo_makespan.share"] = {self("schedule.solo_makespan") / root,
                                         "ratio"};
    m["trace.replay_s"] = {static_cast<double>(replay_ns) / 1e9, "s"};
    m["trace.e2e_s"] = {static_cast<double>(replayed_e2e_ns) / 1e9, "s"};
    m["trace.rounds"] = {static_cast<double>(tally.rounds), "count"};
    if (!args.trace_file.empty()) {
      std::ofstream f(args.trace_file);
      f << e2e::chrome_trace_json(trace.spans());
      if (!f) {
        ++totals.failed;
        totals.problem("cannot write " + args.trace_file);
      }
    }
  }

  std::cout << "workload " << spec.name << " seed " << args.seed
            << " trace " << (args.trace ? 1 : 0) << "\n";
  std::cout << "rounds " << round_ms.size() << " jobs " << jobs_timed
            << " timed_s " << timed_s << " (p" << kRoundPercentile
            << " needs >= " << min_rounds << " rounds)\n";
  std::cout << "setup_s samples";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << "\nservice: completed " << stats.jobs_completed << " failed "
            << stats.jobs_failed << " batches " << stats.batches_executed
            << " spills " << stats.spill_events << " cross_device "
            << stats.cross_device_spills << "\n";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(run_digest.value()));
  std::cout << "digest " << hex << "\n";
  for (const auto& [name, metric] : m) {
    std::cout << "  " << name << " = " << metric.value << " " << metric.unit
              << "\n";
  }
  for (const std::string& p : totals.problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  const bool ok = totals.problems.empty() && totals.failed == 0;
  std::cout << e2e::result_json(ok, totals.attempted, totals.failed, m)
            << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
