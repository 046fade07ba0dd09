#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "metrics/metrics.hpp"
#include "schedule/schedule.hpp"
#include "sim/fusion.hpp"

namespace e2e {

namespace {

using qucp::Circuit;
using qucp::JobResult;

// The service's per-batch seed stride (service/service.hpp).
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

struct ReplayJob {
  const Circuit* circuit = nullptr;
  std::size_t submit_index = 0;  ///< position in the submitted round
  std::uint64_t fingerprint = 0;
  std::uint64_t structural_fp = 0;
  bool sweep = false;
};

/// Prebound sweep transpiles for one batch, parallel to its jobs.
struct Prebound {
  std::vector<std::optional<qucp::TranspiledProgram>> programs;
  std::vector<std::vector<int>> partitions;
  std::vector<std::shared_ptr<const qucp::FusionPlan>> plans;
};

/// The transpile options every replayed job uses (the QuCP / hardware-
/// aware preset run_batch_pipeline picks for every method but CNA, whose
/// per-batch co-runner context the replay does not model).
qucp::TranspileOptions transpile_options(const qucp::ServiceOptions& o) {
  if (o.method == qucp::Method::CNA) {
    throw std::invalid_argument("replay: Method::CNA is not modeled");
  }
  qucp::TranspileOptions t = qucp::hardware_aware_options();
  t.optimize_input = o.optimize_circuits;
  t.optimize_output = o.optimize_circuits;
  return t;
}

/// Cache key for the replay's transpile calls. The options are the same
/// for every call, so any constant works; it only has to be consistent
/// within the replay's own backends.
constexpr std::uint64_t kOptionsKey = 1;

std::string compare(const std::string& name, const JobResult& want,
                    const JobResult& got) {
  const auto& w = want.report;
  const auto& g = got.report;
  if (want.batch.batch_index != got.batch.batch_index ||
      want.batch.backend_id != got.batch.backend_id ||
      want.batch.batch_size != got.batch.batch_size) {
    return name + ": batch placement differs (index " +
           std::to_string(want.batch.batch_index) + " vs " +
           std::to_string(got.batch.batch_index) + ")";
  }
  if (w.partition != g.partition) return name + ": partition differs";
  if (w.swaps_added != g.swaps_added) return name + ": swaps differ";
  if (w.counts.data() != g.counts.data()) return name + ": counts differ";
  if (w.pst_value != g.pst_value || w.jsd_value != g.jsd_value) {
    return name + ": fidelity metrics differ";
  }
  if (want.batch.throughput != got.batch.throughput ||
      want.batch.runtime_reduction != got.batch.runtime_reduction) {
    return name + ": batch throughput/runtime model differs";
  }
  return {};
}

struct BatchInput {
  const qucp::CalibrationEpoch* epoch = nullptr;
  std::size_t slot = 0;
  std::uint64_t index = 0;  ///< fleet-unique batch index (seed formula)
  Prebound* prebound = nullptr;
  std::vector<const Circuit*> circuits;  ///< batch order
  std::vector<std::int64_t> job_ids;     ///< submission positions
};

/// run_batch_pipeline's stages for one batch, each inside its span.
/// Returns one result per batch member, in batch order; throws what the
/// stage functions throw.
std::vector<JobResult> replay_batch(const BatchInput& in,
                                    const qucp::ServiceOptions& opt,
                                    const qucp::Partitioner& partitioner,
                                    Trace& trace, ReplayTally* tally) {
  const qucp::CalibrationEpoch& epoch = *in.epoch;
  const qucp::Device& device = epoch.device();
  Prebound* pre = in.prebound;
  const std::size_t n = in.circuits.size();
  const qucp::TranspileOptions topts = transpile_options(opt);
  const ScopedSpan lane_span(trace, "service.lane");

  std::vector<qucp::PartitionAssignment> assignment(n);
  {
    const ScopedSpan span(trace, "partition.allocate");
    std::vector<qucp::ProgramShape> shapes;
    for (const Circuit* c : in.circuits) shapes.push_back(qucp::shape_of(*c));
    const std::vector<std::size_t> order = qucp::allocation_order(shapes);
    std::vector<qucp::ProgramShape> ordered;
    for (std::size_t idx : order) ordered.push_back(shapes[idx]);
    auto allocations =
        partitioner.allocate(device, ordered, &epoch.candidate_index());
    if (!allocations) throw std::runtime_error("batch does not fit");
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      assignment[order[pos]] = (*allocations)[pos];
    }
  }

  std::vector<qucp::PhysicalProgram> physical(n);
  std::vector<int> swaps(n, 0);
  std::vector<std::vector<int>> layouts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Circuit& logical = *in.circuits[i];
    const ScopedSpan span(trace, "mapping.transpile", in.job_ids[i]);
    qucp::TranspiledProgram tp;
    if (pre != nullptr && pre->programs[i].has_value() &&
        pre->partitions[i] == assignment[i].qubits) {
      tp = *std::move(pre->programs[i]);
    } else {
      tp = epoch.transpile(logical, assignment[i].qubits, topts,
                           kOptionsKey);
    }
    swaps[i] = tp.swaps_added;
    layouts[i] = tp.final_layout;
    physical[i] = {std::move(tp.physical), logical.name()};
  }

  if (tally != nullptr) {
    for (const qucp::PhysicalProgram& p : physical) {
      const double width = static_cast<double>(p.circuit.active_qubits().size());
      for (const qucp::Gate& g : p.circuit.ops()) {
        if (g.kind == qucp::GateKind::Measure ||
            g.kind == qucp::GateKind::Barrier) {
          continue;
        }
        tally->gate_ops += 1.0;
        tally->superket_bytes += 16.0 * std::pow(4.0, width);
      }
    }
  }

  // The executor samples each program from Rng(seed).derive(name#i);
  // running it at one shot and sampling here at the real shot count on
  // the same stream separates sampling from the noisy simulation, and
  // the count comparison proves the streams are the same.
  qucp::ExecOptions exec = opt.exec;
  exec.seed = opt.exec.seed + kGolden * in.index;
  exec.kernel_threads = 1;
  qucp::ExecOptions one_shot = exec;
  one_shot.shots = 1;
  qucp::ParallelRunReport run;
  std::vector<qucp::Counts> counts(n);
  {
    const ScopedSpan span(trace, "sim.execute");
    run = epoch.execute(physical, one_shot);
    const qucp::Rng rng(exec.seed);
    for (std::size_t i = 0; i < n; ++i) {
      const ScopedSpan sample(trace, "sim.sample", in.job_ids[i]);
      qucp::Rng prog_rng =
          rng.derive(physical[i].name + "#" + std::to_string(i));
      counts[i] = qucp::sample_counts(run.programs[i].distribution,
                                      exec.shots, prog_rng);
    }
  }

  qucp::BatchStats stats;
  stats.batch_index = in.index;
  stats.backend_id = static_cast<int>(in.slot);
  stats.backend_device = device.name();
  stats.batch_size = n;
  stats.makespan_ns = run.makespan_ns;
  stats.throughput = run.throughput;
  stats.crosstalk_events = run.crosstalk_events;
  std::vector<qucp::ProgramReport> reports(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Circuit& logical = *in.circuits[i];
    qucp::ProgramReport& pr = reports[i];
    pr.name = run.programs[i].name;
    pr.partition = assignment[i].qubits;
    pr.final_layout = layouts[i];
    pr.efs = assignment[i].efs.score;
    pr.swaps_added = swaps[i];
    {
      const ScopedSpan span(trace, "sim.ideal", in.job_ids[i]);
      if (pre != nullptr && pre->plans[i] != nullptr) {
        pr.ideal = qucp::ideal_distribution(
            qucp::CompiledProgram::materialize(*pre->plans[i], logical));
      } else {
        pr.ideal = qucp::ideal_distribution(*epoch.compiled_program(logical));
      }
    }
    pr.noisy = run.programs[i].distribution;
    pr.counts = std::move(counts[i]);
    {
      const ScopedSpan span(trace, "metrics.score", in.job_ids[i]);
      pr.jsd_value = qucp::jsd(pr.noisy, pr.ideal);
      pr.pst_value = qucp::pst(pr.noisy, pr.ideal.most_likely());
    }
  }
  std::vector<double> solo_makespans;
  for (std::size_t i = 0; i < n; ++i) {
    const ScopedSpan span(trace, "schedule.solo_makespan", in.job_ids[i]);
    solo_makespans.push_back(
        qucp::schedule_circuit(physical[i].circuit, device, exec.schedule)
            .makespan_ns);
  }
  qucp::RuntimeModel model;
  model.shots = exec.shots;
  stats.runtime_reduction = qucp::serial_runtime_s(model, solo_makespans) /
                            qucp::parallel_runtime_s(model, run.makespan_ns);

  std::vector<JobResult> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(JobResult{std::move(reports[i]), stats});
  }
  return out;
}

}  // namespace

void add_job_digest(Digest& d, const std::string& name, const JobResult& r) {
  d.add(name);
  d.add(static_cast<std::uint64_t>(r.batch.backend_id));
  d.add(r.batch.batch_index);
  for (int q : r.report.partition) d.add(static_cast<std::uint64_t>(q));
  d.add(static_cast<std::uint64_t>(r.report.swaps_added));
  for (const auto& [outcome, n] : r.report.counts.data()) {
    d.add(outcome);
    d.add(static_cast<std::uint64_t>(n));
  }
}

Replayer::Replayer(const WorkloadSpec& spec)
    : spec_(&spec),
      fleet_(make_backends(spec)),
      partitioner_(qucp::make_partitioner(spec.options.method,
                                          spec.options.sigma,
                                          spec.options.srb_estimates)),
      scheduler_(std::make_unique<qucp::FleetScheduler>(
          fleet_, spec.options.route_policy)),
      ordinals_(fleet_.size(), 0) {}

qucp::TranspileCacheStats Replayer::cache_stats() const {
  qucp::TranspileCacheStats total;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    const qucp::TranspileCacheStats s = fleet_.at(i).cache_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.structural_hits += s.structural_hits;
    total.bind_fallbacks += s.bind_fallbacks;
    total.evictions += s.evictions;
  }
  return total;
}

Replayer::RoundOut Replayer::round(const std::vector<Circuit>& circuits,
                                   const std::vector<JobResult>* expect,
                                   Trace& trace, ReplayTally* tally,
                                   std::size_t max_batches) {
  const qucp::ServiceOptions& opt = spec_->options;
  RoundOut out;
  std::vector<ReplayJob> jobs(circuits.size());
  const std::vector<bool> sweep =
      spec_->submit_all ? sweep_marks(circuits)
                        : std::vector<bool>(circuits.size(), false);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    jobs[i] = {&circuits[i], i, qucp::circuit_fingerprint(circuits[i]),
               qucp::structural_fingerprint(circuits[i]), sweep[i]};
  }

  qucp::FleetPlan plan;
  {
    const ScopedSpan span(trace, "service.pack");
    // ExecutionService::dispatch_pending's canonical order.
    if (opt.order == qucp::JobOrder::Canonical) {
      std::sort(jobs.begin(), jobs.end(),
                [](const ReplayJob& a, const ReplayJob& b) {
                  if (a.fingerprint != b.fingerprint) {
                    return a.fingerprint < b.fingerprint;
                  }
                  const std::string& an = a.circuit->name();
                  const std::string& bn = b.circuit->name();
                  if (an != bn) return an < bn;
                  return a.submit_index < b.submit_index;
                });
    }
    std::vector<qucp::PackJob> pack_jobs;
    pack_jobs.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      pack_jobs.push_back({i, qucp::shape_of(*jobs[i].circuit),
                           jobs[i].fingerprint, false, jobs[i].structural_fp});
    }
    qucp::PackOptions popts;
    popts.max_batch_size = opt.max_batch_size;
    popts.efs_threshold = opt.efs_threshold;
    popts.single_batch = opt.single_batch;
    popts.incremental_admission = opt.incremental_admission;
    popts.runtime.shots = opt.exec.shots;
    // Every round starts on drained lanes, so the modeled backlog is 0.
    const std::vector<double> backlogs(fleet_.size(), 0.0);
    plan = scheduler_->plan(pack_jobs, *partitioner_, popts, backlogs);
  }
  for (std::size_t idx : plan.unplaceable) {
    out.mismatches.push_back(jobs[idx].circuit->name() + ": unplaceable");
  }

  // Dispatch's sweep prebind: one transpile_sweep per (slot, structure,
  // admitted partition) group of two or more sweep jobs.
  std::vector<std::vector<Prebound>> prebound(plan.batches.size());
  const bool sweep_eligible = opt.parametric_transpile &&
                              opt.transpile_cache_capacity > 0 &&
                              opt.method != qucp::Method::CNA &&
                              !opt.single_batch;
  if (sweep_eligible) {
    const qucp::TranspileOptions topts = transpile_options(opt);
    for (std::size_t s = 0; s < plan.batches.size(); ++s) {
      std::map<std::pair<std::uint64_t, std::vector<int>>,
               std::vector<std::pair<std::size_t, std::size_t>>>
          groups;
      for (std::size_t b = 0; b < plan.batches[s].size(); ++b) {
        const qucp::PackedBatch& pb = plan.batches[s][b];
        if (pb.partitions.size() != pb.jobs.size()) continue;
        for (std::size_t pos = 0; pos < pb.jobs.size(); ++pos) {
          const ReplayJob& job = jobs[pb.jobs[pos]];
          if (!job.sweep) continue;
          groups[{job.structural_fp, pb.partitions[pos]}].emplace_back(b, pos);
        }
      }
      std::vector<const Circuit*> group_circuits;
      std::vector<qucp::TranspiledProgram> bound;
      for (auto& [key, targets] : groups) {
        if (targets.size() < 2) continue;
        if (prebound[s].empty()) prebound[s].resize(plan.batches[s].size());
        group_circuits.clear();
        for (auto [b, pos] : targets) {
          group_circuits.push_back(jobs[plan.batches[s][b].jobs[pos]].circuit);
        }
        {
          const ScopedSpan span(trace, "mapping.transpile_sweep");
          plan.epochs[s]->transpile_sweep(group_circuits, key.second, topts,
                                          kOptionsKey, bound);
        }
        std::shared_ptr<const qucp::FusionPlan> fusion_plan;
        {
          const ScopedSpan span(trace, "sim.fusion_plan");
          fusion_plan =
              plan.epochs[s]->program_cache().plan(*group_circuits.front());
        }
        for (std::size_t t = 0; t < targets.size(); ++t) {
          const auto [b, pos] = targets[t];
          Prebound& pre = prebound[s][b];
          if (pre.programs.empty()) {
            const std::size_t n = plan.batches[s][b].jobs.size();
            pre.programs.resize(n);
            pre.partitions.resize(n);
            pre.plans.resize(n);
          }
          pre.programs[pos] = std::move(bound[t]);
          pre.partitions[pos] = key.second;
          pre.plans[pos] = fusion_plan;
        }
      }
    }
  }

  std::vector<std::optional<JobResult>> results(circuits.size());
  const std::uint64_t num_lanes = fleet_.size();
  std::size_t executed = 0;
  for (std::size_t s = 0; s < plan.batches.size(); ++s) {
    for (std::size_t b = 0; b < plan.batches[s].size(); ++b) {
      const std::uint64_t index = ordinals_[s]++ * num_lanes + s;
      if (executed >= max_batches) continue;
      ++executed;
      BatchInput in;
      in.epoch = plan.epochs[s].get();
      in.slot = s;
      in.index = index;
      in.prebound = b < prebound[s].size() && !prebound[s][b].programs.empty()
                        ? &prebound[s][b]
                        : nullptr;
      for (std::size_t j : plan.batches[s][b].jobs) {
        in.circuits.push_back(jobs[j].circuit);
        in.job_ids.push_back(static_cast<std::int64_t>(jobs[j].submit_index));
      }
      std::vector<JobResult> batch;
      try {
        batch = replay_batch(in, opt, *partitioner_, trace, tally);
      } catch (const std::exception& e) {
        out.mismatches.push_back("batch " + std::to_string(index) +
                                 " failed in the replay: " + e.what());
        continue;
      }
      Digest batch_digest;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto at = static_cast<std::size_t>(in.job_ids[i]);
        add_job_digest(batch_digest, circuits[at].name(), batch[i]);
        if (expect != nullptr) {
          std::string diff =
              compare(circuits[at].name(), (*expect)[at], batch[i]);
          if (!diff.empty()) out.mismatches.push_back(std::move(diff));
        }
        if (tally != nullptr) tally->swaps += batch[i].report.swaps_added;
        results[at] = std::move(batch[i]);
      }
      if (executed == 1) out.first_batch_digest = batch_digest.value();
      if (tally != nullptr) {
        ++tally->batches;
        tally->jobs += batch.size();
        tally->jobs_per_slot.resize(
            std::max(tally->jobs_per_slot.size(), plan.batches.size()), 0);
        tally->jobs_per_slot[s] += batch.size();
      }
    }
  }

  Digest digest;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    if (results[i]) add_job_digest(digest, circuits[i].name(), *results[i]);
  }
  out.digest = digest.value();
  if (tally != nullptr) {
    ++tally->rounds;
    tally->spill_events += plan.spill_events;
    tally->cross_device_spills += plan.cross_device_spills;
  }
  return out;
}

}  // namespace e2e
