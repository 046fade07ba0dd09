#pragma once
// Single-threaded replay of the service's dispatch cycles through the
// library's public stage functions, in run_batch_pipeline's order:
//
//   service.pack          FleetScheduler::plan (canonical order, as
//                         ExecutionService::dispatch_pending sorts)
//   mapping.transpile_sweep + sim.fusion_plan
//                         dispatch's sweep prebind (submit_all traffic)
//   service.lane          one batch, with children
//     partition.allocate  Partitioner::allocate with the epoch's index
//     mapping.transpile   CalibrationEpoch::transpile
//     sim.execute         CalibrationEpoch::execute at one shot, with
//       sim.sample        sample_counts at the workload's shots, on the
//                         stream execute derives for each program
//     sim.ideal           ideal_distribution of the fused program
//     metrics.score       jsd + pst
//     schedule.solo_makespan  schedule_circuit per program
//
// The replay owns fresh backends, so its caches see the same warm-up and
// round sequence the measured service saw. Each batch runs with the
// service's per-batch seed, exec.seed + golden * (ordinal * B + lane), so
// partitions, swaps and counts must match the measured run exactly.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace e2e {

/// Work counted while replaying traced rounds (all deterministic).
struct ReplayTally {
  std::size_t rounds = 0;
  std::size_t jobs = 0;
  std::size_t batches = 0;
  std::uint64_t spill_events = 0;
  std::uint64_t cross_device_spills = 0;
  std::vector<std::size_t> jobs_per_slot;
  double gate_ops = 0.0;        ///< non-measure ops of transpiled programs
  double superket_bytes = 0.0;  ///< 16 * 4^n bytes per op (computed)
  double swaps = 0.0;
};

/// Digest of one job's outcome: name, backend, batch index, partition,
/// swaps and every (outcome, count) pair.
void add_job_digest(Digest& d, const std::string& name,
                    const qucp::JobResult& r);

class Replayer {
 public:
  explicit Replayer(const WorkloadSpec& spec);
  // The scheduler keeps a pointer to fleet_.
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  struct RoundOut {
    std::uint64_t digest = 0;       ///< over jobs in submission order
    std::uint64_t first_batch_digest = 0;
    std::vector<std::string> mismatches;
  };

  /// Replay one dispatch cycle holding `circuits` (submission order). When
  /// `expect` is given (parallel to `circuits`), every replayed job is
  /// compared against it. Only the first `max_batches` planned batches
  /// execute; the rest are planned but skipped.
  RoundOut round(const std::vector<qucp::Circuit>& circuits,
                 const std::vector<qucp::JobResult>* expect, Trace& trace,
                 ReplayTally* tally,
                 std::size_t max_batches =
                     std::numeric_limits<std::size_t>::max());

  /// Per-lane batch ordinals (the k in the per-batch seed formula).
  [[nodiscard]] const std::vector<std::uint64_t>& ordinals() const noexcept {
    return ordinals_;
  }
  void set_ordinals(std::vector<std::uint64_t> o) { ordinals_ = std::move(o); }

  /// Transpile-cache counters summed over every backend.
  [[nodiscard]] qucp::TranspileCacheStats cache_stats() const;

 private:
  const WorkloadSpec* spec_;
  qucp::BackendRegistry fleet_;
  std::unique_ptr<qucp::Partitioner> partitioner_;
  std::unique_ptr<qucp::FleetScheduler> scheduler_;
  std::vector<std::uint64_t> ordinals_;
};

}  // namespace e2e
