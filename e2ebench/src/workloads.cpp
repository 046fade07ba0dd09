#include "workloads.hpp"

#include <map>
#include <stdexcept>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "vqe/ansatz.hpp"

namespace e2e {

namespace {

using qucp::Circuit;

// Queue depth of one table2_mix round. Deep enough that the four lanes
// stay busy until the round's last few batches (one round is ~256 batches
// of four), shallow enough that a run holds the 100 rounds its p90 needs.
constexpr std::size_t kTable2Depth = 1024;
// VQE sweep: bindings per optimizer iteration, ansatz width and depth.
constexpr std::size_t kVqeBindings = 24;
constexpr int kVqeQubits = 8;
constexpr int kVqeReps = 3;
// fleet_mix round: 16 batches of eight across two lanes of two workers.
constexpr std::size_t kFleetDepth = 128;

const char* const kTable2Circuits[] = {"adder", "fred", "lin",  "4mod",
                                       "bell",  "qec",  "alu", "var"};

std::string job_name(std::string_view workload, std::string_view phase,
                     std::size_t round, std::size_t job, std::uint64_t tag) {
  return std::string(workload) + "." + std::string(phase) + ".r" +
         std::to_string(round) + ".j" + std::to_string(job) + "." +
         std::to_string(tag);
}

/// Random measured circuit over n qubits from a mixed gate set. Angles are
/// drawn away from 0 and 2pi, so the peephole optimizer never drops them
/// and no two jobs of a run share a structure.
Circuit random_circuit(int n, int gates, qucp::Rng& rng) {
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const int q = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    switch (rng.index(6)) {
      case 0: c.h(q); break;
      case 1: c.t(q); break;
      case 2: c.ry(rng.uniform(0.05, 6.2), q); break;
      case 3: c.rz(rng.uniform(0.05, 6.2), q); break;
      default: {
        int b = static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)));
        if (b >= q) ++b;
        c.cx(q, b);
        break;
      }
    }
  }
  c.measure_all();
  return c;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"table2_mix", "vqe_sweep_8q", "fleet_mix"};
}

WorkloadSpec make_workload(std::string_view name) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  // Default ServiceOptions except where a workload lists a field, so a
  // change of defaults shows up in the benchmark.
  if (name == "table2_mix") {
    spec.devices.push_back(qucp::make_toronto27());
    spec.options.num_workers = 4;
    spec.options.max_batch_size = 4;
    spec.options.exec.shots = 4096;
  } else if (name == "vqe_sweep_8q") {
    spec.devices.push_back(qucp::make_toronto27());
    spec.options.num_workers = 4;
    spec.submit_all = true;
  } else if (name == "fleet_mix") {
    spec.devices.push_back(qucp::make_toronto27());
    spec.devices.push_back(qucp::make_manhattan65());
    spec.options.num_workers = 2;
    spec.options.max_batch_size = 8;
    spec.options.exec.shots = 1024;
    spec.cold_mapping = true;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return spec;
}

std::vector<Circuit> make_round(const WorkloadSpec& spec, std::uint64_t seed,
                                std::string_view phase, std::size_t round) {
  qucp::Rng rng = qucp::Rng(seed).derive(spec.name + "/" +
                                         std::string(phase) + "/" +
                                         std::to_string(round));
  std::vector<Circuit> out;
  if (spec.name == "table2_mix") {
    // An even mix of the eight Table II circuits; the seed draws the job
    // names (and so each job's sampling stream) and the submission order.
    out.reserve(kTable2Depth);
    for (std::size_t j = 0; j < kTable2Depth; ++j) {
      Circuit c = qucp::get_benchmark(kTable2Circuits[j % 8]).circuit;
      c.set_name(job_name(spec.name, phase, round, j, rng.index(1u << 30)));
      out.push_back(std::move(c));
    }
    for (std::size_t j = out.size(); j > 1; --j) {
      std::swap(out[j - 1], out[rng.index(j)]);
    }
  } else if (spec.name == "vqe_sweep_8q") {
    const int params = qucp::ansatz_parameter_count(kVqeQubits, kVqeReps);
    out.reserve(kVqeBindings);
    std::vector<double> angles(static_cast<std::size_t>(params));
    for (std::size_t j = 0; j < kVqeBindings; ++j) {
      for (double& a : angles) a = rng.uniform(0.05, 6.2);
      Circuit c = qucp::make_ryrz_ansatz(kVqeQubits, kVqeReps, angles);
      c.measure_all();
      c.set_name(job_name(spec.name, phase, round, j, 0));
      out.push_back(std::move(c));
    }
  } else {
    out.reserve(kFleetDepth);
    for (std::size_t j = 0; j < kFleetDepth; ++j) {
      const int width = 3 + static_cast<int>(rng.index(4));
      Circuit c = random_circuit(width, 6 * width, rng);
      c.set_name(job_name(spec.name, phase, round, j, 0));
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<std::shared_ptr<qucp::Backend>> make_backends(
    const WorkloadSpec& spec) {
  std::vector<std::shared_ptr<qucp::Backend>> backends;
  for (const qucp::Device& d : spec.devices) {
    backends.push_back(std::make_shared<qucp::Backend>(
        d, spec.options.transpile_cache_capacity,
        spec.options.parametric_transpile));
  }
  return backends;
}

std::vector<bool> sweep_marks(const std::vector<Circuit>& circuits) {
  std::map<std::uint64_t, std::size_t> structure_counts;
  for (const Circuit& c : circuits) {
    ++structure_counts[qucp::structural_fingerprint(c)];
  }
  std::vector<bool> marks;
  marks.reserve(circuits.size());
  for (const Circuit& c : circuits) {
    bool has_params = false;
    for (const qucp::Gate& g : c.ops()) has_params |= !g.params.empty();
    marks.push_back(has_params &&
                    structure_counts[qucp::structural_fingerprint(c)] >= 2);
  }
  return marks;
}

}  // namespace e2e
