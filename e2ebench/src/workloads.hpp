#pragma once
// The benchmark's three workloads. Every circuit and angle is generated
// here, from the workload seed, outside the service; the service only
// ever sees the finished circuits.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/device.hpp"
#include "service/service.hpp"

namespace e2e {

struct WorkloadSpec {
  std::string name;
  std::vector<qucp::Device> devices;
  qucp::ServiceOptions options;
  /// The client sends each round with one submit_all() call (a sweep);
  /// otherwise one submit() per job.
  bool submit_all = false;
  /// Every timed job must miss the transpile cache: no timed circuit may
  /// share a structure with the warm-up round or an earlier timed job.
  bool cold_mapping = false;
};

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] WorkloadSpec make_workload(std::string_view name);

/// Names of every workload, in BENCHMARK.json order.
[[nodiscard]] std::vector<std::string> workload_names();

/// Round `round` of the workload under `seed`. `phase` separates streams:
/// the warm-up round uses "warm", the timed rounds "timed". Job names are
/// distinct across every round and phase of one seed.
[[nodiscard]] std::vector<qucp::Circuit> make_round(const WorkloadSpec& spec,
                                                    std::uint64_t seed,
                                                    std::string_view phase,
                                                    std::size_t round);

/// Fresh backends for the workload's devices, built exactly as the
/// service's own constructors build them.
[[nodiscard]] std::vector<std::shared_ptr<qucp::Backend>> make_backends(
    const WorkloadSpec& spec);

/// submit_all()'s sweep rule: a job is sweep traffic when at least two
/// circuits of the submitted vector share its structural fingerprint and
/// it carries rotation parameters.
[[nodiscard]] std::vector<bool> sweep_marks(
    const std::vector<qucp::Circuit>& circuits);

}  // namespace e2e
