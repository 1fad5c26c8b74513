// Workloads of the wall-clock benchmark. Each one generates its inputs
// from a seed, runs the real pipeline once per launch() on the backend the
// caller's LaunchConfig selects, and checks the launch's output against a
// reference computed serially from the same inputs. The serial reference
// replays the workload's kernel calls through the layers' public functions
// (blast::NucLookup, blast::BlastSearcher, som::find_bmu,
// som::BatchAccumulator) and can time each call for per-layer attribution.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "ckpt/ckpt.hpp"
#include "rt/backend.hpp"

namespace perfbench {

/// Metric name -> value.
using Metrics = std::map<std::string, double>;

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// num / den, or 0 when nothing was attempted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Process resources used over an interval (getrusage deltas).
struct Usage {
  double cpu_s = 0.0;  ///< user + system
  double sys_s = 0.0;
  double minor_faults = 0.0;
};

struct LaunchOutput {
  mrbio::rt::LaunchResult launch;
  /// Measured around the rt::launch call alone: the benchmark's own
  /// preparation and output checks are outside the window.
  double wall_s = 0.0;
  Usage usage;
  double peak_rss_mb = 0.0;  ///< the kernel's high-water mark, reset first
  /// Work units the scheduler abandoned; any is a failed run.
  std::uint64_t failed_tasks = 0;
  /// Order-independent hash of the run's output (hit lines, codebook bytes
  /// or edge checksum). Identical inputs must give identical digests.
  std::uint64_t digest = 0;
  /// The output agrees with the serial reference.
  bool matches_reference = false;
  /// Checkpoint volume of the launch (zero when it does not checkpoint).
  mrbio::ckpt::CheckpointStats ckpt;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` into the empty directory `dir` and
  /// builds what a launch needs (DB volumes, query FASTA, matrices).
  virtual void setup(const std::filesystem::path& dir, std::uint64_t seed) = 0;

  /// Computes the serial reference the launches are checked against. When
  /// `layers` is non-null, times each replayed layer call and stores the
  /// per-layer metrics there.
  virtual void reference(Metrics* layers) = 0;

  /// Runs the pipeline once with `lc` (backend, ranks and sinks set by the
  /// caller) and checks its output. Throws if the pipeline throws.
  virtual LaunchOutput launch(const mrbio::rt::LaunchConfig& lc) = 0;
};

/// blast_coarse, blast_fine_ft, som_batch or graph_shuffle; throws
/// mrbio::InputError for any other name.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace perfbench
