// perfbench: wall-clock benchmark of the MR-MPI pipelines on the native
// backend, ranks as threads (hardware threads - 1 of them). One run
// measures one workload at one seed:
//
//   perfbench --workload blast_coarse --seed 1 --seconds 20 --trace 0
//
// The run sets up the inputs, computes the serial reference, makes one
// warm-up launch, then launches the pipeline back to back (closed loop, one
// job at a time) until --seconds have passed. Every launch is checked
// against the reference. Each launch is followed by a timed batch of fresh
// set-ups; setup_s is the median over the batches.
//
//   --trace 0  end-to-end metrics from untraced launches (medians).
//   --trace 1  per-layer metrics: the serial replay's per-call timings, and
//              medians over launches that carry a Full trace::Recorder and
//              an obs::Registry, alternating with untraced launches that
//              give the tracing overhead.
//
// Prints a host fingerprint, one "name value unit" line per metric, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. README.md describes the workloads and the metric map.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/error.hpp"
#include "common/options.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "simd/simd.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

using namespace mrbio;
using perfbench::Metrics;
using perfbench::ratio;
using perfbench::seconds_since;
using perfbench::SteadyClock;
namespace fs = std::filesystem;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"}};

constexpr MetricSpec kPerLayer[] = {
    {"blast.lookup_build_s", "s"},
    {"blast.search_s", "s"},
    {"blast.db_load_s", "s"},
    {"blast.word_hits", "count"},
    {"blast.ungapped_extensions", "count"},
    {"blast.gapped_extensions", "count"},
    {"blast.hsps_reported", "count"},
    {"blast.gapped_yield", "ratio"},
    {"blast.model_ratio", "ratio"},
    {"som.bmu_s", "s"},
    {"som.add_s", "s"},
    {"som.apply_s", "s"},
    {"mrmpi.map_s", "s"},
    {"mrmpi.aggregate_s", "s"},
    {"mrmpi.convert_s", "s"},
    {"mrmpi.reduce_s", "s"},
    {"mrmpi.aggregate_bytes", "B"},
    {"mrmpi.shuffle_combined_bytes", "B"},
    {"mrmpi.spill_bytes", "B"},
    {"mrmpi.tasks", "count"},
    {"mrmpi.task_p50_s", "s"},
    {"mrmpi.task_p90_s", "s"},
    {"sched.master_wait_s", "s"},
    {"sched.steal_wait_s", "s"},
    {"sched.steals_attempted", "count"},
    {"sched.steal_yield", "ratio"},
    {"mpi.collective_s", "s"},
    {"mpi.collective_skew_s", "s"},
    {"rt.comm_wait_s", "s"},
    {"rt.messages", "count"},
    {"rt.payload_bytes", "B"},
    {"ckpt.records_written", "count"},
    {"ckpt.bytes_written", "B"},
    {"ckpt.io_s", "s"},
    {"run.useful_frac", "ratio"},
    {"run.idle_frac", "ratio"},
    {"proc.sys_s", "s"},
    {"proc.minor_faults", "count"},
    {"trace.overhead_frac", "ratio"},
};

/// Set-up time summed over one batch of set-ups (see main).
constexpr double kSetupBatchSeconds = 0.1;

/// Lower median for even counts, so the value is one that was measured.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Nearest-rank quantile of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

// ---- host and process probes ----

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

// ---- launches ----

struct Sample {
  double wall_s = 0.0;
  perfbench::Usage usage;
  double rss_mb = 0.0;
  bool ok = false;
  Metrics layers;  ///< traced launches only
};

/// Per-layer metrics of one traced launch.
Metrics traced_layers(const trace::Recorder& rec, const obs::Registry& reg,
                      const perfbench::LaunchOutput& out) {
  const obs::Report report = obs::analyze(rec);
  const auto counter = [&](std::string_view name) {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  const auto slowest_rank = [&](std::string_view phase) {
    for (const auto& ps : report.phase_skew) {
      if (ps.phase == phase) return ps.max;
    }
    return 0.0;
  };
  // Exact Task-span durations: the registry's octave buckets would
  // collapse p50 and p90 into one value.
  std::vector<double> tasks;
  for (int r = 0; r < rec.nranks(); ++r) {
    for (const trace::Event& e : rec.rank_events(r)) {
      if (e.cat == trace::Category::Task) tasks.push_back(e.t1 - e.t0);
    }
  }
  std::sort(tasks.begin(), tasks.end());
  const obs::Histogram* collectives = reg.find_histogram("mpi.collective_seconds");
  const obs::RankBreakdown& total = report.total;

  Metrics m;
  m["mrmpi.map_s"] = slowest_rank("map");
  m["mrmpi.aggregate_s"] = slowest_rank("aggregate");
  m["mrmpi.convert_s"] = slowest_rank("convert");
  m["mrmpi.reduce_s"] = slowest_rank("reduce");
  m["mrmpi.aggregate_bytes"] = counter("mrmpi.aggregate_bytes");
  m["mrmpi.shuffle_combined_bytes"] = counter("shuffle.combined_bytes");
  m["mrmpi.spill_bytes"] = counter("mrmpi.spill_bytes");
  m["mrmpi.tasks"] = static_cast<double>(tasks.size());
  m["mrmpi.task_p50_s"] = quantile(tasks, 0.5);
  m["mrmpi.task_p90_s"] = quantile(tasks, 0.9);
  m["sched.master_wait_s"] = total.master_wait;
  m["sched.steal_wait_s"] = total.steal_wait;
  m["sched.steals_attempted"] = counter("sched.steals_attempted");
  m["sched.steal_yield"] =
      ratio(counter("sched.steals_succeeded"), counter("sched.steals_attempted"));
  m["mpi.collective_s"] = collectives != nullptr ? collectives->sum() : 0.0;
  m["mpi.collective_skew_s"] = total.collective_skew;
  m["rt.comm_wait_s"] = total.comm_overhead;
  m["rt.messages"] = static_cast<double>(out.launch.messages);
  m["rt.payload_bytes"] = static_cast<double>(out.launch.payload_bytes);
  m["ckpt.records_written"] = static_cast<double>(out.ckpt.records_written);
  m["ckpt.bytes_written"] = static_cast<double>(out.ckpt.bytes_written);
  m["ckpt.io_s"] = total.checkpoint_io;
  m["run.useful_frac"] = ratio(total.useful, total.final_time);
  m["run.idle_frac"] = ratio(total.idle_total(), total.final_time);
  return m;
}

class Runner {
 public:
  Runner(perfbench::Workload& workload, int ranks) : workload_(workload), ranks_(ranks) {}

  /// One checked launch; a throw, an abandoned task or a wrong output
  /// counts as failed.
  Sample launch(bool traced) {
    rt::LaunchConfig lc;
    lc.backend = rt::Backend::Native;
    lc.nranks = ranks_;
    std::optional<trace::Recorder> recorder;
    std::optional<obs::Registry> registry;
    if (traced) {
      recorder.emplace(ranks_, trace::Level::Full);
      registry.emplace();
      lc.recorder = &*recorder;
      lc.metrics = &*registry;
    }
    Sample s;
    ++attempted_;
    try {
      const perfbench::LaunchOutput out = workload_.launch(lc);
      s.wall_s = out.wall_s;
      s.usage = out.usage;
      s.rss_mb = out.peak_rss_mb;
      if (traced) s.layers = traced_layers(*recorder, *registry, out);
      s.ok = out.failed_tasks == 0 && out.matches_reference;
      if (!s.ok) {
        std::fprintf(stderr,
                     "perfbench: launch %llu failed: failed_tasks=%llu "
                     "matches_reference=%d digest=%016llx\n",
                     static_cast<unsigned long long>(attempted_),
                     static_cast<unsigned long long>(out.failed_tasks),
                     static_cast<int>(out.matches_reference),
                     static_cast<unsigned long long>(out.digest));
      }
      std::fprintf(stderr, "launch %llu%s: wall %.4f s, cpu %.4f s, peak rss %.1f MB\n",
                   static_cast<unsigned long long>(attempted_), traced ? " (traced)" : "",
                   s.wall_s, s.usage.cpu_s, s.rss_mb);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: launch %llu threw: %s\n",
                   static_cast<unsigned long long>(attempted_), e.what());
    }
    if (!s.ok) ++failed_;
    return s;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  perfbench::Workload& workload_;
  int ranks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs `step` back to back (a closed loop) until `seconds` have passed
/// and it ran at least `min_steps` times.
void repeat(double seconds, int min_steps, const std::function<void()>& step) {
  const auto t0 = SteadyClock::now();
  for (int n = 0; n < min_steps || seconds_since(t0) < seconds; ++n) step();
}

void keep_passing(std::vector<Sample>& samples, Sample s) {
  if (s.ok) samples.push_back(std::move(s));
}

std::vector<double> collect(const std::vector<Sample>& samples,
                            const std::function<double(const Sample&)>& get) {
  std::vector<double> v;
  for (const auto& s : samples) v.push_back(get(s));
  return v;
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::remove(path.parent_path(), ec);  // only if no other run uses it
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics, const MetricSpec* specs, std::size_t nspecs) {
  for (std::size_t i = 0; i < nspecs; ++i) {
    std::printf("%-30s %.6g %s\n", specs[i].name, metrics.at(specs[i].name), specs[i].unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < nspecs; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, metrics.at(specs[i].name), specs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("perfbench: wall-clock benchmark of the MR-MPI pipelines on the native backend");
  opts.add("workload", "", "blast_coarse|blast_fine_ft|som_batch|graph_shuffle (required)");
  opts.add("seed", "1", "input seed");
  opts.add("seconds", "10", "measurement window in seconds");
  opts.add("trace", "0", "0 = end-to-end metrics, 1 = per-layer metrics");
  try {
    if (!opts.parse(argc, argv)) return 0;
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report numbers from a build without "
                         "optimisation (build type '%s')\n", PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    const std::string name = opts.str("workload");
    const auto seed = static_cast<std::uint64_t>(opts.integer("seed"));
    const double seconds = opts.real("seconds");
    const bool traced = opts.integer("trace") != 0;
    MRBIO_REQUIRE(seconds > 0.0, "--seconds must be positive");
    perfbench::make_workload(name);  // rejects an unknown name before any output

    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int ranks = std::max(2, hw - 1);
    std::printf("host: cpu=\"%s\" nproc=%d simd=%s build=%s compiler=\"%s\" ranks=%d\n",
                cpu_model().c_str(), hw, simd::isa_name(simd::active_isa()),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, ranks);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", name.c_str(),
                static_cast<unsigned long long>(seed), seconds, static_cast<int>(traced));

    const WorkDir work(fs::path(".bench_work") / (name + "-" + std::to_string(getpid())));

    // A fresh workload set up in `dir`, with the seconds its set-up took
    // (no teardown is timed).
    const auto setup_in = [&](const fs::path& dir) {
      auto fresh = perfbench::make_workload(name);
      fs::remove_all(dir);
      fs::create_directories(dir);
      const auto t0 = SteadyClock::now();
      fresh->setup(dir, seed);
      return std::pair{std::move(fresh), seconds_since(t0)};
    };
    const std::unique_ptr<perfbench::Workload> workload = setup_in(work.path / "inputs").first;

    Metrics metrics;
    workload->reference(traced ? &metrics : nullptr);

    Runner runner(*workload, ranks);
    runner.launch(false);  // warm-up: caches, allocator, lazy set-up
    if (!traced) {
      // One set-up takes milliseconds, so a set-up sample is the mean over a
      // batch of set-ups run back to back. The host's speed drifts over
      // seconds, so a batch runs after every launch and their median spans
      // the whole run.
      std::vector<double> setups;
      const auto setup_batch = [&] {
        double elapsed = 0.0;
        int count = 0;
        for (; elapsed < kSetupBatchSeconds; ++count) {
          elapsed += setup_in(work.path / "setup").second;
        }
        setups.push_back(elapsed / count);
      };
      std::vector<Sample> runs;
      repeat(seconds, 3, [&] {
        keep_passing(runs, runner.launch(false));
        setup_batch();
      });
      metrics["wall_s"] = median(collect(runs, [](const Sample& s) { return s.wall_s; }));
      metrics["cpu_s"] = median(collect(runs, [](const Sample& s) { return s.usage.cpu_s; }));
      metrics["peak_rss_mb"] = median(collect(runs, [](const Sample& s) { return s.rss_mb; }));
      metrics["setup_s"] = median(setups);
      std::printf("launches: %zu measured, median of each metric\n", runs.size());
      print_result(runner.failed() == 0, runner.attempted(), runner.failed(), metrics,
                   kEndToEnd, std::size(kEndToEnd));
    } else {
      // Untraced and traced launches alternate, so drift of the host's
      // speed cancels out of the tracing overhead.
      std::vector<Sample> plain;
      std::vector<Sample> traced_runs;
      repeat(seconds, 2, [&] {
        keep_passing(plain, runner.launch(false));
        keep_passing(traced_runs, runner.launch(true));
      });
      for (const MetricSpec& spec : kPerLayer) {
        std::vector<double> values;
        for (const auto& s : traced_runs) {
          if (const auto it = s.layers.find(spec.name); it != s.layers.end()) {
            values.push_back(it->second);
          }
        }
        if (!values.empty()) metrics[spec.name] = median(values);
        metrics.try_emplace(spec.name, 0.0);
      }
      metrics["proc.sys_s"] = median(collect(plain, [](const Sample& s) { return s.usage.sys_s; }));
      metrics["proc.minor_faults"] =
          median(collect(plain, [](const Sample& s) { return s.usage.minor_faults; }));
      const double plain_wall = median(collect(plain, [](const Sample& s) { return s.wall_s; }));
      const double traced_wall =
          median(collect(traced_runs, [](const Sample& s) { return s.wall_s; }));
      metrics["trace.overhead_frac"] = plain_wall > 0.0 ? traced_wall / plain_wall - 1.0 : 0.0;
      std::printf("launches: %zu untraced, %zu traced, median of each metric\n", plain.size(),
                  traced_runs.size());
      print_result(runner.failed() == 0, runner.attempted(), runner.failed(), metrics,
                   kPerLayer, std::size(kPerLayer));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
