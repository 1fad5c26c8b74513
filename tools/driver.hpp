// Shared run plumbing of the three MapReduce drivers (mrblast_search,
// mrsom_train, mrgraph_build). A driver registers its domain flags, builds
// its config, runs its rank body through launch() and prints its result
// lines; the harness owns the rest:
//
//   * the 19 shared flags (--backend --ranks --scheduler --trace --report
//     --report-json --timeseries-out --metrics-out --log-json --faults
//     --ft-timeout --ft-retries --ledger-ranks --heartbeat --checkpoint-dir
//     --checkpoint-interval --resume --simd --log);
//   * setup in this order: log level, the --log-json sink (before anything
//     can log), SIMD level;
//   * the fault plan and its one scheduler gate (FaultPlan::requires_ft);
//   * the checkpointer, removed only after the driver's outputs exist;
//   * the recorder, registry and time series, and their writers;
//   * exit codes: 0 success, 1 error, 3 job killed by a kill: fault
//     (restart with --resume to continue from the last checkpoint).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/options.hpp"
#include "mrmpi/mapreduce.hpp"
#include "rt/backend.hpp"

namespace mrbio::driver {

class Driver {
 public:
  /// `tool` prefixes log lines; "<tool>: <summary>" heads --help.
  Driver(std::string tool, const std::string& summary);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// The driver adds its domain flags here before run().
  Options& options() { return opts_; }

  /// Registers the shared flags after the domain ones, parses argv, sets up
  /// logging and SIMD, and runs `body`. Returns the process exit code.
  int run(int argc, char** argv, const std::function<void()>& body);

  int ranks() const { return launch_.nranks; }
  rt::Backend backend() const { return launch_.backend; }
  /// "virtual" on the sim backend, "wall-clock" on native.
  const char* clock() const;

  /// Loads --faults, then opens --checkpoint-dir bound to `fingerprint` (a
  /// dir written under another fingerprint is rejected) and returns it, or
  /// null when no dir is given. A plan that requires_ft() is rejected
  /// unless `policy`, or Auto under a master-worker `style`, schedules
  /// remotely, and fills `ft` from the --ft-* flags; any other plan leaves
  /// `ft` untouched.
  ckpt::Checkpointer* prepare(sched::Policy policy, mrmpi::MapStyle style,
                              sched::FtConfig& ft, const std::string& fingerprint);
  /// True when prepare() found a checkpoint to continue.
  bool resuming() const;

  /// Runs `body` on every rank with the recorder, registry and time series
  /// the observability flags ask for. `trace_full` adds per-message events
  /// to --trace (--report always records them).
  rt::LaunchResult launch(const std::function<void(rt::Rank&)>& body,
                          bool trace_full = false);

  /// Call once the driver's own outputs are written: prints the fault and
  /// checkpoint lines, warns when `abandoned` tasks left the outputs
  /// partial, writes the trace, report, time series and metrics, and only
  /// then removes the checkpoint dir.
  void finish(std::uint64_t abandoned = 0);

 private:
  struct State;

  std::string tool_;
  Options opts_;
  rt::LaunchConfig launch_;
  std::unique_ptr<State> state_;
};

}  // namespace mrbio::driver
