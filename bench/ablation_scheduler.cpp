// Ablation: the MapReduce-MPI scheduling policies on the BLAST workload.
// The paper uses the master-worker mode because BLAST unit costs are
// "highly non-uniform and unpredictable"; this quantifies what the static
// modes would have cost, profiles the master's grant service times, and
// sweeps rank counts until the centralized master saturates and the
// decentralized work-stealing scheduler overtakes it.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/options.hpp"
#include "mrblast/mrblast.hpp"
#include "obs/metrics.hpp"
#include "sched/sched.hpp"

using namespace mrbio;

namespace {

struct PolicyRun {
  double elapsed = 0.0;
  std::uint64_t grants = 0;       ///< master grant-service events
  double service_mean = 0.0;      ///< rank-0 per-grant service time (s)
  double service_p99 = 0.0;
  std::uint64_t steals_attempted = 0;
  std::uint64_t steals_succeeded = 0;
  std::uint64_t tasks_stolen = 0;
  std::uint64_t token_rounds = 0;  ///< termination-token rounds rank 0 launched

  double grants_per_second() const {
    return elapsed > 0.0 ? static_cast<double>(grants) / elapsed : 0.0;
  }
  double steals_per_second() const {
    return elapsed > 0.0 ? static_cast<double>(steals_succeeded) / elapsed : 0.0;
  }
};

PolicyRun run_policy(sched::Policy policy, int cores,
                     const workload::BlastWorkloadConfig& wl) {
  mrblast::SimRunConfig config;
  config.workload = wl;
  config.scheduler = policy;

  obs::Registry registry;
  sim::EngineConfig ec;
  ec.nprocs = cores;
  ec.net = bench::paper_net();
  ec.stack_bytes = 256 * 1024;
  ec.metrics = &registry;
  sim::Engine engine(ec);
  engine.run([&](sim::Process& p) {
    mpi::Comm comm(p);
    mrblast::run_blast_sim(comm, config);
  });

  PolicyRun out;
  out.elapsed = engine.elapsed();
  if (const obs::Histogram* h = registry.find_histogram("mrmpi.master_service_seconds")) {
    out.grants = h->count();
    out.service_mean = h->mean();
    out.service_p99 = h->quantile(0.99);
  }
  if (const obs::Counter* c = registry.find_counter("sched.steals_attempted")) {
    out.steals_attempted = c->value();
  }
  if (const obs::Counter* c = registry.find_counter("sched.steals_succeeded")) {
    out.steals_succeeded = c->value();
  }
  if (const obs::Counter* c = registry.find_counter("sched.tasks_stolen")) {
    out.tasks_stolen = c->value();
  }
  if (const obs::Counter* c = registry.find_counter("sched.token_rounds")) {
    out.token_rounds = c->value();
  }
  return out;
}

/// Fig. 3-scale workload: 40K queries in 1000-query blocks against 109
/// partitions — 4360 coarse units of ~12 s mean compute.
workload::BlastWorkloadConfig paper_workload(double sigma) {
  workload::BlastWorkloadConfig wl;
  wl.total_queries = 40'000;
  wl.lognormal_sigma = sigma;
  return wl;
}

/// Fine-grained stress workload for the crossover sweep: one query per
/// block and a RAM-resident database, so every grant round-trip matters
/// and the master's serial service rate becomes the limit.
workload::BlastWorkloadConfig fine_workload(std::uint64_t queries, double unit_cost) {
  workload::BlastWorkloadConfig wl;
  wl.total_queries = queries;
  wl.queries_per_block = 1;
  wl.mean_seconds_per_query = unit_cost;
  wl.lognormal_sigma = 1.0;
  wl.cold_load_seconds = 0.0;
  wl.warm_load_seconds = 0.0;
  return wl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(
      "ablation_scheduler: scheduling policies (chunk/stride/master-worker/steal) "
      "on MR-MPI BLAST");
  opts.add("max-cores", "512", "largest core count for the paper-scale tables");
  opts.add("max-ranks", "4096", "largest core count for the crossover sweep");
  opts.add("xover-queries", "4000", "queries in the fine-grained sweep workload");
  opts.add("xover-cost", "0.001", "mean unit compute seconds in the sweep");
  if (!opts.parse(argc, argv)) return 0;
  const auto max_cores = opts.integer("max-cores");
  const auto max_ranks = opts.integer("max-ranks");
  const auto xover_queries = static_cast<std::uint64_t>(opts.integer("xover-queries"));
  const double xover_cost = opts.real("xover-cost");

  for (const double sigma : {0.35, 1.0}) {
    std::printf(
        "=== Ablation: policy, 40K queries x 109 partitions, unit-cost sigma %.2f "
        "(wall min) ===\n",
        sigma);
    bench::print_row({"cores", "chunk", "stride", "master", "steal", "dyn gain"});
    const auto wl = paper_workload(sigma);
    for (const int cores : {32, 128, 512}) {
      if (cores > max_cores) break;
      const double tc = run_policy(sched::Policy::Chunk, cores, wl).elapsed;
      const double ts = run_policy(sched::Policy::Stride, cores, wl).elapsed;
      const double tm = run_policy(sched::Policy::Master, cores, wl).elapsed;
      const double tw = run_policy(sched::Policy::Steal, cores, wl).elapsed;
      bench::print_row({std::to_string(cores), bench::fmt(bench::seconds_to_minutes(tc)),
                        bench::fmt(bench::seconds_to_minutes(ts)),
                        bench::fmt(bench::seconds_to_minutes(tm)),
                        bench::fmt(bench::seconds_to_minutes(tw)),
                        bench::fmt(100.0 * (std::min(tc, ts) / std::min(tm, tw) - 1.0), 1) +
                            "%"});
    }
    std::printf("\n");
  }

  std::printf(
      "=== Master grant service (rank 0), 40K queries, sigma 1.00 ===\n");
  bench::print_row({"cores", "grants", "mean us", "p99 us", "grants/s"});
  for (const int cores : {32, 128, 512}) {
    if (cores > max_cores) break;
    const PolicyRun m = run_policy(sched::Policy::Master, cores, paper_workload(1.0));
    bench::print_row({std::to_string(cores), std::to_string(m.grants),
                      bench::fmt(m.service_mean * 1e6, 2), bench::fmt(m.service_p99 * 1e6, 2),
                      bench::fmt(m.grants_per_second(), 1)});
  }
  std::printf(
      "\nAt paper granularity (~12 s units) the master serves a few grants per\n"
      "second and is nowhere near its ~1/service ceiling, which is why the\n"
      "paper's centralized scheduler scales to 1024 cores.\n\n");

  std::printf(
      "=== Crossover: master vs steal, %llu 1-query blocks x 109 partitions, "
      "%.0f ms units, RAM-resident DB (wall s) ===\n",
      static_cast<unsigned long long>(xover_queries), xover_cost * 1e3);
  bench::print_row({"ranks", "master", "steal", "grants/s", "p99 us", "steals/s",
                    "stolen", "tokens", "winner"},
                   11);
  const auto fine = fine_workload(xover_queries, xover_cost);
  int crossover = 0;
  for (const int ranks : {256, 512, 1024, 2048, 4096}) {
    if (ranks > max_ranks) break;
    const PolicyRun m = run_policy(sched::Policy::Master, ranks, fine);
    const PolicyRun w = run_policy(sched::Policy::Steal, ranks, fine);
    const bool steal_wins = w.elapsed < m.elapsed;
    if (steal_wins && crossover == 0) crossover = ranks;
    bench::print_row({std::to_string(ranks), bench::fmt(m.elapsed, 3),
                      bench::fmt(w.elapsed, 3), bench::fmt(m.grants_per_second(), 0),
                      bench::fmt(m.service_p99 * 1e6, 1), bench::fmt(w.steals_per_second(), 0),
                      std::to_string(w.tasks_stolen), std::to_string(w.token_rounds),
                      steal_wins ? "steal" : "master"},
                     11);
  }
  if (crossover > 0) {
    std::printf(
        "\nCrossover at %d ranks: past the point where rank 0 must grant a unit\n"
        "every ~unit_cost/p seconds, the centralized master serializes the map\n"
        "while the work-stealing ranks keep scheduling among themselves.\n",
        crossover);
  } else {
    std::printf(
        "\nNo crossover up to the swept rank count: the master's grant rate still\n"
        "exceeds the aggregate task completion rate at this granularity.\n");
  }
  return 0;
}
