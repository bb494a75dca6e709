// mcl_bench: one workload run of the wall-clock MCL benchmark.
//
//   mcl_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--quick]
//
// Prints progress lines starting with '@' (the parent uses them to count
// planned jobs if this process dies) and, last, one JSON object:
// {"correct","attempted","failed","metrics":{name:{value,unit}},"info":{}}.
// perfbench/run.py is the front end; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gen/datasets.hpp"
#include "io/matrix_market.hpp"
#include "sim/machine.hpp"
#include "svc/scheduler.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace core = mclx::core;
namespace sim = mclx::sim;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool quick = false;
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
  std::vector<std::string> notes;
  void metric(const std::string& n, double v, const std::string& u) {
    metrics.push_back({n, v, u});
  }
  void note(const std::string& s) {
    if (notes.size() < 8) notes.push_back(s);
  }
};

void progress(const std::string& line) {
  std::cout << '@' << line << std::endl;  // flushed: survives a crash
}

/// The highest percentile with at least ten samples beyond it; with
/// fewer than forty samples there is no such tail and the slowest sample
/// stands in (perfbench/README.md).
double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (v.size() < 40) return v.back();
  return v[v.size() - 11];
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

int pool_width() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, hw));
}

/// Runs fn(i) for i in [0, n) on up to four plain threads (checks only).
template <typename Fn>
void parallel_checks(std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < pool_width(); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

// --- inputs ----------------------------------------------------------------

struct Input {
  mclx::gen::Dataset ds;
  std::string mtx_path;  ///< empty for in-memory inputs
};

/// Set-up repetitions per run: file writes and allocation make one
/// set-up noisy, and the median of five holds steady across runs.
constexpr int kSetupReps = 5;

/// Generates (and, with files, writes) every input `reps` times; returns
/// the median set-up seconds and keeps the last set.
template <typename Make>
double timed_setup(int reps, std::vector<Input>& inputs, Make&& make) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    inputs = make();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

// --- untraced jobs -----------------------------------------------------------

struct JobRecord {
  std::size_t input = 0;
  int config = 0;
  bool finished = false;  ///< ran to an outcome (checks decide the rest)
  double wall_s = 0;
  double virtual_s = 0;
  double wait_s = 0, run_s = 0;
  int iterations = 0;
  std::vector<vidx_t> labels;
  vidx_t clusters = 0;
  bool parse_ok = true;
  std::string error;
};

/// Checks every finished job against its input's reference MCL and
/// planted families; a job with the same input as an earlier one must
/// also reproduce it bit for bit. Fills attempted/failed/correct.
void check_jobs(std::vector<JobRecord>& jobs, const std::vector<Input>& inputs,
                const core::MclParams& params, Report& rep) {
  std::vector<char> needed(inputs.size(), 0);
  for (const auto& j : jobs) needed[j.input] = 1;
  std::vector<std::vector<vidx_t>> refs(inputs.size());
  parallel_checks(inputs.size(), [&](std::size_t i) {
    if (needed[i]) refs[i] = reference_mcl(inputs[i].ds.graph.edges, params);
  });
  std::vector<const JobRecord*> first_of(inputs.size() * 3, nullptr);
  double min_reference_f1 = 1, min_planted_f1 = 1;
  for (auto& j : jobs) {
    ++rep.attempted;
    if (!j.finished) {
      ++rep.failed;
      rep.note("job failed: " + j.error);
      continue;
    }
    std::string why;
    if (!j.parse_ok) why = "parsed matrix differs from the written triples";
    const JobCheck c = check_labels(j.labels, j.clusters, refs[j.input],
                                    inputs[j.input].ds.graph.labels);
    if (why.empty() && !c.ok) why = c.why;
    const JobRecord*& first =
        first_of[j.input * 3 + static_cast<std::size_t>(j.config)];
    if (why.empty() && first &&
        (first->labels != j.labels || first->virtual_s != j.virtual_s))
      why = "a rerun of the same input is not bit-identical";
    if (!first) first = &j;
    min_reference_f1 = std::min(min_reference_f1, c.reference_f1);
    min_planted_f1 = std::min(min_planted_f1, c.planted_f1);
    if (!why.empty()) {
      ++rep.failed;
      rep.correct = false;
      rep.note("check failed: " + why);
    }
  }
  rep.info.push_back({"min_reference_f1", min_reference_f1});
  rep.info.push_back({"min_planted_f1", min_planted_f1});
}

void end_to_end_metrics(const std::vector<JobRecord>& jobs, double setup_s,
                        double timed_s, double rss, Report& rep) {
  std::vector<double> wall, virt;
  for (const auto& j : jobs) {
    if (!j.finished) continue;
    wall.push_back(j.wall_s);
    virt.push_back(j.virtual_s);
  }
  rep.metric("setup_s", setup_s, "s");
  rep.metric("job_s", median(wall), "s");
  rep.metric("job_s_tail", tail(wall), "s");
  rep.metric("jobs_per_s",
             timed_s > 0 ? static_cast<double>(wall.size()) / timed_s : 0,
             "1/s");
  rep.metric("peak_rss_mib", rss, "MiB");
  rep.metric("virtual_s", median(virt), "s");
  rep.info.push_back({"jobs_timed", static_cast<double>(wall.size())});
}

// --- workloads ---------------------------------------------------------------

struct EukaryaShape {
  double scale;
  int graphs;
  int nodes;
};

EukaryaShape eukarya_shape(bool quick) {
  return quick ? EukaryaShape{0.05, 2, 4} : EukaryaShape{1.0, 4, 16};
}

std::vector<Input> make_eukarya(const Args& args, bool write_files) {
  const EukaryaShape shape = eukarya_shape(args.quick);
  std::vector<Input> inputs;
  for (int g = 0; g < shape.graphs; ++g) {
    Input in;
    in.ds = mclx::gen::make_dataset(
        "eukarya-mini", shape.scale,
        mix_seed(args.seed, static_cast<std::uint64_t>(g)));
    if (write_files) {
      in.mtx_path = args.workdir + "/eukarya-" + std::to_string(g) + ".mtx";
      write_mtx(in.mtx_path, in.ds.graph.edges);
    }
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// The three service configurations, rotated per job.
struct SvcConfig {
  const char* name;
  core::HipMclConfig config;
  bool cpu_only;
  int nodes;
};

std::vector<SvcConfig> svc_configs() {
  core::HipMclConfig rcm = core::HipMclConfig::optimized();
  rcm.ordering = mclx::order::OrderKind::kRcm;
  return {{"optimized-summit", core::HipMclConfig::optimized(), false, 4},
          {"original-cpu", core::HipMclConfig::original(), true, 4},
          {"optimized-rcm-cpu", rcm, true, 1}};
}

struct SvcShape {
  std::vector<std::pair<const char*, double>> datasets;
  int slots;  ///< distinct seeds per dataset; round r uses slot r % slots
};

SvcShape svc_shape(bool quick) {
  if (quick)
    return {{{"archaea-mini", 0.04}, {"isom-mini", 0.03},
             {"metaclust-mini", 0.012}},
            2};
  return {{{"archaea-mini", 0.1}, {"isom-mini", 0.05},
           {"metaclust-mini", 0.03}},
          96};
}

std::vector<Input> make_svc(const Args& args) {
  const SvcShape shape = svc_shape(args.quick);
  std::vector<Input> inputs;
  for (int s = 0; s < shape.slots; ++s) {
    for (std::size_t d = 0; d < shape.datasets.size(); ++d) {
      Input in;
      in.ds = mclx::gen::make_dataset(
          shape.datasets[d].first, shape.datasets[d].second,
          mix_seed(args.seed, 1000 + static_cast<std::uint64_t>(s * 3) + d));
      inputs.push_back(std::move(in));
    }
  }
  return inputs;
}

constexpr int kSvcRound = 9;  // 3 datasets x 3 configurations

/// Job i of the service stream: its input index and configuration.
std::pair<std::size_t, int> svc_job(long i, int slots) {
  const long round = i / kSvcRound;
  const int pos = static_cast<int>(i % kSvcRound);
  const std::size_t input =
      static_cast<std::size_t>((round % slots) * 3 + pos % 3);
  return {input, pos / 3};
}

/// One file-based eukarya job: parse, cluster, labels.
JobRecord run_file_job(const Input& in, std::size_t idx, int nodes,
                       const core::MclParams& params) {
  JobRecord j;
  j.input = idx;
  try {
    const auto t0 = Clock::now();
    const Triples t = mclx::io::read_matrix_market_file(in.mtx_path);
    sim::SimState s(sim::summit_like(nodes));
    core::MclResult r =
        core::run_hipmcl(t, params, core::HipMclConfig::optimized(), s);
    j.wall_s = seconds_since(t0);
    j.virtual_s = r.elapsed;
    j.iterations = r.iterations;
    j.labels = std::move(r.labels);
    j.clusters = r.num_clusters;
    j.parse_ok = same_triples(t, in.ds.graph.edges);
    j.finished = true;
  } catch (const std::exception& e) {
    j.error = e.what();
  }
  return j;
}

void eukarya_timed(const Args& args, int threads, Report& rep) {
  const EukaryaShape shape = eukarya_shape(args.quick);
  const core::MclParams params;
  std::vector<Input> inputs;
  const double setup_s =
      timed_setup(kSetupReps, inputs, [&] { return make_eukarya(args, true); });
  progress("setup_s " + std::to_string(setup_s));
  mclx::par::set_threads(threads);

  std::vector<JobRecord> jobs;
  const auto t0 = Clock::now();
  for (int round = 0; round == 0 || seconds_since(t0) < args.seconds; ++round) {
    progress("round " + std::to_string(inputs.size()));
    for (std::size_t g = 0; g < inputs.size(); ++g)
      jobs.push_back(run_file_job(inputs[g], g, shape.nodes, params));
  }
  const double timed_s = seconds_since(t0);
  const double rss = peak_rss_mib();
  check_jobs(jobs, inputs, params, rep);
  end_to_end_metrics(jobs, setup_s, timed_s, rss, rep);
  std::uint64_t nnz = 0;
  for (const auto& in : inputs) nnz += in.ds.graph.edges.nnz();
  rep.info.push_back(
      {"vertices", static_cast<double>(inputs[0].ds.graph.edges.nrows())});
  rep.info.push_back({"mean_nnz", static_cast<double>(nnz) /
                                      static_cast<double>(inputs.size())});
  std::vector<double> iters;
  for (const auto& j : jobs) iters.push_back(j.iterations);
  rep.info.push_back({"median_iterations", median(iters)});
}

/// svc-stream reads its peak RSS when this many jobs have completed. The
/// scheduler keeps every finished job, so a figure read at the end of the
/// run would grow with throughput.
constexpr std::size_t kSvcRssJobs = 540;

/// The closed service loop: `clients` threads each submit their next job
/// when the previous one returns, until `seconds` have passed and the
/// current round of nine jobs is complete. `*rss` is the peak RSS once
/// kSvcRssJobs jobs have completed, or at the end if fewer did.
std::vector<JobRecord> svc_loop(const std::vector<Input>& inputs, int slots,
                                int clients, double seconds, double* timed_s,
                                double* rss) {
  const auto configs = svc_configs();
  mclx::svc::SchedulerOptions so;
  so.max_concurrent = clients;
  so.pool_lanes = 1;
  std::vector<JobRecord> jobs;
  std::mutex mu;
  long issued = 0;
  bool closing = false;
  const auto t0 = Clock::now();
  {
    mclx::svc::Scheduler sched(so);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          long i;
          {
            std::lock_guard<std::mutex> lk(mu);
            if (!closing && seconds_since(t0) >= seconds) closing = true;
            if (closing && issued % kSvcRound == 0) return;
            i = issued++;
            if (i % kSvcRound == 0)
              progress("round " + std::to_string(kSvcRound));
          }
          const auto [input, cfg] = svc_job(i, slots);
          const SvcConfig& config = configs[static_cast<std::size_t>(cfg)];
          JobRecord j;
          j.input = input;
          j.config = cfg;
          mclx::svc::JobSpec spec;
          spec.id = "job-" + std::to_string(i);
          spec.graph = inputs[input].ds.graph.edges;
          spec.workload = inputs[input].ds.name;
          spec.config_name = config.name;
          spec.config = config.config;
          spec.cpu_only_machine = config.cpu_only;
          spec.nodes = config.nodes;
          try {
            const auto s0 = Clock::now();
            const std::string id = sched.submit(std::move(spec));
            mclx::svc::JobOutcome out = sched.wait(id);
            j.wall_s = seconds_since(s0);
            j.finished = out.state == mclx::svc::JobState::kDone;
            j.error = out.error;
            j.virtual_s = out.virtual_elapsed_s;
            j.wait_s = out.wait_s;
            j.run_s = out.run_s;
            j.iterations = out.iterations;
            j.labels = std::move(out.labels);
            j.clusters = out.num_clusters;
          } catch (const std::exception& e) {
            j.error = e.what();
          }
          std::lock_guard<std::mutex> lk(mu);
          jobs.push_back(std::move(j));
          if (jobs.size() == kSvcRssJobs) *rss = peak_rss_mib();
        }
      });
    }
    for (auto& t : threads) t.join();
    *timed_s = seconds_since(t0);
    if (jobs.size() < kSvcRssJobs) *rss = peak_rss_mib();
  }
  return jobs;
}

void svc_timed(const Args& args, Report& rep) {
  const SvcShape shape = svc_shape(args.quick);
  std::vector<Input> inputs;
  const double setup_s =
      timed_setup(kSetupReps, inputs, [&] { return make_svc(args); });
  progress("setup_s " + std::to_string(setup_s));
  mclx::par::set_threads(1);
  double timed_s = 0, rss = 0;
  std::vector<JobRecord> jobs = svc_loop(inputs, shape.slots, pool_width(),
                                         args.seconds, &timed_s, &rss);
  check_jobs(jobs, inputs, core::MclParams{}, rep);
  end_to_end_metrics(jobs, setup_s, timed_s, rss, rep);
  rep.info.push_back({"clients", static_cast<double>(pool_width())});
}

// --- traced runs -------------------------------------------------------------

/// Per-job figures of an untraced run taken in the traced run: the
/// simulated stage times and the pool's counters.
struct UntracedTotals {
  sim::StageTimes stages{};
  double cpu_idle = 0, gpu_idle = 0;
  double pool_runs = 0, pool_tasks = 0, cpu_s = 0, wall_s = 0;
  int jobs = 0;
};

std::vector<vidx_t> untraced_run(const ReplayJob& job, UntracedTotals& u) {
  const sim::MachineConfig machine = job.cpu_only
                                         ? sim::summit_like_cpu_only(job.nodes)
                                         : sim::summit_like(job.nodes);
  sim::SimState s(machine);
  auto& pool = mclx::par::pool();
  const auto runs0 = pool.runs(), tasks0 = pool.tasks();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  core::MclResult r = core::run_hipmcl(*job.graph, job.params, job.config, s);
  u.wall_s += seconds_since(t0);
  u.cpu_s += cpu_seconds() - cpu0;
  u.pool_runs += static_cast<double>(pool.runs() - runs0);
  u.pool_tasks += static_cast<double>(pool.tasks() - tasks0);
  for (std::size_t i = 0; i < sim::kNumStages; ++i)
    u.stages[i] += r.stage_times[i];
  u.cpu_idle += r.mean_cpu_idle;
  u.gpu_idle += r.mean_gpu_idle;
  ++u.jobs;
  return std::move(r.labels);
}

void layer_metrics(const LayerTotals& T, const UntracedTotals& u,
                   const Floors& fl, const std::vector<double>& svc_wait,
                   const std::vector<double>& svc_run, Report& rep) {
  const double J = std::max(1, T.jobs);
  const auto per_job = [&](const std::string& k) { return T.get(k) / J; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  rep.metric("io.parse_s", per_job("io.parse_s"), "s");
  rep.metric("io.parse_mb_per_s",
             ratio(T.get("io.bytes") / 1e6, T.get("io.parse_s")), "MB/s");
  const double ordering_jobs = std::max(1.0, T.get("order.jobs"));
  rep.metric("order.compute_s", T.get("order.compute_s") / ordering_jobs, "s");
  rep.metric("order.permute_s", T.get("order.permute_s") / ordering_jobs, "s");
  rep.metric("estimate.cohen_s", per_job("estimate.cohen_s"), "s");
  rep.metric("estimate.cohen_ns_per_nnz",
             ratio(T.get("estimate.cohen_s") * 1e9,
                   T.get("estimate.cohen_nnz")),
             "ns/nnz");
  rep.metric("estimate.symbolic_s", per_job("estimate.symbolic_s"), "s");
  rep.metric("estimate.rel_error",
             ratio(T.get("estimate.rel_error_sum"),
                   T.get("estimate.rel_error_n")),
             "ratio");
  const double local = T.get("spgemm.local_s");
  const double merged = T.get("merge.binary_s") + T.get("merge.multiway_s");
  rep.metric("dist.gather_s", per_job("dist.gather_s"), "s");
  rep.metric("dist.summa_s", per_job("dist.summa_s"), "s");
  rep.metric("dist.summa_other_s",
             std::max(0.0, T.get("dist.summa_s") - local - merged) / J, "s");
  rep.metric("dist.cc_s", per_job("dist.cc_s"), "s");
  rep.metric("spgemm.local_s", local / J, "s");
  rep.metric("spgemm.flops", per_job("spgemm.flops"), "count");
  rep.metric("spgemm.cf", ratio(T.get("spgemm.flops"), T.get("spgemm.out_nnz")),
             "ratio");
  rep.metric("spgemm.bytes_per_flop_computed",
             ratio(T.get("spgemm.bytes"), T.get("spgemm.flops")), "B/flop");
  for (const char* k :
       {"nsparse", "rmerge2", "cpu-hash", "cpu-heap", "cpu-hash-reord"}) {
    const std::string p = std::string("spgemm.") + k;
    const double ns = ratio(T.get(p + ".s") * 1e9, T.get(p + ".flops"));
    rep.metric(p + ".ns_per_flop", ns, "ns/flop");
    rep.metric(p + ".calls", per_job(p + ".calls"), "count");
    rep.metric(p + ".floor_ratio", ratio(ns, fl.scatter_ns_per_op), "ratio");
  }
  rep.metric("floor.scatter_ns_per_op", fl.scatter_ns_per_op, "ns/op");
  rep.metric("floor.stream_gb_per_s", fl.stream_gb_per_s, "GB/s");
  rep.metric("merge.binary_s", per_job("merge.binary_s"), "s");
  rep.metric("merge.binary.ns_per_element",
             ratio(T.get("merge.binary_s") * 1e9,
                   T.get("merge.binary_elements")),
             "ns/element");
  rep.metric("merge.multiway_s", per_job("merge.multiway_s"), "s");
  rep.metric("merge.multiway.ns_per_element",
             ratio(T.get("merge.multiway_s") * 1e9,
                   T.get("merge.multiway_elements")),
             "ns/element");
  rep.metric("merge.peak_elements", T.get("merge.peak_elements"), "count");
  rep.metric("core.prune_s", per_job("core.prune_s"), "s");
  rep.metric("core.prune.ns_per_nnz",
             ratio(T.get("core.prune_s") * 1e9, T.get("core.prune_nnz")),
             "ns/nnz");
  rep.metric("core.inflate_s", per_job("core.inflate_s"), "s");
  rep.metric("core.chaos_s", per_job("core.chaos_s"), "s");
  rep.metric("core.iterations", per_job("core.iterations"), "count");
  for (const char* s :
       {"estimate", "expand", "inflate", "converge", "interpret"})
    rep.metric(std::string("core.stage.") + s + "_s",
               per_job(std::string("core.stage.") + s + "_s"), "s");
  rep.metric("core.unattributed_s", per_job("core.unattributed_s"), "s");
  const double UJ = std::max(1, u.jobs);
  using sim::Stage;
  const auto stage = [&](Stage s) {
    return u.stages[static_cast<std::size_t>(s)] / UJ;
  };
  rep.metric("sim.local_spgemm_s", stage(Stage::kLocalSpGEMM), "s");
  rep.metric("sim.mem_estimation_s", stage(Stage::kMemEstimation), "s");
  rep.metric("sim.summa_bcast_s", stage(Stage::kSummaBcast), "s");
  rep.metric("sim.merge_s", stage(Stage::kMerge), "s");
  rep.metric("sim.prune_s", stage(Stage::kPrune), "s");
  rep.metric("sim.other_s", stage(Stage::kOther), "s");
  rep.metric("sim.cpu_idle_s", u.cpu_idle / UJ, "s");
  rep.metric("sim.gpu_idle_s", u.gpu_idle / UJ, "s");
  rep.metric("svc.wait_s", median(svc_wait), "s");
  rep.metric("svc.run_s", median(svc_run), "s");
  rep.metric("pool.runs", u.pool_runs / UJ, "count");
  rep.metric("pool.tasks", u.pool_tasks / UJ, "count");
  rep.metric("pool.cpu_util", ratio(u.cpu_s, u.wall_s), "ratio");
  rep.info.push_back(
      {"cohen_job_mean_rel_error_max", T.get("estimate.rel_error_max")});
  rep.info.push_back(
      {"scatter_target_bytes", static_cast<double>(fl.scatter_target_bytes)});
  rep.info.push_back({"stream_bytes", static_cast<double>(fl.stream_bytes)});
  rep.info.push_back({"traced_jobs", J});
}

/// Replays `jobs` round-robin, one job per round, for `seconds` (at least
/// one round), each after an untraced run of the same job.
void replay_rounds(std::vector<ReplayJob>& jobs, double seconds,
                   Clock::time_point origin, LayerTotals& T, UntracedTotals& u,
                   std::vector<Span>& spans, Report& rep) {
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n == 0 || seconds_since(t0) < seconds; ++n) {
    progress("round 1");
    ReplayJob& job = jobs[n % jobs.size()];
    ++rep.attempted;
    try {
      job.untraced_labels = untraced_run(job, u);
      const int failed_before = T.failed_checks;
      replay_job(job, static_cast<int>(n), origin, T, spans);
      if (T.failed_checks > failed_before) ++rep.failed;
    } catch (const std::exception& e) {
      ++rep.failed;
      rep.note(std::string("traced job failed: ") + e.what());
    }
  }
  if (T.failed_checks > 0) rep.correct = false;
  for (const auto& [check, n] : T.failures)
    rep.note("layer check failed " + std::to_string(n) + "x: " + check);
}

void eukarya_traced(const Args& args, int threads, Report& rep) {
  const EukaryaShape shape = eukarya_shape(args.quick);
  std::vector<Input> inputs = make_eukarya(args, true);
  const Floors fl = measure_floors(args.quick);
  mclx::par::set_threads(threads);
  std::vector<ReplayJob> jobs;
  for (const auto& in : inputs) {
    ReplayJob j;
    j.graph = &in.ds.graph.edges;
    j.mtx_path = in.mtx_path;
    j.nodes = shape.nodes;
    j.config = core::HipMclConfig::optimized();
    jobs.push_back(std::move(j));
  }
  LayerTotals T;
  UntracedTotals u;
  std::vector<Span> spans;
  const auto origin = Clock::now();
  replay_rounds(jobs, args.seconds, origin, T, u, spans, rep);
  layer_metrics(T, u, fl, {}, {}, rep);
  write_spans(args.workdir + "/../spans-" + args.workload + ".json", spans);
}

void svc_traced(const Args& args, Report& rep) {
  const SvcShape shape = svc_shape(args.quick);
  const std::vector<Input> inputs = make_svc(args);
  const Floors fl = measure_floors(args.quick);
  mclx::par::set_threads(1);
  // Scheduler-level figures from a short closed loop.
  double loop_s = 0, loop_rss = 0;
  std::vector<JobRecord> loop = svc_loop(inputs, shape.slots, pool_width(),
                                         args.seconds / 3, &loop_s, &loop_rss);
  std::vector<double> wait, run;
  for (const auto& j : loop) {
    wait.push_back(j.wait_s);
    run.push_back(j.run_s);
  }
  // Then replay every (input, configuration) pair, the configurations
  // innermost so that even a short run reaches all three.
  const auto configs = svc_configs();
  std::vector<ReplayJob> jobs;
  for (const Input& in : inputs) {
    for (const SvcConfig& config : configs) {
      ReplayJob j;
      j.graph = &in.ds.graph.edges;
      j.cpu_only = config.cpu_only;
      j.nodes = config.nodes;
      j.config = config.config;
      jobs.push_back(std::move(j));
    }
  }
  LayerTotals T;
  UntracedTotals u;
  std::vector<Span> spans;
  const auto origin = Clock::now();
  replay_rounds(jobs, args.seconds * 2 / 3, origin, T, u, spans, rep);
  layer_metrics(T, u, fl, wait, run, rep);
  write_spans(args.workdir + "/../spans-" + args.workload + ".json", spans);
}

// --- output ------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void print_report(const Report& rep) {
  std::string s = std::string("{\"correct\": ") +
                  (rep.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(rep.attempted) +
                  ", \"failed\": " + std::to_string(rep.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    s += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  s += "}, \"info\": {";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    s += (i ? ", " : "") + json_string(rep.info[i].first) + ": " +
         json_number(rep.info[i].second);
  }
  s += "}, \"notes\": [";
  for (std::size_t i = 0; i < rep.notes.size(); ++i)
    s += (i ? ", " : "") + json_string(rep.notes[i]);
  s += "]}";
  std::cout << s << std::endl;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--workdir") a.workdir = value();
    else if (k == "--quick") a.quick = true;
    else throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.workdir);
    Report rep;
    if (args.workload == "eukarya-t1" || args.workload == "eukarya-t4") {
      const int threads = args.workload == "eukarya-t1" ? 1 : pool_width();
      if (args.trace) eukarya_traced(args, threads, rep);
      else eukarya_timed(args, threads, rep);
    } else if (args.workload == "svc-stream") {
      if (args.trace) svc_traced(args, rep);
      else svc_timed(args, rep);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    mclx::par::shutdown();
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
    print_report(rep);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mcl_bench: " << e.what() << "\n";
    return 2;
  }
}
