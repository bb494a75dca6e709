// Shared declarations of the wall-clock MCL benchmark (perfbench/README.md).
//
// The benchmark drives the mclx library only through its public headers.
// Everything that judges the program's output — the Matrix Market writer,
// the serial reference MCL, the partition scores, the layer checks and the
// machine floors — is the benchmark's own code, so a fault in the program
// cannot hide behind a fault in the yardstick.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/hipmcl.hpp"
#include "gen/planted.hpp"
#include "util/types.hpp"

namespace perfbench {

using mclx::val_t;
using mclx::vidx_t;
using Triples = mclx::sparse::Triples<vidx_t, val_t>;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 step: the benchmark's own seed derivation, so inputs depend
/// on --seed and the input index only.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --- inputs and checks (checks.cpp) ------------------------------------

/// Writes "coordinate real general" with 1-based indices and shortest
/// round-trip values, so a correct parse returns exactly `t`.
void write_mtx(const std::string& path, const Triples& t);

/// True when `parsed` holds exactly the entries of `made` (any order).
bool same_triples(const Triples& parsed, const Triples& made);

/// Serial reference MCL with the program's rules: self loops of weight 1,
/// column normalization, expansion by plain per-column accumulation,
/// cutoff (|v| >= cutoff), top-k by (value desc, row asc), inflation,
/// chaos = max over columns of (max − Σv²), the same two stopping rules,
/// and connected components numbered by smallest member. Returns labels.
std::vector<vidx_t> reference_mcl(const Triples& graph,
                                  const mclx::core::MclParams& params);

/// Pair F1 of partition `a` against partition `b`: counts only the pairs
/// that share a cluster, so splitting or merging clusters costs in
/// proportion to the within-cluster pairs it moves. Symmetric in a, b.
double pair_f1(const std::vector<vidx_t>& a, const std::vector<vidx_t>& b);
/// One label per vertex, labels 0..k-1 each used, k == num_clusters.
bool labels_dense(const std::vector<vidx_t>& labels, vidx_t n,
                  vidx_t num_clusters);

/// Stated tolerances of the output checks. Pair F1 against the reference
/// MCL is the correctness check; it has read 1.0 on every job so far, and
/// splitting one cluster in ten in half brings it to 0.976–0.984 on the
/// eukarya analog (its Rand index stays above 0.9993). The planted-family F1 flags a degenerate clustering:
/// correct MCL scores 0.998+ on the eukarya analog but as low as 0.89 on
/// one 600-vertex metaclust analog in a few thousand, where the families
/// are small.
inline constexpr double kMinReferenceF1 = 0.99;
inline constexpr double kMinPlantedF1 = 0.75;
/// Bound on the mean, over a job's iterations, of the Cohen estimate's
/// relative error against the measured unpruned nnz. With the program's
/// 5 keys a single iteration of a 400-vertex graph can be off by more
/// than 100% and a job mean 0.37 was seen; the bound catches a gross
/// fault (an estimate of 0, or off by 2x), not the estimator's spread.
inline constexpr double kMaxCohenRelError = 0.75;

/// Verdict of one job's output against its reference and its families.
struct JobCheck {
  bool ok = false;
  double reference_f1 = 0;
  double planted_f1 = 0;
  std::string why;  ///< first failed check, empty when ok
};
JobCheck check_labels(const std::vector<vidx_t>& labels, vidx_t num_clusters,
                      const std::vector<vidx_t>& reference,
                      const std::vector<vidx_t>& planted);

/// Median (the mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> v);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

// --- per-layer replay (replay.cpp) -------------------------------------

/// Named accumulators of the traced run. Times are wall seconds summed
/// over the replayed jobs; counts are summed; the report divides by jobs.
struct LayerTotals {
  std::map<std::string, double> sum;
  int jobs = 0;
  int failed_checks = 0;
  std::map<std::string, int> failures;  ///< check -> times it failed
  void add(const std::string& key, double v) { sum[key] += v; }
  double get(const std::string& key) const {
    const auto it = sum.find(key);
    return it == sum.end() ? 0.0 : it->second;
  }
  void fail(const std::string& check) {
    ++failed_checks;
    ++failures[check];
  }
};

/// One span of the traced run, kept in memory and written at exit.
struct Span {
  std::string name;
  std::string layer;
  int job = 0;
  int iter = 0;
  double t0 = 0, t1 = 0;  ///< seconds since the traced run began
};

/// Everything a replayed job needs: the input (as triples and as the
/// Matrix Market file the timed job parses), the simulated machine and
/// the configuration the timed job used, and that job's labels.
struct ReplayJob {
  const Triples* graph = nullptr;
  std::string mtx_path;  ///< empty: in-memory job (no parse to re-time)
  bool cpu_only = false;
  int nodes = 16;
  mclx::core::HipMclConfig config;
  mclx::core::MclParams params;
  std::vector<vidx_t> untraced_labels;
};

/// Replays one job one iteration per run_hipmcl call, re-times each
/// layer's public calls on every iteration's captured input and runs the
/// layer checks. Adds into `totals` and appends spans.
void replay_job(const ReplayJob& job, int job_index, Clock::time_point origin,
                LayerTotals& totals, std::vector<Span>& spans);

/// Machine floors: dense scatter-add ns/op and streaming GB/s.
struct Floors {
  double scatter_ns_per_op = 0;
  double stream_gb_per_s = 0;
  std::uint64_t scatter_target_bytes = 0;
  std::uint64_t stream_bytes = 0;  ///< the streamed array
};
Floors measure_floors(bool quick);

/// Writes the spans as a Chrome trace-event JSON.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
