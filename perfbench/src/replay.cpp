// Traced run: one iteration per run_hipmcl call through the program's
// bitwise resume path, stage spans from HipMclConfig::on_stage, and a
// re-timing of each layer's public calls on every iteration's captured
// input, with the layer checks. Also the machine floors and the span
// writer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "core/chaos.hpp"
#include "core/inflate.hpp"
#include "core/prune.hpp"
#include "dist/cc.hpp"
#include "dist/summa.hpp"
#include "estimate/cohen.hpp"
#include "io/matrix_market.hpp"
#include "merge/binary.hpp"
#include "merge/multiway.hpp"
#include "order/order.hpp"
#include "sim/costmodel.hpp"
#include "sim/machine.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/symbolic.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = mclx::core;
namespace dist = mclx::dist;
namespace sim = mclx::sim;
namespace sparse = mclx::sparse;
namespace spgemm = mclx::spgemm;
using CscD = dist::CscD;

namespace {

/// Times fn(), appends its span and returns its wall seconds.
class Timer {
 public:
  Timer(Clock::time_point origin, std::vector<Span>& spans, int job)
      : origin_(origin), spans_(spans), job_(job) {}
  int iter = 0;
  template <typename Fn>
  double time(const std::string& layer, const std::string& name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans_.push_back({name, layer, job_, iter, since(t0), since(t1)});
    return std::chrono::duration<double>(t1 - t0).count();
  }

 private:
  double since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span>& spans_;
  int job_;
};

bool close(double x, double y) {
  return std::abs(x - y) <= 1e-12 * std::max({1.0, std::abs(x), std::abs(y)});
}

/// Sampled columns of one local product against a naive per-column
/// accumulation in B's k order.
bool product_matches_naive(const CscD& a, const CscD& b, const CscD& c) {
  if (c.ncols() != b.ncols() || c.nrows() != a.nrows()) return false;
  constexpr int kSamples = 4;
  for (int s = 0; s < kSamples && b.ncols() > 0; ++s) {
    const vidx_t j = static_cast<vidx_t>(
        (static_cast<std::int64_t>(s) * b.ncols()) / kSamples);
    std::map<vidx_t, double> want;
    const auto brows = b.col_rows(j);
    const auto bvals = b.col_vals(j);
    for (std::size_t q = 0; q < brows.size(); ++q) {
      const auto arows = a.col_rows(brows[q]);
      const auto avals = a.col_vals(brows[q]);
      for (std::size_t p = 0; p < arows.size(); ++p)
        want[arows[p]] += avals[p] * bvals[q];
    }
    const auto crows = c.col_rows(j);
    const auto cvals = c.col_vals(j);
    if (crows.size() != want.size()) return false;
    for (std::size_t p = 0; p < crows.size(); ++p) {
      const auto it = want.find(crows[p]);
      if (it == want.end() || !close(it->second, cvals[p])) return false;
    }
  }
  return true;
}

/// A merged block against the plain sum of its partial products.
bool merged_is_sum(const std::vector<CscD>& parts, const CscD& merged) {
  if (parts.empty()) return merged.nnz() == 0;
  const vidx_t nrows = parts.front().nrows();
  const vidx_t ncols = parts.front().ncols();
  if (merged.nrows() != nrows || merged.ncols() != ncols) return false;
  std::vector<double> acc(static_cast<std::size_t>(nrows), 0.0);
  std::vector<char> hit(static_cast<std::size_t>(nrows), 0);
  for (vidx_t j = 0; j < ncols; ++j) {
    std::size_t distinct = 0;
    for (const CscD& p : parts) {
      const auto rows = p.col_rows(j);
      const auto vals = p.col_vals(j);
      for (std::size_t q = 0; q < rows.size(); ++q) {
        const auto r = static_cast<std::size_t>(rows[q]);
        if (!hit[r]) {
          hit[r] = 1;
          ++distinct;
        }
        acc[r] += vals[q];
      }
    }
    bool ok = merged.col_rows(j).size() == distinct;
    const auto rows = merged.col_rows(j);
    const auto vals = merged.col_vals(j);
    for (std::size_t q = 0; ok && q < rows.size(); ++q) {
      const auto r = static_cast<std::size_t>(rows[q]);
      ok = hit[r] && close(acc[r], vals[q]);
    }
    for (const CscD& p : parts) {
      for (const vidx_t r : p.col_rows(j)) {
        acc[static_cast<std::size_t>(r)] = 0;
        hit[static_cast<std::size_t>(r)] = 0;
      }
    }
    if (!ok) return false;
  }
  return true;
}

bool same_csc(const CscD& x, const CscD& y) {
  return x.nrows() == y.nrows() && x.ncols() == y.ncols() &&
         x.colptr() == y.colptr() && x.rowids() == y.rowids() &&
         x.vals() == y.vals();
}

/// The matrix run_hipmcl iterates on, rebuilt from a chunk's input with
/// the program's own initialization calls.
dist::DistMat captured_input(const Triples& current, bool first,
                             const core::MclParams& params,
                             const std::vector<vidx_t>& perm,
                             const dist::ProcGrid& grid,
                             sim::SimState& replay_sim) {
  Triples init = current;
  if (first && params.add_self_loops) {
    for (vidx_t v = 0; v < init.nrows(); ++v) init.push_unchecked(v, v, 1.0);
    init.sort_and_combine();
  }
  if (!perm.empty()) mclx::order::Permutation(perm).apply_symmetric(init);
  dist::DistMat a = dist::DistMat::from_triples(init, grid);
  if (first) core::distributed_normalize(a, replay_sim);
  return a;
}

constexpr std::uint64_t kBytesPerEntry = sizeof(vidx_t) + sizeof(val_t);

}  // namespace

void replay_job(const ReplayJob& job, int job_index, Clock::time_point origin,
                LayerTotals& T, std::vector<Span>& spans) {
  const sim::MachineConfig machine = job.cpu_only
                                         ? sim::summit_like_cpu_only(job.nodes)
                                         : sim::summit_like(job.nodes);
  const Triples& graph = *job.graph;
  Timer timer(origin, spans, job_index);

  // --- io: re-time the parse of the file the timed job reads ------------
  if (!job.mtx_path.empty()) {
    Triples parsed;
    T.add("io.parse_s", timer.time("io", "read_matrix_market_file", [&] {
      parsed = mclx::io::read_matrix_market_file(job.mtx_path);
    }));
    T.add("io.bytes",
          static_cast<double>(std::filesystem::file_size(job.mtx_path)));
    if (!same_triples(parsed, graph))
      T.fail("parse differs from the triples the benchmark wrote");
  }

  // --- order: the ordering the program computes, on the same matrix -----
  // Only a job whose config resolves to an ordering orders; the others
  // add nothing here (README: order.* divide by ordering jobs).
  std::vector<vidx_t> replay_order;
  const auto okind = mclx::order::resolve_order_kind(job.config.ordering);
  if (okind != mclx::order::OrderKind::kNone) {
    Triples init = graph;
    if (job.params.add_self_loops) {
      for (vidx_t v = 0; v < init.nrows(); ++v) init.push_unchecked(v, v, 1.0);
      init.sort_and_combine();
    }
    const CscD pattern = sparse::csc_from_triples(Triples(init));
    mclx::order::Permutation perm;
    T.add("order.compute_s", timer.time("order", "compute_order", [&] {
      perm = mclx::order::compute_order(okind, pattern);
    }));
    T.add("order.permute_s", timer.time("order", "apply_symmetric", [&] {
      perm.apply_symmetric(init);
    }));
    T.add("order.jobs", 1);
    replay_order = perm.new_of_old();
  }

  // --- traced run: one iteration per call, resume path ------------------
  core::HipMclConfig cfg = job.config;
  cfg.keep_final_matrix = true;
  core::MclParams prm = job.params;
  prm.max_iters = 1;
  std::vector<std::pair<mclx::obs::RunStage, Clock::time_point>> marks;
  cfg.on_stage = [&marks](mclx::obs::RunStage s) {
    marks.emplace_back(s, Clock::now());
  };
  const dist::ProcGrid grid(machine.total_ranks());
  sim::SimState run_sim(machine);
  Triples current = graph;
  std::vector<vidx_t> perm;
  std::vector<vidx_t> labels;
  std::optional<CscD> expected_next;
  const sim::CostModel model(machine);
  double job_cohen_err = 0;
  int job_cohen_n = 0;
  int done = 0;
  while (done < job.params.max_iters) {
    const bool first = done == 0;
    prm.add_self_loops = job.params.add_self_loops && first;
    cfg.start_iteration = done;
    cfg.assume_stochastic = !first;
    cfg.resume_order = perm;
    marks.clear();
    const auto call0 = Clock::now();
    core::MclResult chunk = core::run_hipmcl(current, prm, cfg, run_sim);
    const auto call1 = Clock::now();
    spans.push_back({"run_hipmcl", "core", job_index, done + 1,
                     std::chrono::duration<double>(call0 - origin).count(),
                     std::chrono::duration<double>(call1 - origin).count()});
    if (!marks.empty()) {
      const auto unattributed = marks.front().second - call0;
      T.add("core.unattributed_s",
            std::chrono::duration<double>(unattributed).count());
      for (std::size_t m = 0; m < marks.size(); ++m) {
        const auto end = m + 1 < marks.size() ? marks[m + 1].second : call1;
        const std::string stage(mclx::obs::to_string(marks[m].first));
        T.add("core.stage." + stage + "_s",
              std::chrono::duration<double>(end - marks[m].second).count());
        spans.push_back(
            {stage, "stage", job_index, done + 1,
             std::chrono::duration<double>(marks[m].second - origin).count(),
             std::chrono::duration<double>(end - origin).count()});
      }
    }
    if (first && chunk.order_perm != replay_order)
      T.fail("replayed ordering differs from the program's");
    if (perm.empty()) perm = chunk.order_perm;
    if (chunk.iters.empty()) throw std::runtime_error("chunk ran no iteration");
    const core::IterationReport& rep = chunk.iters.front();

    // --- replay this iteration's layers on its captured input -----------
    timer.iter = done + 1;
    sim::SimState replay_sim(machine);
    const dist::DistMat a =
        captured_input(current, first, job.params, perm, grid, replay_sim);
    CscD ga;
    T.add("dist.gather_s", timer.time("dist", "DistMat::to_csc",
                                      [&] { ga = a.to_csc(); }));
    if (expected_next && !same_csc(ga, *expected_next))
      T.fail("replayed iteration differs from the program's iteration");

    if (rep.used_exact_estimator) {
      std::uint64_t nnz = 0;
      T.add("estimate.symbolic_s", timer.time("estimate", "symbolic_nnz", [&] {
        nnz = spgemm::symbolic_nnz(ga, ga);
      }));
      if (nnz != rep.measured_unpruned_nnz)
        T.fail("symbolic nnz differs from the measured unpruned nnz");
    } else {
      mclx::estimate::CohenEstimate est;
      const std::uint64_t seed =
          mclx::util::derive_seed(cfg.seed, static_cast<std::uint64_t>(done));
      T.add("estimate.cohen_s",
            timer.time("estimate", "cohen_nnz_estimate", [&] {
              est = mclx::estimate::cohen_nnz_estimate(ga, ga, cfg.cohen_keys,
                                                       seed);
            }));
      T.add("estimate.cohen_nnz", static_cast<double>(ga.nnz()));
      const double actual = static_cast<double>(rep.measured_unpruned_nnz);
      const double err = actual > 0 ? std::abs(est.total - actual) / actual : 0;
      job_cohen_err += err;
      ++job_cohen_n;
      if (est.total != rep.est_unpruned_nnz)
        T.fail("replayed Cohen estimate differs from the program's");
    }

    // Local multiplies, once per block pair, and their merges per rank.
    spgemm::KernelPolicy policy = cfg.kernel;
    if (!perm.empty()) policy.hybrid.reordered = true;
    const int dim = grid.dim();
    std::vector<spgemm::LocalMultiplier> mults;
    for (int r = 0; r < grid.nranks(); ++r) mults.emplace_back(model, policy);
    for (int phase = 0; phase < rep.phases; ++phase) {
      std::vector<std::vector<CscD>> parts(
          static_cast<std::size_t>(grid.nranks()));
      for (int k = 0; k < dim; ++k) {
        std::vector<CscD> acsc;
        std::vector<CscD> bchunk;
        for (int i = 0; i < dim; ++i)
          acsc.push_back(sparse::csc_from_dcsc(a.block(i, k)));
        for (int j = 0; j < dim; ++j) {
          const CscD full = sparse::csc_from_dcsc(a.block(k, j));
          const auto [c0, c1] =
              dist::phase_col_range(full.ncols(), phase, rep.phases);
          bchunk.push_back(sparse::csc_col_slice(full, c0, c1));
        }
        for (int i = 0; i < dim; ++i) {
          for (int j = 0; j < dim; ++j) {
            const int r = grid.rank_of(i, j);
            const CscD& ab = acsc[static_cast<std::size_t>(i)];
            const CscD& bb = bchunk[static_cast<std::size_t>(j)];
            spgemm::LocalSpgemmResult lr;
            auto& mult = mults[static_cast<std::size_t>(r)];
            const double dt =
                timer.time("spgemm", "LocalMultiplier::multiply",
                           [&] { lr = mult.multiply(ab, bb, rep.cf); });
            const std::string kname(spgemm::kernel_name(lr.used));
            T.add("spgemm.local_s", dt);
            T.add("spgemm.flops", static_cast<double>(lr.flops));
            T.add("spgemm.out_nnz", static_cast<double>(lr.c.nnz()));
            T.add("spgemm.bytes",
                  static_cast<double>(kBytesPerEntry *
                                      (lr.flops + bb.nnz() + lr.c.nnz())));
            T.add("spgemm." + kname + ".s", dt);
            T.add("spgemm." + kname + ".flops", static_cast<double>(lr.flops));
            T.add("spgemm." + kname + ".calls", 1);
            if (!product_matches_naive(ab, bb, lr.c))
              T.fail("local product (" + kname +
                     ") differs from a naive product");
            parts[static_cast<std::size_t>(r)].push_back(std::move(lr.c));
          }
        }
      }
      for (auto& rank_parts : parts) {
        std::vector<CscD> inputs = rank_parts;  // copied outside the timing
        CscD merged;
        mclx::merge::MergeStats stats;
        if (cfg.binary_merge) {
          mclx::merge::BinaryMerger<vidx_t, val_t> m;
          T.add("merge.binary_s", timer.time("merge", "BinaryMerger", [&] {
            for (auto& p : inputs) m.push(std::move(p));
            merged = m.finalize().first;
          }));
          stats = m.stats();
          T.add("merge.binary_elements",
                static_cast<double>(stats.elements_processed));
        } else {
          mclx::merge::MultiwayMerger<vidx_t, val_t> m;
          T.add("merge.multiway_s", timer.time("merge", "MultiwayMerger", [&] {
            for (auto& p : inputs) m.push(std::move(p));
            merged = m.finalize();
          }));
          stats = m.stats();
          T.add("merge.multiway_elements",
                static_cast<double>(stats.elements_processed));
        }
        T.sum["merge.peak_elements"] =
            std::max(T.get("merge.peak_elements"),
                     static_cast<double>(stats.peak_elements));
        if (!merged_is_sum(rank_parts, merged))
          T.fail("merged block is not the sum of its partial products");
      }
    }

    // SUMMA with a timed fused prune as its PhaseSink.
    dist::SummaOptions opt;
    opt.pipelined = cfg.pipelined;
    opt.binary_merge = cfg.binary_merge;
    opt.kernel = policy;
    opt.phases = rep.phases;
    opt.cf_estimate = rep.cf;
    double prune_s = 0;
    std::uint64_t unpruned = 0;
    const int select_k = job.params.prune.select_k;
    std::optional<dist::SummaResult> res;
    const double summa_all = timer.time("dist", "summa_multiply", [&] {
      res.emplace(dist::summa_multiply(
          a, a, replay_sim, opt, [&](int, std::vector<CscD>& chunks) {
            for (const CscD& c : chunks) unpruned += c.nnz();
            prune_s += timer.time("core", "prune_chunks", [&] {
              core::prune_chunks(chunks, grid, job.params.prune, replay_sim);
            });
            // At most select_k entries per column across the grid column.
            const auto chunk = [&](int i, int j) -> const CscD& {
              return chunks[static_cast<std::size_t>(grid.rank_of(i, j))];
            };
            for (int j = 0; j < dim; ++j) {
              for (vidx_t c = 0; c < chunk(0, j).ncols(); ++c) {
                vidx_t kept = 0;
                for (int i = 0; i < dim; ++i) kept += chunk(i, j).col_nnz(c);
                if (kept > select_k) {
                  T.fail("a column holds more than select_k entries after "
                         "prune");
                  return;
                }
              }
            }
          }));
    });
    T.add("dist.summa_s", summa_all - prune_s);
    T.add("core.prune_s", prune_s);
    T.add("core.prune_nnz", static_cast<double>(unpruned));
    if (unpruned != rep.measured_unpruned_nnz)
      T.fail("replayed SUMMA unpruned nnz differs from the program's");

    T.add("core.inflate_s", timer.time("core", "distributed_inflate", [&] {
      core::distributed_inflate(res->c, job.params.inflation, replay_sim);
    }));
    {
      const CscD c = res->c.to_csc();
      const auto sums = sparse::column_sums(c);
      for (vidx_t j = 0; j < c.ncols(); ++j) {
        const double sum = sums[static_cast<std::size_t>(j)];
        if (c.col_nnz(j) > 0 && std::abs(sum - 1.0) > 1e-9) {
          T.fail("a column does not sum to 1 after inflate");
          break;
        }
      }
      expected_next = c;
    }
    double chaos = 0;
    T.add("core.chaos_s", timer.time("core", "distributed_chaos", [&] {
      chaos = core::distributed_chaos(res->c, replay_sim);
    }));
    if (chaos != rep.chaos) T.fail("replayed chaos differs from the program's");
    T.add("dist.cc_s", timer.time("dist", "connected_components", [&] {
      (void)dist::connected_components(res->c, replay_sim);
    }));

    ++done;
    labels = std::move(chunk.labels);
    if (chunk.converged) break;
    current = chunk.final_matrix->to_triples();
  }
  T.add("core.iterations", done);
  if (job_cohen_n > 0) {
    const double mean_err = job_cohen_err / job_cohen_n;
    T.add("estimate.rel_error_sum", mean_err);
    T.add("estimate.rel_error_n", 1);
    T.sum["estimate.rel_error_max"] =
        std::max(T.get("estimate.rel_error_max"), mean_err);
    if (mean_err > kMaxCohenRelError)
      T.fail("Cohen estimate's mean relative error above the stated bound");
  }
  if (labels != job.untraced_labels)
    T.fail("traced labels are not bit-identical to the untraced run's");
  ++T.jobs;
}

// --- machine floors ------------------------------------------------------

namespace {

std::uint64_t llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s) || s.empty()) return std::uint64_t{32} << 20;
  std::uint64_t v = std::stoull(s);
  if (s.back() == 'K') v <<= 10;
  if (s.back() == 'M') v <<= 20;
  return v;
}

}  // namespace

Floors measure_floors(bool quick) {
  Floors f;
  // Dense scatter-add into a 512 KiB target (the size of a SPA row range
  // that stays cache resident), 4 Mi random updates per pass.
  {
    const std::size_t target = std::size_t{1} << 16;
    const std::size_t ops = quick ? std::size_t{1} << 18 : std::size_t{1} << 22;
    std::vector<double> y(target, 0.0);
    std::vector<std::uint32_t> idx(ops);
    std::vector<double> x(ops);
    std::mt19937_64 rng(12345);
    for (std::size_t i = 0; i < ops; ++i) {
      idx[i] = static_cast<std::uint32_t>(rng() & (target - 1));
      x[i] = static_cast<double>(i & 7) * 0.5;
    }
    std::vector<double> runs;
    for (int pass = 0; pass < 5; ++pass) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < ops; ++i) y[idx[i]] += x[i];
      runs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
    }
    volatile double sink = y[static_cast<std::size_t>(ops) & (target - 1)];
    (void)sink;
    f.scatter_ns_per_op = median(runs);
    f.scatter_target_bytes = target * sizeof(double);
  }
  // Streaming read of one array at least four times the last-level cache,
  // with eight independent sums so the adds never limit the rate.
  {
    const std::uint64_t bytes =
        quick ? std::uint64_t{16} << 20 : 4 * llc_bytes();
    const std::size_t n =
        static_cast<std::size_t>(bytes / sizeof(double)) & ~std::size_t{7};
    std::vector<double> src(n, 1.0);
    std::vector<double> runs;
    double total = 0;
    for (int pass = 0; pass < 3; ++pass) {
      const auto t0 = Clock::now();
      double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::size_t i = 0; i < n; i += 8)
        for (std::size_t l = 0; l < 8; ++l) acc[l] += src[i + l];
      const double s = seconds_since(t0);
      runs.push_back(static_cast<double>(n * sizeof(double)) / s / 1e9);
      for (const double a : acc) total += a;
    }
    if (total != 3.0 * static_cast<double>(n))
      throw std::runtime_error("stream floor: wrong sum");
    f.stream_gb_per_s = median(runs);
    f.stream_bytes = n * sizeof(double);
  }
  return f;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", s.t0 * 1e6);
    const std::string ts(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", (s.t1 - s.t0) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":" << s.job << ",\"tid\":\""
        << s.layer << "\",\"ts\":" << ts << ",\"dur\":" << buf
        << ",\"args\":{\"iter\":" << s.iter << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
