// The benchmark's own yardsticks: Matrix Market writer, serial reference
// MCL, partition scores and the label-array properties.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void write_mtx(const std::string& path, const Triples& t) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  buf += "%%MatrixMarket matrix coordinate real general\n";
  buf += std::to_string(t.nrows()) + " " + std::to_string(t.ncols()) + " " +
         std::to_string(t.nnz()) + "\n";
  const auto put = [&buf](auto v, char sep) {
    char num[32];
    const auto [end, ec] = std::to_chars(num, num + sizeof(num), v);
    if (ec != std::errc()) throw std::runtime_error("write_mtx: number format");
    buf.append(num, end);
    buf.push_back(sep);
  };
  for (const auto& e : t) {
    put(e.row + 1, ' ');
    put(e.col + 1, ' ');
    put(e.val, '\n');  // shortest round-trip form
    if (buf.size() > (1u << 20)) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

namespace {

struct Entry {
  vidx_t row, col;
  val_t val;
  bool operator<(const Entry& o) const {
    return col != o.col ? col < o.col : row < o.row;
  }
  bool operator==(const Entry& o) const {
    return row == o.row && col == o.col && val == o.val;
  }
};

std::vector<Entry> sorted_entries(const Triples& t) {
  std::vector<Entry> v;
  v.reserve(t.nnz());
  for (const auto& e : t) v.push_back({e.row, e.col, e.val});
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

bool same_triples(const Triples& parsed, const Triples& made) {
  if (parsed.nrows() != made.nrows() || parsed.ncols() != made.ncols() ||
      parsed.nnz() != made.nnz())
    return false;
  return sorted_entries(parsed) == sorted_entries(made);
}

// --- serial reference MCL ------------------------------------------------

namespace {

struct Cols {
  vidx_t n = 0;
  std::vector<std::size_t> ptr;
  std::vector<vidx_t> rows;
  std::vector<val_t> vals;
  std::size_t nnz() const { return rows.size(); }
};

void normalize(Cols& m) {
  for (vidx_t j = 0; j < m.n; ++j) {
    double s = 0;
    for (std::size_t p = m.ptr[j]; p < m.ptr[j + 1]; ++p) s += m.vals[p];
    if (s > 0)
      for (std::size_t p = m.ptr[j]; p < m.ptr[j + 1]; ++p) m.vals[p] /= s;
  }
}

}  // namespace

std::vector<vidx_t> reference_mcl(const Triples& graph,
                                  const mclx::core::MclParams& params) {
  if (params.prune.recover_num != 0)
    throw std::invalid_argument("reference_mcl: recovery is not modelled");
  const vidx_t n = graph.nrows();
  std::vector<Entry> init = sorted_entries(graph);
  if (params.add_self_loops) {
    for (vidx_t v = 0; v < n; ++v) init.push_back({v, v, 1.0});
    std::stable_sort(init.begin(), init.end());
  }
  Cols a;
  a.n = n;
  a.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t i = 0; i < init.size();) {
    Entry acc = init[i++];
    while (i < init.size() && init[i].row == acc.row && init[i].col == acc.col)
      acc.val += init[i++].val;
    a.rows.push_back(acc.row);
    a.vals.push_back(acc.val);
    ++a.ptr[static_cast<std::size_t>(acc.col) + 1];
  }
  std::partial_sum(a.ptr.begin(), a.ptr.end(), a.ptr.begin());
  normalize(a);

  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> touched;
  std::vector<std::pair<val_t, vidx_t>> col;
  double prev_chaos = std::numeric_limits<double>::infinity();
  const std::size_t k = static_cast<std::size_t>(params.prune.select_k);
  for (int iter = 0; iter < params.max_iters; ++iter) {
    const std::size_t nnz_before = a.nnz();
    Cols c;
    c.n = n;
    c.ptr.assign(1, 0);
    double chaos = 0;
    for (vidx_t j = 0; j < n; ++j) {
      touched.clear();
      for (std::size_t q = a.ptr[j]; q < a.ptr[j + 1]; ++q) {
        const vidx_t kk = a.rows[q];
        const val_t b = a.vals[q];
        for (std::size_t p = a.ptr[kk]; p < a.ptr[kk + 1]; ++p) {
          const auto r = static_cast<std::size_t>(a.rows[p]);
          if (!seen[r]) {
            seen[r] = 1;
            touched.push_back(a.rows[p]);
          }
          acc[r] += a.vals[p] * b;
        }
      }
      col.clear();
      for (const vidx_t r : touched) {
        const auto ri = static_cast<std::size_t>(r);
        if (std::abs(acc[ri]) >= params.prune.cutoff)
          col.push_back({acc[ri], r});
        acc[ri] = 0;
        seen[ri] = 0;
      }
      const auto before = [](const std::pair<val_t, vidx_t>& x,
                             const std::pair<val_t, vidx_t>& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      };
      if (col.size() > k) {
        std::nth_element(col.begin(), col.begin() + static_cast<long>(k),
                         col.end(), before);
        col.resize(k);
      }
      std::sort(col.begin(), col.end(), [](const auto& x, const auto& y) {
        return x.second < y.second;
      });
      // Inflation: Hadamard power, then column normalization.
      double sum = 0;
      for (auto& [v, r] : col) {
        v = params.inflation == 2.0 ? v * v : std::pow(v, params.inflation);
        sum += v;
      }
      double mx = 0, sq = 0;
      for (auto& [v, r] : col) {
        if (sum > 0) v /= sum;
        mx = std::max(mx, v);
        sq += v * v;
        c.rows.push_back(r);
        c.vals.push_back(v);
      }
      if (!col.empty()) chaos = std::max(chaos, mx - sq);
      c.ptr.push_back(c.rows.size());
    }
    a = std::move(c);
    if (chaos < params.chaos_eps ||
        (chaos == prev_chaos && a.nnz() == nnz_before))
      break;
    prev_chaos = chaos;
  }

  // Connected components of the undirected pattern, numbered by smallest
  // member.
  std::vector<vidx_t> parent(static_cast<std::size_t>(n));
  std::iota(parent.begin(), parent.end(), vidx_t{0});
  const auto find = [&](vidx_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (vidx_t j = 0; j < n; ++j) {
    for (std::size_t p = a.ptr[j]; p < a.ptr[j + 1]; ++p) {
      const vidx_t x = find(a.rows[p]), y = find(j);
      if (x != y)
        parent[static_cast<std::size_t>(std::max(x, y))] = std::min(x, y);
    }
  }
  std::vector<vidx_t> labels(static_cast<std::size_t>(n), -1);
  std::vector<vidx_t> label_of_root(static_cast<std::size_t>(n), -1);
  vidx_t next = 0;
  for (vidx_t v = 0; v < n; ++v) {
    auto& l = label_of_root[static_cast<std::size_t>(find(v))];
    if (l < 0) l = next++;
    labels[static_cast<std::size_t>(v)] = l;
  }
  return labels;
}

// --- partition scores ----------------------------------------------------

namespace {

struct PairCounts {
  double both = 0, in_a = 0, in_b = 0, total = 0;
};

double choose2(double x) { return x * (x - 1) / 2; }

PairCounts pair_counts(const std::vector<vidx_t>& a,
                       const std::vector<vidx_t>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("pair_counts: size mismatch");
  std::unordered_map<std::uint64_t, std::uint64_t> joint;
  std::unordered_map<vidx_t, std::uint64_t> ca, cb;
  for (std::size_t v = 0; v < a.size(); ++v) {
    ++joint[(static_cast<std::uint64_t>(a[v]) << 32) ^
            static_cast<std::uint64_t>(b[v])];
    ++ca[a[v]];
    ++cb[b[v]];
  }
  PairCounts pc;
  for (const auto& [key, c] : joint) pc.both += choose2(static_cast<double>(c));
  for (const auto& [key, c] : ca) pc.in_a += choose2(static_cast<double>(c));
  for (const auto& [key, c] : cb) pc.in_b += choose2(static_cast<double>(c));
  pc.total = choose2(static_cast<double>(a.size()));
  return pc;
}

}  // namespace

double pair_f1(const std::vector<vidx_t>& a, const std::vector<vidx_t>& b) {
  const PairCounts pc = pair_counts(a, b);
  const double precision = pc.in_a > 0 ? pc.both / pc.in_a : 1.0;
  const double recall = pc.in_b > 0 ? pc.both / pc.in_b : 1.0;
  return precision + recall > 0 ? 2 * precision * recall / (precision + recall)
                                 : 0.0;
}

bool labels_dense(const std::vector<vidx_t>& labels, vidx_t n,
                  vidx_t num_clusters) {
  if (static_cast<vidx_t>(labels.size()) != n || num_clusters < 0) return false;
  std::vector<char> used(static_cast<std::size_t>(num_clusters), 0);
  for (const vidx_t l : labels) {
    if (l < 0 || l >= num_clusters) return false;
    used[static_cast<std::size_t>(l)] = 1;
  }
  return std::all_of(used.begin(), used.end(), [](char u) { return u != 0; });
}

JobCheck check_labels(const std::vector<vidx_t>& labels, vidx_t num_clusters,
                      const std::vector<vidx_t>& reference,
                      const std::vector<vidx_t>& planted) {
  JobCheck c;
  if (!labels_dense(labels, static_cast<vidx_t>(reference.size()),
                    num_clusters)) {
    c.why = "label array is not one dense label per vertex";
    return c;
  }
  c.reference_f1 = pair_f1(labels, reference);
  c.planted_f1 = pair_f1(labels, planted);
  if (c.reference_f1 < kMinReferenceF1) {
    c.why = "pair F1 against the reference MCL " +
            std::to_string(c.reference_f1) + " < " +
            std::to_string(kMinReferenceF1);
  } else if (c.planted_f1 < kMinPlantedF1) {
    c.why = "pair F1 against the planted families " +
            std::to_string(c.planted_f1) + " < " +
            std::to_string(kMinPlantedF1);
  } else {
    c.ok = true;
  }
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
