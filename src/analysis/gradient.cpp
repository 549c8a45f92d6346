#include "analysis/gradient.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "analysis/measure.h"
#include "analysis/parallel_runner.h"
#include "util/stats.h"

namespace wlsync::analysis {

namespace {

/// BFS sources per block: one bit of a uint64_t mask each.
constexpr std::int32_t kBlock = 64;

/// Grid row of each node id, -1 for unmeasured nodes.  Throws on ids the
/// topology does not have and on repeated ids (a pair needs two nodes).
std::vector<std::int32_t> rows_by_node(const net::Topology& topo,
                                       const std::vector<std::int32_t>& ids) {
  std::vector<std::int32_t> row_of(
      static_cast<std::size_t>(std::max(topo.n(), 0)), -1);
  for (std::size_t r = 0; r < ids.size(); ++r) {
    const std::int32_t id = ids[r];
    if (id < 0 || id >= topo.n()) {
      throw std::invalid_argument("gradient: measured id out of range");
    }
    std::int32_t& row = row_of[static_cast<std::size_t>(id)];
    if (row >= 0) throw std::invalid_argument("gradient: repeated measured id");
    row = static_cast<std::int32_t>(r);
  }
  return row_of;
}

/// What the all-sources sweep yields, indexed by raw hop distance: the
/// measured pairs at each distance and, when a local-time grid is folded,
/// the per-sample max |L_i - L_j| over them (row d, grid.cols wide).
struct DistanceSweep {
  std::vector<std::int64_t> count_by_raw;
  std::vector<double> skew_by_raw;
  std::int32_t diameter = 0;

  /// Max-merge (skew), sum (counts): order-insensitive, so the merged
  /// sweep is independent of how blocks were spread over shards.
  void merge(const DistanceSweep& other) {
    if (other.count_by_raw.size() > count_by_raw.size()) {
      count_by_raw.resize(other.count_by_raw.size(), 0);
    }
    for (std::size_t d = 0; d < other.count_by_raw.size(); ++d) {
      count_by_raw[d] += other.count_by_raw[d];
    }
    if (other.skew_by_raw.size() > skew_by_raw.size()) {
      skew_by_raw.resize(other.skew_by_raw.size(), 0.0);
    }
    for (std::size_t c = 0; c < other.skew_by_raw.size(); ++c) {
      skew_by_raw[c] = std::max(skew_by_raw[c], other.skew_by_raw[c]);
    }
    diameter = std::max(diameter, other.diameter);
  }
};

/// One shard's BFS and fold state, reused across the blocks it claims.
/// visited/frontier/next hold one bit per block source for every node.
class BlockSweeper {
 public:
  BlockSweeper(const net::Topology& topo,
               const std::vector<std::int32_t>& row_of,
               const LocalTimeGrid* grid)
      : topo_(topo),
        row_of_(row_of),
        grid_(grid),
        cols_(grid != nullptr ? grid->cols : 0),
        visited_(row_of.size(), 0),
        frontier_(row_of.size(), 0),
        next_(row_of.size(), 0),
        hi_(static_cast<std::size_t>(kBlock) * cols_),
        lo_(static_cast<std::size_t>(kBlock) * cols_) {}

  /// BFS from the sources base .. base + 63 at once, level by level; at
  /// level d, folds every measured pair (s, v) with s < v first reached at
  /// d into out.  Throws std::invalid_argument if some node is unreachable.
  void sweep(std::int32_t block, DistanceSweep& out) {
    const auto n = static_cast<std::int32_t>(row_of_.size());
    const std::int32_t base = block * kBlock;
    const std::int32_t width = std::min(kBlock, n - base);
    const std::uint64_t full =
        width == kBlock ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::fill(visited_.begin(), visited_.end(), 0);
    active_.clear();
    std::uint64_t measured_src = 0;
    std::int32_t full_nodes = 0;
    for (std::int32_t g = 0; g < width; ++g) {
      const auto s = static_cast<std::size_t>(base + g);
      const std::uint64_t bit = std::uint64_t{1} << g;
      visited_[s] = frontier_[s] = bit;
      active_.push_back(base + g);
      if (bit == full) ++full_nodes;
      if (row_of_[s] >= 0) measured_src |= bit;
    }

    std::int32_t level = 0;
    while (full_nodes < n) {
      if (active_.empty()) {
        throw std::invalid_argument(
            "gradient_series: topology is disconnected");
      }
      ++level;
      // Push: only nodes reached last level carry frontier bits.
      touched_.clear();
      for (const std::int32_t u : active_) {
        const std::uint64_t bits = frontier_[static_cast<std::size_t>(u)];
        frontier_[static_cast<std::size_t>(u)] = 0;
        for (const std::int32_t w : topo_.neighbors(u)) {
          std::uint64_t& slot = next_[static_cast<std::size_t>(w)];
          if (slot == 0) touched_.push_back(w);
          slot |= bits;
        }
      }
      active_.clear();
      const auto d = static_cast<std::size_t>(level);
      if (out.count_by_raw.size() <= d) out.count_by_raw.resize(d + 1, 0);
      if (out.skew_by_raw.size() < (d + 1) * cols_) {
        out.skew_by_raw.resize((d + 1) * cols_, 0.0);
      }
      std::uint64_t folded = 0;  // sources whose hi/lo rows hold level d
      for (const std::int32_t w : touched_) {
        const auto v = static_cast<std::size_t>(w);
        const std::uint64_t fresh = next_[v] & ~visited_[v];
        next_[v] = 0;
        if (fresh == 0) continue;
        visited_[v] |= fresh;
        frontier_[v] = fresh;
        active_.push_back(w);
        if (visited_[v] == full) ++full_nodes;
        if (row_of_[v] < 0) continue;
        // Each unordered measured pair once, from its lower-id end.
        const std::int32_t offset = w - base;
        const std::uint64_t lower =
            offset >= kBlock ? ~std::uint64_t{0}
            : offset <= 0    ? 0
                             : (std::uint64_t{1} << offset) - 1;
        std::uint64_t pairs = fresh & measured_src & lower;
        if (pairs == 0) continue;
        out.count_by_raw[d] += std::popcount(pairs);
        if (grid_ == nullptr) continue;
        const double* lv = grid_->values.data() +
                           static_cast<std::size_t>(row_of_[v]) * cols_;
        for (; pairs != 0; pairs &= pairs - 1) {
          const int g = std::countr_zero(pairs);
          double* hi = hi_.data() + static_cast<std::size_t>(g) * cols_;
          double* lo = lo_.data() + static_cast<std::size_t>(g) * cols_;
          if ((folded >> g & 1) == 0) {
            folded |= std::uint64_t{1} << g;
            std::copy_n(lv, cols_, hi);
            std::copy_n(lv, cols_, lo);
            continue;
          }
          for (std::size_t k = 0; k < cols_; ++k) {
            hi[k] = hi[k] < lv[k] ? lv[k] : hi[k];
            lo[k] = lv[k] < lo[k] ? lv[k] : lo[k];
          }
        }
      }
      // Sphere fold: over the measured v at distance d from s,
      // max |L_s - L_v| = max(hi - L_s, L_s - lo) exactly, because rounded
      // subtraction is monotone and fl(a - b) = -fl(b - a).
      double* cell = out.skew_by_raw.data() + d * cols_;
      for (; folded != 0; folded &= folded - 1) {
        const int g = std::countr_zero(folded);
        const double* hi = hi_.data() + static_cast<std::size_t>(g) * cols_;
        const double* lo = lo_.data() + static_cast<std::size_t>(g) * cols_;
        const auto source = static_cast<std::size_t>(base + g);
        const double* ls = grid_->values.data() +
                           static_cast<std::size_t>(row_of_[source]) * cols_;
        for (std::size_t k = 0; k < cols_; ++k) {
          const double up = hi[k] - ls[k];
          const double down = ls[k] - lo[k];
          const double skew = up < down ? down : up;
          if (skew > cell[k]) cell[k] = skew;
        }
      }
    }
    for (const std::int32_t u : active_) {
      frontier_[static_cast<std::size_t>(u)] = 0;
    }
    out.diameter = std::max(out.diameter, level);
  }

 private:
  const net::Topology& topo_;
  const std::vector<std::int32_t>& row_of_;
  const LocalTimeGrid* grid_;
  std::size_t cols_;
  std::vector<std::uint64_t> visited_;
  std::vector<std::uint64_t> frontier_;  // zero outside a sweep
  std::vector<std::uint64_t> next_;      // zero outside a level's push
  std::vector<std::int32_t> active_;     // nodes with nonzero frontier
  std::vector<std::int32_t> touched_;    // nodes with nonzero next
  std::vector<double> hi_;               // kBlock x cols per-source max
  std::vector<double> lo_;               // kBlock x cols per-source min
};

/// Bit-parallel BFS from every node, 64 sources per block, blocks claimed
/// dynamically by a ParallelRunner(threads) pool; threads = 1 is serial.
/// Each worker sweeps into its own DistanceSweep; the merge is order-
/// insensitive, so any thread count gives the identical result.
DistanceSweep sweep_all_sources(const net::Topology& topo,
                                const std::vector<std::int32_t>& row_of,
                                const LocalTimeGrid* grid, int threads) {
  const auto n = static_cast<std::int32_t>(row_of.size());
  const std::int32_t blocks = (n + kBlock - 1) / kBlock;
  std::atomic<std::int32_t> next_block{0};
  const auto work = [&](DistanceSweep& out) {
    BlockSweeper sweeper(topo, row_of, grid);
    for (std::int32_t b = next_block++; b < blocks; b = next_block++) {
      sweeper.sweep(b, out);
    }
  };
  DistanceSweep merged;
  if (threads == 1 || blocks < 2) {
    work(merged);
    return merged;
  }
  const ParallelRunner runner(threads);
  const std::size_t shards =
      std::min(static_cast<std::size_t>(runner.threads()),
               static_cast<std::size_t>(blocks));
  std::vector<DistanceSweep> partial(shards);
  runner.run_indexed(shards, [&](std::size_t s) { work(partial[s]); });
  for (const DistanceSweep& part : partial) merged.merge(part);
  return merged;
}

/// Compacts the raw distance axis to the distances that have pairs.
GradientAxis compact_axis(const DistanceSweep& sweep) {
  GradientAxis axis;
  axis.diameter = sweep.diameter;
  axis.bucket_of.assign(static_cast<std::size_t>(sweep.diameter) + 1, -1);
  for (std::size_t d = 1; d < sweep.count_by_raw.size(); ++d) {
    if (sweep.count_by_raw[d] > 0) {
      axis.bucket_of[d] = static_cast<std::int32_t>(axis.distances.size());
      axis.distances.push_back(static_cast<std::int32_t>(d));
      axis.pair_count.push_back(sweep.count_by_raw[d]);
    }
  }
  return axis;
}

}  // namespace

GradientAxis build_gradient_axis(const net::Topology& topo,
                                 const std::vector<std::int32_t>& ids) {
  return compact_axis(sweep_all_sources(topo, rows_by_node(topo, ids),
                                        /*grid=*/nullptr, /*threads=*/1));
}

void finish_gradient_window_summaries(GradientSeries& series, std::size_t cols,
                                      std::size_t stride) {
  const std::size_t buckets = series.distances.size();
  if (cols == 0) cols = series.times.size();
  if (stride == 0) stride = cols;
  series.max_skew.resize(buckets);
  series.mean_skew.resize(buckets);
  series.p99_skew.resize(buckets);
  series.frontier.resize(buckets);
  double running = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    const double* row = series.skew_by_sample.data() + b * stride;
    double hi = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < cols; ++k) {
      hi = std::max(hi, row[k]);
      sum += row[k];
    }
    series.max_skew[b] = hi;
    series.mean_skew[b] = sum / static_cast<double>(cols);
    series.p99_skew[b] = util::quantile({row, cols}, 0.99);
    running = std::max(running, hi);
    series.frontier[b] = running;
  }
}

GradientSeries gradient_series(const sim::Simulator& sim,
                               const std::vector<std::int32_t>& ids,
                               const net::Topology& topo, double t0, double t1,
                               double dt, int threads) {
  const std::vector<std::int32_t> row_of = rows_by_node(topo, ids);
  const LocalTimeGrid grid = sample_local_times(
      sim, ids, sample_times_with_endpoint(t0, t1, dt), threads);
  const std::size_t m = ids.size();
  bool parallel = threads > 1;
  if (threads == 0) {
    parallel = m >= 4 &&
               (m * (m - 1) / 2) * grid.cols >= kMeasureShardThreshold &&
               std::thread::hardware_concurrency() > 1 &&
               !ParallelRunner::in_worker();
  }
  const DistanceSweep sweep =
      sweep_all_sources(topo, row_of, &grid, parallel ? threads : 1);

  GradientSeries series;
  GradientAxis axis = compact_axis(sweep);
  series.diameter = axis.diameter;
  series.distances = std::move(axis.distances);
  series.pair_count = std::move(axis.pair_count);
  series.times = grid.times;
  const std::size_t buckets = series.distances.size();
  const std::size_t cols = grid.cols;
  series.skew_by_sample.assign(buckets * cols, 0.0);
  if (buckets == 0 || cols == 0) return series;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::copy_n(sweep.skew_by_raw.data() +
                    static_cast<std::size_t>(series.distances[b]) * cols,
                cols, series.skew_by_sample.data() + b * cols);
  }
  finish_gradient_window_summaries(series);
  return series;
}

std::vector<double> gradient_at(const sim::Simulator& sim,
                                const std::vector<std::int32_t>& ids,
                                const net::Topology& topo,
                                const std::vector<std::int32_t>& distances,
                                double t) {
  std::vector<std::int32_t> bucket_of;
  for (std::size_t b = 0; b < distances.size(); ++b) {
    const auto d = static_cast<std::size_t>(distances[b]);
    if (bucket_of.size() <= d) bucket_of.resize(d + 1, -1);
    bucket_of[d] = static_cast<std::int32_t>(b);
  }
  std::vector<double> locals(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    locals[i] = sim.local_time(ids[i], t);
  }
  std::vector<double> buckets(distances.size(), 0.0);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const std::int32_t d = row[static_cast<std::size_t>(ids[j])];
      if (d < 1 || static_cast<std::size_t>(d) >= bucket_of.size()) continue;
      const std::int32_t b = bucket_of[static_cast<std::size_t>(d)];
      if (b < 0) continue;
      buckets[static_cast<std::size_t>(b)] =
          std::max(buckets[static_cast<std::size_t>(b)],
                   std::abs(locals[i] - locals[j]));
    }
  }
  return buckets;
}

double gradient_slope(const GradientSeries& series) {
  if (series.distances.size() < 2) return 0.0;
  std::vector<double> xs(series.distances.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    xs[b] = static_cast<double>(series.distances[b]);
  }
  return util::fit_line(xs, series.max_skew).slope;
}

GradientSummary summarize_gradient(const GradientSeries& series) {
  GradientSummary summary;
  summary.distances = series.distances;
  summary.max_skew = series.max_skew;
  summary.mean_skew = series.mean_skew;
  summary.p99_skew = series.p99_skew;
  summary.frontier = series.frontier;
  summary.pair_count = series.pair_count;
  summary.slope = gradient_slope(series);
  summary.diameter = series.diameter;
  return summary;
}

bool gradient_summaries_identical(const GradientSummary& a,
                                  const GradientSummary& b) {
  return a.distances == b.distances && a.max_skew == b.max_skew &&
         a.mean_skew == b.mean_skew && a.p99_skew == b.p99_skew &&
         a.frontier == b.frontier && a.pair_count == b.pair_count &&
         a.slope == b.slope && a.diameter == b.diameter;
}

}  // namespace wlsync::analysis
