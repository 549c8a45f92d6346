#pragma once
// Gradient-skew analysis: skew as a function of graph distance.
//
// The paper bounds the *global* skew max |L_i - L_j| on a full mesh, where
// every pair is one hop apart.  On the sparse exchange graphs of the net
// layer the interesting quantity is the *gradient* (Bund/Lenzen/Rosenbaum,
// "Fault Tolerant Gradient Clock Synchronization"): how the worst skew
// between two processes grows with their hop distance d(i, j).  This module
// buckets every honest pair by distance and reports, per distance, the
// skew's max / mean / p99 over a sample window, plus a least-squares slope
// summary — the measurable form of a gradient bound.
//
// gradient_series samples local times through the measurement pipeline of
// analysis/measure.h (one cursor walk per clock) and then makes ONE pass
// over the graph: a bit-parallel BFS from every node, 64 sources per block,
// with one uint64_t visited/frontier mask per node.  At level d each source
// folds the grid rows of the measured nodes it first reaches (its distance-
// d sphere) into per-source max/min rows, and max(hi - L_s, L_s - lo) is
// max |L_s - L_v| over the sphere exactly: rounded subtraction is monotone
// and fl(a - b) = -fl(b - a).  Each unordered pair is folded once, from its
// lower id.  Blocks shard across threads; the merges are max folds and
// integer sums, so any thread count produces bit-identical buckets.  The
// pass never touches Topology's lazy distance cache, so it costs O(n) BFS
// state per shard instead of n^2 cached rows.  gradient_at is the naive
// per-sample reference scan the pass is regression-pinned against
// (tests/gradient_test.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "sim/simulator.h"

namespace wlsync::analysis {

/// Skew-vs-distance curves over a sample window.  Distances are the hop
/// distances that actually occur between the measured ids (ascending;
/// distance 0 — a pair with itself — is excluded).
struct GradientSeries {
  std::vector<double> times;            ///< ascending sample instants
  std::vector<std::int32_t> distances;  ///< bucket axis (ascending, >= 1)
  /// Row-major distances.size() x times.size(): max |L_i - L_j| over the
  /// pairs at that distance, per sample instant.
  std::vector<double> skew_by_sample;
  /// Number of measured-id pairs in each distance bucket.
  std::vector<std::int64_t> pair_count;

  // Per-distance summaries over the sample window:
  std::vector<double> max_skew;   ///< max over samples
  std::vector<double> mean_skew;  ///< mean of the per-sample bucket max
  std::vector<double> p99_skew;   ///< 0.99-quantile of the per-sample max
  /// Monotone frontier: max_skew folded over all distances <= d.  The raw
  /// per-distance max is *typically* non-decreasing in d (more room to
  /// drift apart); the frontier is non-decreasing by construction and is
  /// the clean "skew within distance d" curve.
  std::vector<double> frontier;

  std::int32_t diameter = 0;  ///< of the whole topology (all nodes)

  [[nodiscard]] double at(std::size_t distance_index, std::size_t sample) const {
    return skew_by_sample[distance_index * times.size() + sample];
  }
};

/// Slot of measured pair (i, j), i < j, positions in the measured id list
/// of length m: the upper triangle without its diagonal, row-major.
[[nodiscard]] constexpr std::size_t pair_slot(std::size_t i, std::size_t j,
                                              std::size_t m) noexcept {
  return i * (2 * m - i - 1) / 2 + (j - i - 1);
}

/// The distance-bucket axis shared by the post-hoc scan (gradient_series)
/// and the streaming observer (analysis/observe.h): the hop distances that
/// occur between measured pairs, the pair count per bucket, and the
/// distance -> bucket lookup table.
struct GradientAxis {
  std::vector<std::int32_t> distances;   ///< ascending, >= 1
  std::vector<std::int64_t> pair_count;  ///< measured-id pairs per bucket
  std::vector<std::int32_t> bucket_of;   ///< distance -> bucket index, -1 = none
  std::int32_t diameter = 0;             ///< of the whole topology
  /// Bucket index of every measured pair at its pair_slot (2 bytes a pair,
  /// against 4n^2 for the topology's cached distance rows); filled by
  /// build_gradient_axis only.  The streaming observer's per-sample fold
  /// reads it.
  std::vector<std::uint16_t> pair_bucket;
};

/// Builds the bucket axis with the same bit-parallel BFS as gradient_series
/// (pair counts by popcount, the diameter from the deepest level), serially
/// and without touching the topology's distance cache; the same pass fills
/// GradientAxis::pair_bucket.  Throws std::invalid_argument on a
/// disconnected topology (cross-component skew has no distance bucket), on
/// repeated or out-of-range ids, and on a diameter of 65536 or more.
[[nodiscard]] GradientAxis build_gradient_axis(
    const net::Topology& topo, const std::vector<std::int32_t>& ids);

/// Fills the per-distance window summaries (max / mean / p99 / frontier)
/// from an already-populated skew_by_sample matrix.  Shared by the
/// post-hoc and streaming paths so both produce the identical doubles.
/// `cols` is the number of valid samples per bucket row and `stride` the
/// allocated row length (>= cols); 0 means times.size() — the tight
/// post-hoc layout.  The streaming observer passes its capacity-strided
/// accumulation matrix directly, with no repacking.
void finish_gradient_window_summaries(GradientSeries& series,
                                      std::size_t cols = 0,
                                      std::size_t stride = 0);

/// Buckets every pair of `ids` by hop distance in `topo` and evaluates the
/// per-bucket max skew at every instant of the grid {t0, t0+dt, ..., t1}
/// (the same endpoint-closed grid as skew_series), in one sharded BFS-and-
/// fold pass (header comment).  threads = 0 auto-shards the pass for large
/// workloads and stays serial inside an outer ParallelRunner sweep; any
/// thread count yields bit-identical values.  Reads the Topology without
/// mutating it (its lazy distance cache stays cold).  Throws
/// std::invalid_argument on a disconnected topology (cross-component skew
/// has no distance to bucket by) and on repeated or out-of-range ids.
[[nodiscard]] GradientSeries gradient_series(const sim::Simulator& sim,
                                             const std::vector<std::int32_t>& ids,
                                             const net::Topology& topo,
                                             double t0, double t1, double dt,
                                             int threads = 0);

/// Naive reference scan: max |L_i - L_j| per distance bucket at one instant
/// via O(m^2) Simulator::local_time calls.  `distances` must be the bucket
/// axis of the series under test; returns one value per bucket.
[[nodiscard]] std::vector<double> gradient_at(
    const sim::Simulator& sim, const std::vector<std::int32_t>& ids,
    const net::Topology& topo, const std::vector<std::int32_t>& distances,
    double t);

/// Least-squares slope of per-distance max skew against distance — the
/// one-number gradient summary (0 for a flat curve, e.g. identical clocks).
/// Buckets with no pairs are skipped; fewer than two buckets give 0.
[[nodiscard]] double gradient_slope(const GradientSeries& series);

/// The sweep-facing condensation of a GradientSeries: per-distance curves
/// without the per-sample matrix, sized for a RunResult that is copied
/// across ParallelRunner result vectors.
struct GradientSummary {
  std::vector<std::int32_t> distances;
  std::vector<double> max_skew;
  std::vector<double> mean_skew;
  std::vector<double> p99_skew;
  std::vector<double> frontier;
  std::vector<std::int64_t> pair_count;
  double slope = 0.0;
  std::int32_t diameter = 0;

  [[nodiscard]] bool measured() const noexcept { return !distances.empty(); }
  /// Frontier value at the largest distance (the global skew), 0 if empty.
  [[nodiscard]] double far_skew() const noexcept {
    return frontier.empty() ? 0.0 : frontier.back();
  }
};

[[nodiscard]] GradientSummary summarize_gradient(const GradientSeries& series);

[[nodiscard]] bool gradient_summaries_identical(const GradientSummary& a,
                                                const GradientSummary& b);

}  // namespace wlsync::analysis
