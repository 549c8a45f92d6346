// Gradient-skew subsystem: BFS distances / eccentricity / diameter pinned
// against hand-computed small graphs; a drift-free run's gradient is flat
// (slope 0 within 1e-12); and the bit-parallel BFS-and-fold pass of
// gradient_series is pinned bitwise to the naive O(m^2) per-sample
// reference scan (gradient_at) and to pair counts taken from the cached BFS
// rows, on shapes the 64-source blocks make awkward, and bit-identical
// across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/gradient.h"
#include "analysis/parallel_runner.h"
#include "clock/drift.h"
#include "net/topology.h"
#include "proc/process.h"
#include "sim/simulator.h"

namespace wlsync {
namespace {

using analysis::GradientSeries;
using analysis::GradientSummary;
using analysis::RunResult;
using analysis::RunSpec;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------- BFS distances ---

TEST(Distances, PathGraphPinned) {
  // 0 - 1 - 2 - 3 - 4 (from_adjacency symmetrizes and adds self-loops).
  const Topology topo = Topology::from_adjacency({{1}, {2}, {3}, {4}, {}});
  const std::vector<std::int32_t> from0 = topo.distances_from(0);
  EXPECT_EQ(from0, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
  const std::vector<std::int32_t> from2 = topo.distances_from(2);
  EXPECT_EQ(from2, (std::vector<std::int32_t>{2, 1, 0, 1, 2}));
  EXPECT_EQ(topo.eccentricity(0), 4);
  EXPECT_EQ(topo.eccentricity(2), 2);
  EXPECT_EQ(topo.diameter(), 4);
}

TEST(Distances, FullMeshIsDiameterOne) {
  const Topology topo = Topology::full_mesh(6);
  EXPECT_EQ(topo.diameter(), 1);
  for (std::int32_t p = 0; p < 6; ++p) {
    EXPECT_EQ(topo.eccentricity(p), 1);
    const std::vector<std::int32_t>& row = topo.distances_from(p);
    for (std::int32_t q = 0; q < 6; ++q) {
      EXPECT_EQ(row[static_cast<std::size_t>(q)], p == q ? 0 : 1);
    }
  }
}

TEST(Distances, RingOfCliquesPinned) {
  // Four triangles {0,1,2} {3,4,5} {6,7,8} {9,10,11}, bridged 2-3, 5-6,
  // 8-9, 11-0 into a ring.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_EQ(topo.distances_from(0)[3], 2);   // 0-2-3
  EXPECT_EQ(topo.distances_from(1)[4], 3);   // 1-2-3-4
  EXPECT_EQ(topo.distances_from(0)[6], 4);   // 0-2-3-5-6 (or the long way)
  EXPECT_EQ(topo.distances_from(1)[7], 5);   // both ways around cost 5
  EXPECT_EQ(topo.diameter(), 5);
}

TEST(Distances, DisconnectedReportsMinusOne) {
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  EXPECT_FALSE(topo.connected());
  EXPECT_EQ(topo.distances_from(0)[2], -1);
  EXPECT_EQ(topo.eccentricity(0), -1);
  EXPECT_EQ(topo.diameter(), -1);
}

TEST(Distances, SymmetricOnRandomExpander) {
  const Topology topo = Topology::k_regular(40, 6, /*seed=*/9);
  ASSERT_TRUE(topo.connected());
  EXPECT_GT(topo.diameter(), 1);
  for (std::int32_t i = 0; i < topo.n(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(i);
    EXPECT_EQ(row[static_cast<std::size_t>(i)], 0);
    for (std::int32_t j = 0; j < topo.n(); ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)],
                topo.distances_from(j)[static_cast<std::size_t>(i)])
          << "d(" << i << "," << j << ") asymmetric";
    }
  }
}

// ------------------------------------------------------- flat gradients ---

/// Honest process that does nothing: the clocks run free.
class Idle final : public proc::Process {
 public:
  void on_start(proc::Context&) override {}
  void on_timer(proc::Context&, std::int32_t) override {}
  void on_message(proc::Context&, const sim::Message&) override {}
};

TEST(Gradient, FlatOnDriftFreeIdenticalClocks) {
  // Perfect rate-1 clocks with identical offsets never separate: every
  // bucket is exactly zero at every sample, so the slope is exactly flat.
  const Topology topo = Topology::ring_of_cliques(12, 3);
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  std::vector<std::int32_t> ids;
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), /*offset=*/5.0, /*rho=*/1e-5),
                    /*corr0=*/0.0, /*faulty=*/false, /*start=*/0.0);
    ids.push_back(p);
  }
  sim.run_until(10.0);

  const GradientSeries series =
      analysis::gradient_series(sim, ids, topo, 1.0, 9.0, 0.5);
  EXPECT_EQ(series.diameter, 5);
  ASSERT_FALSE(series.distances.empty());
  for (double v : series.skew_by_sample) EXPECT_EQ(v, 0.0);
  for (double v : series.frontier) EXPECT_EQ(v, 0.0);
  EXPECT_NEAR(analysis::gradient_slope(series), 0.0, 1e-12);
}

TEST(Gradient, RejectsDisconnectedTopology) {
  // Cross-component pairs have no distance to bucket by; the sized-by-
  // diameter bucket table must never be indexed with the -1 sentinel.
  const Topology topo = Topology::from_adjacency({{1}, {0}, {3}, {2}});
  sim::SimConfig config;
  sim::Simulator sim(config, nullptr);
  for (std::int32_t p = 0; p < topo.n(); ++p) {
    sim.add_process(std::make_unique<Idle>(),
                    std::make_unique<clk::PhysicalClock>(
                        clk::make_constant(1.0), 0.0, 1e-5),
                    0.0, false, 0.0);
  }
  sim.run_until(2.0);
  EXPECT_THROW((void)analysis::gradient_series(sim, {0, 1, 2, 3}, topo, 0.0,
                                               1.0, 0.5),
               std::invalid_argument);
}

TEST(Gradient, SlopeRecoversSyntheticLine) {
  GradientSeries series;
  series.distances = {1, 2, 3, 4};
  series.max_skew = {0.5, 1.0, 1.5, 2.0};  // slope exactly 0.5
  EXPECT_NEAR(analysis::gradient_slope(series), 0.5, 1e-12);
  series.distances = {1};
  series.max_skew = {3.0};
  EXPECT_EQ(analysis::gradient_slope(series), 0.0);  // < 2 buckets
}

// -------------------------------------- sharded vs naive reference scan ---

RunSpec sparse_spec() {
  RunSpec spec;
  spec.params = core::make_params(24, 1, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 1;
  spec.rounds = 8;
  spec.seed = 20260727;
  spec.topology.kind = TopologyKind::kRingOfCliques;
  spec.topology.clique_size = 6;
  return spec;
}

TEST(Gradient, ShardedBucketingMatchesNaiveReference) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double t1 = result.t_end;
  const double dt = spec.params.P / 5.0;
  const GradientSeries series = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, t1, dt, /*threads=*/4);

  ASSERT_GT(series.distances.size(), 2u);
  for (std::size_t k = 0; k < series.times.size(); ++k) {
    const std::vector<double> reference =
        analysis::gradient_at(experiment.simulator(), result.honest, topo,
                              series.distances, series.times[k]);
    ASSERT_EQ(reference.size(), series.distances.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_NEAR(series.at(b, k), reference[b], 1e-12)
          << "bucket d=" << series.distances[b] << " sample " << k;
    }
  }
}

TEST(Gradient, ThreadCountInvariance) {
  const RunSpec spec = sparse_spec();
  analysis::Experiment experiment(spec);
  const RunResult result = experiment.run();
  const Topology topo = net::build_topology(spec.topology, spec.params.n);

  const double t0 = result.tmax0 + 1.0;
  const double dt = spec.params.P / 10.0;
  const GradientSeries serial = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/1);
  const GradientSeries sharded = analysis::gradient_series(
      experiment.simulator(), result.honest, topo, t0, result.t_end, dt,
      /*threads=*/4);
  ASSERT_EQ(serial.skew_by_sample.size(), sharded.skew_by_sample.size());
  for (std::size_t c = 0; c < serial.skew_by_sample.size(); ++c) {
    ASSERT_EQ(serial.skew_by_sample[c], sharded.skew_by_sample[c]) << "cell " << c;
  }
  EXPECT_TRUE(analysis::gradient_summaries_identical(
      analysis::summarize_gradient(serial),
      analysis::summarize_gradient(sharded)));
}

// ------------------------------------- 64-source blocks, awkward shapes ---

/// n idle processes on free-running clocks with distinct rates and
/// offsets, run to t = 20, so every pair has its own skew trajectory.
std::unique_ptr<sim::Simulator> drifting_clocks(std::int32_t n) {
  sim::SimConfig config;
  auto sim = std::make_unique<sim::Simulator>(config, nullptr);
  for (std::int32_t p = 0; p < n; ++p) {
    const double rate = 1.0 + static_cast<double>((p * 37) % 21 - 10) * 1e-5;
    const double offset = static_cast<double>((p * 53) % 101) * 1.37e-4;
    sim->add_process(std::make_unique<Idle>(),
                     std::make_unique<clk::PhysicalClock>(
                         clk::make_constant(rate), offset, /*rho=*/1e-3),
                     /*corr0=*/0.0, /*faulty=*/false, /*start=*/0.0);
  }
  sim->run_until(20.0);
  return sim;
}

/// The ids of {0, 5, 63, 64, 65, 127, 128, n - 1} that exist: both sides
/// of the 64-id block boundaries.
std::vector<std::int32_t> boundary_ids(std::int32_t n) {
  std::vector<std::int32_t> ids;
  for (const std::int32_t p : {0, 5, 63, 64, 65, 127, 128}) {
    if (p < n - 1) ids.push_back(p);
  }
  ids.push_back(n - 1);
  return ids;
}

/// Every id except the boundary ones ("faulty"), which punch holes on
/// both sides of the block boundaries.
std::vector<std::int32_t> ids_with_holes(std::int32_t n) {
  const std::vector<std::int32_t> faulty = boundary_ids(n);
  std::vector<std::int32_t> ids;
  for (std::int32_t p = 0; p < n; ++p) {
    if (std::find(faulty.begin(), faulty.end(), p) == faulty.end()) {
      ids.push_back(p);
    }
  }
  return ids;
}

/// Pair counts per hop distance from the cached BFS rows, the way the
/// bucket axis used to be counted: index = distance.
std::vector<std::int64_t> cached_pair_counts(
    const Topology& topo, const std::vector<std::int32_t>& ids) {
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(topo.diameter()) + 1, 0);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    const std::vector<std::int32_t>& row = topo.distances_from(ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      ++counts[static_cast<std::size_t>(row[static_cast<std::size_t>(ids[j])])];
    }
  }
  return counts;
}

/// A path 0 - 1 - ... - (n - 1), closed into a ring when `ring`.
Topology path_graph(std::int32_t n, bool ring) {
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n));
  for (std::int32_t p = 0; p + 1 < n; ++p) {
    lists[static_cast<std::size_t>(p)].push_back(p + 1);
  }
  if (ring) lists[static_cast<std::size_t>(n - 1)].push_back(0);
  return Topology::from_adjacency(lists);
}

struct Shape {
  const char* name;
  Topology topo;
};

std::vector<Shape> awkward_shapes() {
  return {
      {"expander n=97", Topology::k_regular(97, 6, /*seed=*/3)},
      {"expander n=200", Topology::k_regular(200, 8, /*seed=*/5)},
      {"path n=150 (diameter 149)", path_graph(150, /*ring=*/false)},
      {"ring n=133 (diameter 66)", path_graph(133, /*ring=*/true)},
      {"ring of cliques n=200", Topology::ring_of_cliques(200, 8)},
      {"full mesh n=130", Topology::full_mesh(130)},
  };
}

/// Pins gradient_series (serial) and build_gradient_axis on one id set:
/// the axis against the cached-row pair counts, every cell bitwise against
/// gradient_at.
void expect_matches_reference(const sim::Simulator& sim, const Topology& topo,
                              const std::vector<std::int32_t>& ids) {
  const GradientSeries series = analysis::gradient_series(
      sim, ids, topo, 1.0, 19.0, 2.5, /*threads=*/1);

  // Axis: exactly the distances that carry pairs, with the old counts.
  const std::vector<std::int64_t> counts = cached_pair_counts(topo, ids);
  std::vector<std::int32_t> distances;
  std::vector<std::int64_t> nonzero;
  for (std::size_t d = 1; d < counts.size(); ++d) {
    if (counts[d] > 0) {
      distances.push_back(static_cast<std::int32_t>(d));
      nonzero.push_back(counts[d]);
    }
  }
  EXPECT_EQ(series.diameter, topo.diameter());
  EXPECT_EQ(series.distances, distances);
  EXPECT_EQ(series.pair_count, nonzero);
  std::int64_t pairs = 0;
  for (const std::int64_t c : series.pair_count) pairs += c;
  const auto m = static_cast<std::int64_t>(ids.size());
  EXPECT_EQ(pairs, m * (m - 1) / 2);

  // The streaming observer's axis comes from the same BFS.
  const analysis::GradientAxis axis = analysis::build_gradient_axis(topo, ids);
  EXPECT_EQ(axis.distances, series.distances);
  EXPECT_EQ(axis.pair_count, series.pair_count);
  EXPECT_EQ(axis.diameter, series.diameter);
  for (std::size_t b = 0; b < axis.distances.size(); ++b) {
    EXPECT_EQ(axis.bucket_of[static_cast<std::size_t>(axis.distances[b])],
              static_cast<std::int32_t>(b));
  }

  ASSERT_GT(series.times.size(), 2u);
  for (std::size_t k = 0; k < series.times.size(); ++k) {
    const std::vector<double> reference = analysis::gradient_at(
        sim, ids, topo, series.distances, series.times[k]);
    ASSERT_EQ(reference.size(), series.distances.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      ASSERT_EQ(series.at(b, k), reference[b])
          << "bucket d=" << series.distances[b] << " sample " << k;
    }
  }
  EXPECT_GT(series.frontier.back(), 0.0);
}

TEST(GradientPass, MatchesReferenceAndCachedCountsOnAwkwardShapes) {
  for (const Shape& shape : awkward_shapes()) {
    SCOPED_TRACE(shape.name);
    const auto sim = drifting_clocks(shape.topo.n());
    {
      SCOPED_TRACE("dense ids with holes at the block boundaries");
      expect_matches_reference(*sim, shape.topo,
                               ids_with_holes(shape.topo.n()));
    }
    {
      // Few pairs per bucket: every single pair's fold decides a cell.
      SCOPED_TRACE("only the block-boundary ids");
      expect_matches_reference(*sim, shape.topo, boundary_ids(shape.topo.n()));
    }
  }
}

TEST(GradientPass, BitIdenticalAcrossThreadCounts) {
  for (const Shape& shape : awkward_shapes()) {
    SCOPED_TRACE(shape.name);
    const Topology& topo = shape.topo;
    const auto sim = drifting_clocks(topo.n());
    const std::vector<std::int32_t> ids = ids_with_holes(topo.n());
    const GradientSeries serial = analysis::gradient_series(
        *sim, ids, topo, 1.0, 19.0, 2.5, /*threads=*/1);
    for (const int threads : {2, 3, 4, 0}) {
      SCOPED_TRACE(threads);
      const GradientSeries other = analysis::gradient_series(
          *sim, ids, topo, 1.0, 19.0, 2.5, threads);
      EXPECT_EQ(other.skew_by_sample, serial.skew_by_sample);
      EXPECT_TRUE(analysis::gradient_summaries_identical(
          analysis::summarize_gradient(serial),
          analysis::summarize_gradient(other)));
    }
  }
}

TEST(GradientPass, RejectsDisconnectedTopologyAcrossBlocks) {
  // Two rings of 70: every block's BFS stalls with masks unfilled.
  std::vector<std::vector<std::int32_t>> lists(140);
  for (std::int32_t p = 0; p < 140; ++p) {
    const std::int32_t ring = p / 70 * 70;
    lists[static_cast<std::size_t>(p)].push_back(ring + (p - ring + 1) % 70);
  }
  const Topology topo = Topology::from_adjacency(lists);
  ASSERT_FALSE(topo.connected());
  const auto sim = drifting_clocks(topo.n());
  const std::vector<std::int32_t> ids = ids_with_holes(topo.n());
  for (const int threads : {1, 4}) {
    EXPECT_THROW((void)analysis::gradient_series(*sim, ids, topo, 1.0, 9.0,
                                                 2.5, threads),
                 std::invalid_argument);
  }
  EXPECT_THROW((void)analysis::build_gradient_axis(topo, ids),
               std::invalid_argument);
}

TEST(GradientPass, RejectsRepeatedAndOutOfRangeIds) {
  const Topology topo = Topology::ring_of_cliques(12, 3);
  EXPECT_THROW((void)analysis::build_gradient_axis(topo, {0, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::build_gradient_axis(topo, {0, 12}),
               std::invalid_argument);
  EXPECT_THROW((void)analysis::build_gradient_axis(topo, {-1, 3}),
               std::invalid_argument);
}

// --------------------------------------------------- experiment surface ---

TEST(Gradient, ExperimentFillsSummaryAndStaysDeterministic) {
  RunSpec base = sparse_spec();
  base.measure_gradient = true;
  const RunResult one = analysis::run_experiment(base);
  ASSERT_TRUE(one.gradient.measured());
  EXPECT_EQ(one.gradient.diameter, 5);
  ASSERT_EQ(one.gradient.frontier.size(), one.gradient.distances.size());
  // The frontier is non-decreasing by construction and tops out at the
  // far-pair skew.
  for (std::size_t b = 1; b < one.gradient.frontier.size(); ++b) {
    EXPECT_GE(one.gradient.frontier[b], one.gradient.frontier[b - 1]);
  }
  EXPECT_EQ(one.gradient.far_skew(), one.gradient.frontier.back());

  // results_identical covers the gradient fields: parallel sweeps must
  // reproduce the serial summaries bit-for-bit.
  const std::vector<RunSpec> specs = analysis::seed_sweep(base, 900, 4);
  const std::vector<RunResult> serial = analysis::ParallelRunner(1).run(specs);
  const std::vector<RunResult> sharded = analysis::ParallelRunner(4).run(specs);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(analysis::results_identical(serial[i], sharded[i])) << "trial " << i;
    EXPECT_TRUE(serial[i].gradient.measured());
  }
}

TEST(Gradient, GammaMeasuredExactlyUnchangedByGradientMeasurement) {
  // With measure_gradient on, gamma_measured is derived from the gradient's
  // far frontier instead of a second skew_series pass over the same grid;
  // the two must coincide bitwise (the max pairwise |L_i - L_j| is attained
  // by the max/min pair skew_series subtracts).
  RunSpec plain = sparse_spec();
  RunSpec measured = sparse_spec();
  measured.measure_gradient = true;
  const RunResult a = analysis::run_experiment(plain);
  const RunResult b = analysis::run_experiment(measured);
  EXPECT_EQ(a.gamma_measured, b.gamma_measured);
  EXPECT_EQ(a.final_skew, b.final_skew);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Gradient, MeshGradientCollapsesToGlobalSkew) {
  RunSpec spec;
  spec.params = core::make_params(7, 2, 1e-5, 0.01, 1e-3, 10.0);
  spec.fault = analysis::FaultKind::kTwoFaced;
  spec.fault_count = 2;
  spec.rounds = 8;
  spec.seed = 41;
  spec.measure_gradient = true;
  const RunResult result = analysis::run_experiment(spec);
  ASSERT_TRUE(result.gradient.measured());
  // Every honest pair is one hop apart on the mesh: a single bucket whose
  // max over the window IS the measured global skew.
  ASSERT_EQ(result.gradient.distances, (std::vector<std::int32_t>{1}));
  EXPECT_EQ(result.gradient.diameter, 1);
  EXPECT_NEAR(result.gradient.max_skew[0], result.gamma_measured, 1e-12);
}

}  // namespace
}  // namespace wlsync
