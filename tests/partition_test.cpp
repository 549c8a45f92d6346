// net/partition.h: topology-cut sharding for the PDES engine.  Correctness
// of the sharded execution never depends on the partition (any assignment
// is bit-identical — tests/pdes_test.cpp), so these tests pin the
// partitioner's own contract: structural invariants (every node assigned,
// every shard nonempty, cut_edges exactly the crossing edges, ascending
// lexicographic), connectivity of every shard's induced subgraph on
// connected inputs, determinism in (topology, k, seed), degenerate inputs
// (k > n, k < 1, k > component count on disconnected graphs), and — on
// small graphs where exhaustive enumeration is feasible — cut minimality
// against the brute-force optimum over balanced connected 2-partitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "net/partition.h"
#include "net/topology.h"

namespace wlsync::net {
namespace {

/// Undirected edge list (u < v, self-loops excluded) of a topology.
std::vector<std::pair<std::int32_t, std::int32_t>> undirected_edges(
    const Topology& topo) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t u = 0; u < topo.n(); ++u) {
    for (const std::int32_t v : topo.neighbors(u)) {
      if (v > u) edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// True when every shard's induced subgraph is connected (singletons are).
bool shards_connected(const Topology& topo, const Partition& part) {
  for (std::int32_t s = 0; s < part.k; ++s) {
    std::int32_t root = -1;
    std::int32_t members = 0;
    for (std::int32_t u = 0; u < part.n(); ++u) {
      if (part.shard_of[static_cast<std::size_t>(u)] != s) continue;
      ++members;
      if (root < 0) root = u;
    }
    if (members == 0) return false;
    std::vector<char> seen(static_cast<std::size_t>(part.n()), 0);
    std::vector<std::int32_t> stack{root};
    seen[static_cast<std::size_t>(root)] = 1;
    std::int32_t reached = 0;
    while (!stack.empty()) {
      const std::int32_t u = stack.back();
      stack.pop_back();
      ++reached;
      for (const std::int32_t v : topo.neighbors(u)) {
        if (v == u || seen[static_cast<std::size_t>(v)] != 0) continue;
        if (part.shard_of[static_cast<std::size_t>(v)] != s) continue;
        seen[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    }
    if (reached != members) return false;
  }
  return true;
}

/// The invariants every partition must satisfy, whatever the input.
void expect_valid(const Topology& topo, const Partition& part,
                  const char* what) {
  ASSERT_EQ(part.n(), topo.n()) << what;
  EXPECT_GE(part.k, 1) << what;
  EXPECT_LE(part.k, topo.n()) << what;
  ASSERT_EQ(static_cast<std::int32_t>(part.shard_sizes.size()), part.k)
      << what;
  std::vector<std::int32_t> counted(static_cast<std::size_t>(part.k), 0);
  for (const std::int32_t s : part.shard_of) {
    ASSERT_GE(s, 0) << what;
    ASSERT_LT(s, part.k) << what;
    ++counted[static_cast<std::size_t>(s)];
  }
  for (std::int32_t s = 0; s < part.k; ++s) {
    EXPECT_EQ(part.shard_sizes[static_cast<std::size_t>(s)],
              counted[static_cast<std::size_t>(s)])
        << what << ", shard " << s;
    EXPECT_GE(counted[static_cast<std::size_t>(s)], 1)
        << what << ", shard " << s;
  }
  // cut_edges is exactly the crossing subset of the edge list, in the same
  // ascending lexicographic order the edge scan produces.
  std::vector<std::pair<std::int32_t, std::int32_t>> expected;
  for (const auto& [u, v] : undirected_edges(topo)) {
    if (part.shard_of[static_cast<std::size_t>(u)] !=
        part.shard_of[static_cast<std::size_t>(v)]) {
      expected.emplace_back(u, v);
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(part.cut_edges, expected) << what;
}

/// Brute-force minimum cut over all 2-partitions with both sides connected
/// and sizes within one of balanced.  Only call for n <= ~16.
std::size_t brute_force_min_cut_2(const Topology& topo) {
  const std::int32_t n = topo.n();
  const auto edges = undirected_edges(topo);
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (std::uint32_t mask = 1; mask + 1 < (1u << n); ++mask) {
    const auto size1 = static_cast<std::int32_t>(std::popcount(mask));
    if (std::abs(2 * size1 - n) > 1) continue;
    Partition cand;
    cand.k = 2;
    cand.shard_of.resize(static_cast<std::size_t>(n));
    for (std::int32_t u = 0; u < n; ++u) {
      cand.shard_of[static_cast<std::size_t>(u)] =
          (mask >> static_cast<std::uint32_t>(u)) & 1u;
    }
    if (!shards_connected(topo, cand)) continue;
    std::size_t cut = 0;
    for (const auto& [u, v] : edges) {
      cut += static_cast<std::size_t>(
          cand.shard_of[static_cast<std::size_t>(u)] !=
          cand.shard_of[static_cast<std::size_t>(v)]);
    }
    best = std::min(best, cut);
  }
  return best;
}

// -------------------------------------------------------------- invariants ---

TEST(PartitionTest, InvariantsAcrossTopologiesAndK) {
  const Topology mesh = Topology::full_mesh(17);
  const Topology cliques = Topology::ring_of_cliques(24, 6);
  const Topology expander = Topology::k_regular(32, 8, /*seed=*/3);
  for (const auto* topo : {&mesh, &cliques, &expander}) {
    for (const std::int32_t k : {1, 2, 3, 4, 8}) {
      const Partition part = partition_topology(*topo, k, /*seed=*/11);
      expect_valid(*topo, part, "invariant sweep");
      EXPECT_EQ(part.k, std::min(k, topo->n()));
      EXPECT_TRUE(shards_connected(*topo, part));
    }
  }
}

TEST(PartitionTest, CutMinimalityAgainstBruteForce) {
  // Graphs with a known narrow waist: the partitioner must find the
  // brute-force optimum over balanced connected 2-partitions, not merely
  // some valid split.
  const Topology two_cliques = Topology::ring_of_cliques(12, 6);
  const Topology ring = Topology::k_regular(10, 2, /*seed=*/1);
  const Topology barbell = Topology::from_adjacency({
      // Two K4s joined by a single bridge 3 - 4.
      {1, 2, 3},
      {0, 2, 3},
      {0, 1, 3},
      {0, 1, 2, 4},
      {3, 5, 6, 7},
      {4, 6, 7},
      {4, 5, 7},
      {4, 5, 6},
  });
  for (const auto* topo : {&two_cliques, &ring, &barbell}) {
    const Partition part = partition_topology(*topo, 2, /*seed=*/11);
    expect_valid(*topo, part, "minimality sweep");
    EXPECT_TRUE(shards_connected(*topo, part));
    EXPECT_EQ(part.cut_edges.size(), brute_force_min_cut_2(*topo));
  }
}

TEST(PartitionTest, DeterministicInTopologyKAndSeed) {
  const Topology topo = Topology::k_regular(32, 8, /*seed=*/5);
  const Partition a = partition_topology(topo, 4, /*seed=*/42);
  const Partition b = partition_topology(topo, 4, /*seed=*/42);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.shard_sizes, b.shard_sizes);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(PartitionTest, BuildCutsCompletesAnyAssignment) {
  // build_cuts is the one cut builder: the partitioner ends with it, and
  // the PDES engine feeds it disconnected lane maps (phase regions dealt
  // round-robin).  Every derived field must follow from shard_of alone.
  const Topology topo = Topology::ring_of_cliques(60, 5);
  Partition part;
  part.k = 3;
  for (std::int32_t u = 0; u < topo.n(); ++u) part.shard_of.push_back(u % 3);
  build_cuts(topo, part);
  expect_valid(topo, part, "round-robin assignment");
  ASSERT_EQ(part.shard_cuts.size(), 3u);
  std::vector<char> boundary(static_cast<std::size_t>(topo.n()), 0);
  for (std::size_t e = 0; e < part.cut_edges.size(); ++e) {
    const auto [u, v] = part.cut_edges[e];
    boundary[static_cast<std::size_t>(u)] = 1;
    boundary[static_cast<std::size_t>(v)] = 1;
    for (const std::int32_t end : {u, v}) {
      const auto& list = part.shard_cuts[static_cast<std::size_t>(
          part.shard_of[static_cast<std::size_t>(end)])];
      EXPECT_TRUE(std::binary_search(list.begin(), list.end(),
                                     static_cast<std::int32_t>(e)));
    }
  }
  EXPECT_EQ(part.boundary, boundary);
  EXPECT_EQ(static_cast<std::size_t>(part.internal_edges) +
                part.cut_edges.size(),
            undirected_edges(topo).size());
}

// -------------------------------------------------------------- degenerate ---

TEST(PartitionTest, KClampsToN) {
  const Topology topo = Topology::full_mesh(5);
  const Partition part = partition_topology(topo, 8, /*seed=*/1);
  expect_valid(topo, part, "k > n");
  EXPECT_EQ(part.k, 5);
  for (const std::int32_t size : part.shard_sizes) EXPECT_EQ(size, 1);
}

TEST(PartitionTest, KBelowOneMeansSerial) {
  const Topology topo = Topology::ring_of_cliques(12, 6);
  for (const std::int32_t k : {0, -3}) {
    const Partition part = partition_topology(topo, k, /*seed=*/1);
    expect_valid(topo, part, "k < 1");
    EXPECT_EQ(part.k, 1);
    EXPECT_TRUE(part.cut_edges.empty());
  }
}

TEST(PartitionTest, FullMeshHasNoGoodCutButStaysBalanced) {
  // Every balanced split of K_n cuts ~n^2/4 edges; the partitioner cannot
  // do better, but it must still deliver balanced nonempty shards so the
  // engine's per-lane work stays even.
  const Topology topo = Topology::full_mesh(16);
  const Partition part = partition_topology(topo, 4, /*seed=*/7);
  expect_valid(topo, part, "full mesh");
  const auto [lo, hi] =
      std::minmax_element(part.shard_sizes.begin(), part.shard_sizes.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(PartitionTest, MoreShardsThanComponents) {
  // Two disconnected triangles, k = 4: stray components attach whole to
  // the smallest shard, every shard stays nonempty, and no cut edge can
  // cross between components (there are no edges to cross).
  const Topology topo = Topology::from_adjacency({
      {1, 2},
      {0, 2},
      {0, 1},
      {4, 5},
      {3, 5},
      {3, 4},
  });
  const Partition part = partition_topology(topo, 4, /*seed=*/2);
  expect_valid(topo, part, "k > components");
  for (const auto& [u, v] : part.cut_edges) {
    EXPECT_EQ(u < 3, v < 3) << "cut edge crosses disconnected components";
  }
}

}  // namespace
}  // namespace wlsync::net
