// Unit tests for the graph substrate: representation, generators, coloring.
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace nb {
namespace {

TEST(Graph, EmptyGraph) {
    Graph g(5);
    EXPECT_EQ(g.node_count(), 5u);
    EXPECT_EQ(g.edge_count(), 0u);
    EXPECT_EQ(g.max_degree(), 0u);
    EXPECT_EQ(g.non_isolated_count(), 0u);
}

TEST(Graph, FromEdgesBasics) {
    const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.max_degree(), 2u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NeighborsSorted) {
    const Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}});
    const auto adjacency = g.neighbors(3);
    ASSERT_EQ(adjacency.size(), 4u);
    EXPECT_EQ(adjacency[0], 0u);
    EXPECT_EQ(adjacency[3], 4u);
}

TEST(Graph, RejectsSelfLoop) {
    EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), precondition_error);
}

TEST(Graph, RejectsDuplicateEdges) {
    EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), precondition_error);
}

TEST(Graph, RejectsOutOfRange) {
    EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), precondition_error);
}

TEST(Graph, EdgesCanonical) {
    const Graph g = Graph::from_edges(3, {{2, 0}, {1, 0}});
    const auto edges = g.edges();
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], (Edge{0, 1}));
    EXPECT_EQ(edges[1], (Edge{0, 2}));
}

TEST(Generators, Complete) {
    const Graph g = make_complete(6);
    EXPECT_EQ(g.edge_count(), 15u);
    EXPECT_EQ(g.max_degree(), 5u);
}

TEST(Generators, CompleteBipartite) {
    const Graph g = make_complete_bipartite(3, 4);
    EXPECT_EQ(g.node_count(), 7u);
    EXPECT_EQ(g.edge_count(), 12u);
    EXPECT_EQ(g.max_degree(), 4u);
    EXPECT_TRUE(g.has_edge(0, 3));
    EXPECT_FALSE(g.has_edge(0, 1));  // same side
}

TEST(Generators, HardInstanceShape) {
    // Lemma 14's instance: K_{delta,delta} plus isolated vertices.
    const Graph g = make_hard_instance(20, 4);
    EXPECT_EQ(g.node_count(), 20u);
    EXPECT_EQ(g.edge_count(), 16u);
    EXPECT_EQ(g.max_degree(), 4u);
    EXPECT_EQ(g.non_isolated_count(), 8u);
    EXPECT_THROW(make_hard_instance(7, 4), precondition_error);
}

TEST(Generators, RingAndPath) {
    const Graph ring = make_ring(5);
    EXPECT_EQ(ring.edge_count(), 5u);
    EXPECT_EQ(ring.max_degree(), 2u);
    const Graph path = make_path(5);
    EXPECT_EQ(path.edge_count(), 4u);
    EXPECT_EQ(path.degree(0), 1u);
    EXPECT_EQ(path.degree(2), 2u);
}

TEST(Generators, Star) {
    const Graph g = make_star(7);
    EXPECT_EQ(g.degree(0), 6u);
    EXPECT_EQ(g.max_degree(), 6u);
    for (NodeId v = 1; v < 7; ++v) {
        EXPECT_EQ(g.degree(v), 1u);
    }
}

TEST(Generators, Grid) {
    const Graph g = make_grid(3, 4);
    EXPECT_EQ(g.node_count(), 12u);
    // 3*3 horizontal + 2*4 vertical = 17 edges.
    EXPECT_EQ(g.edge_count(), 17u);
    EXPECT_EQ(g.max_degree(), 4u);
}

TEST(Generators, Tree) {
    const Graph g = make_tree(7, 2);
    EXPECT_EQ(g.edge_count(), 6u);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(connected_component_count(g), 1u);
}

TEST(Generators, ErdosRenyiDensityRoughlyP) {
    Rng rng(5);
    const std::size_t n = 200;
    const double p = 0.05;
    const Graph g = make_erdos_renyi(n, p, rng);
    const double expected = p * static_cast<double>(n * (n - 1) / 2);
    EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, expected * 0.25);
}

TEST(Generators, ErdosRenyiExtremes) {
    Rng rng(5);
    EXPECT_EQ(make_erdos_renyi(10, 0.0, rng).edge_count(), 0u);
    EXPECT_EQ(make_erdos_renyi(10, 1.0, rng).edge_count(), 45u);
}

TEST(Generators, ErdosRenyiEdgeListsArePinned) {
    // FNV-1a over the canonical edge list plus the generator's next draw,
    // recorded from the per-draw-logarithm, row-walk-from-zero decoder:
    // the table sampler and the forward row cursor change neither the
    // edges nor the number of draws taken.
    const auto edge_hash = [](const Graph& g) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const Edge& e : g.edges()) {
            for (const std::uint64_t x : {std::uint64_t{e.first}, std::uint64_t{e.second}}) {
                h ^= x;
                h *= 0x100000001b3ULL;
            }
        }
        return h;
    };
    struct Case {
        std::size_t n;
        double p;
        std::size_t edges;
        std::uint64_t hash;
        std::uint64_t next_draw;
    };
    for (const Case& c : {Case{2000, 0.01, 19967, 0x68d15471b9994b71ULL, 0x30b5a100a048a0ffULL},
                          Case{300, 0.3, 13321, 0x43295bae2468c3b5ULL, 0x6d07b93e8c59f3c4ULL}}) {
        Rng rng(17);
        const Graph g = make_erdos_renyi(c.n, c.p, rng);
        EXPECT_EQ(g.edge_count(), c.edges) << "n=" << c.n;
        EXPECT_EQ(edge_hash(g), c.hash) << "n=" << c.n;
        EXPECT_EQ(rng.next_u64(), c.next_draw) << "n=" << c.n;
    }
}

TEST(Generators, RandomRegularDegreeCap) {
    Rng rng(8);
    const Graph g = make_random_regular(50, 4, rng);
    EXPECT_EQ(g.node_count(), 50u);
    EXPECT_LE(g.max_degree(), 4u);
    // The pairing model drops few edges: expect close to regular.
    EXPECT_GE(g.edge_count(), 90u);
    EXPECT_THROW(make_random_regular(5, 3, rng), precondition_error);  // odd n*d
}

TEST(Generators, RandomGeometricMonotoneInRadius) {
    Rng rng1(9);
    Rng rng2(9);
    const Graph sparse = make_random_geometric(100, 0.05, rng1);
    const Graph dense = make_random_geometric(100, 0.3, rng2);
    EXPECT_LT(sparse.edge_count(), dense.edge_count());
}

TEST(Algorithms, BfsDistancesOnPath) {
    const Graph g = make_path(5);
    const auto dist = bfs_distances(g, 0);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(dist[i], i);
    }
}

TEST(Algorithms, BfsUnreachable) {
    Graph g = Graph::from_edges(4, {{0, 1}});
    const auto dist = bfs_distances(g, 0);
    EXPECT_EQ(dist[1], 1u);
    EXPECT_EQ(dist[2], unreachable);
    EXPECT_EQ(dist[3], unreachable);
}

TEST(Algorithms, DiameterOfRing) {
    EXPECT_EQ(diameter(make_ring(8)), 4u);
    EXPECT_EQ(diameter(make_ring(9)), 4u);
    EXPECT_EQ(diameter(make_path(6)), 5u);
    EXPECT_EQ(diameter(make_complete(5)), 1u);
}

TEST(Algorithms, Components) {
    const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}});
    EXPECT_EQ(connected_component_count(g), 4u);
    EXPECT_FALSE(is_connected(g));
    EXPECT_TRUE(is_connected(make_ring(4)));
}

TEST(Coloring, GreedyProper) {
    Rng rng(5);
    const Graph g = make_erdos_renyi(80, 0.1, rng);
    const auto colors = greedy_coloring(g);
    EXPECT_TRUE(is_proper_coloring(g, colors));
    EXPECT_LE(color_count(colors), g.max_degree() + 1);
}

TEST(Coloring, GreedyDistance2Proper) {
    Rng rng(6);
    const Graph g = make_erdos_renyi(80, 0.07, rng);
    const auto colors = greedy_distance2_coloring(g);
    EXPECT_TRUE(is_distance2_coloring(g, colors));
    EXPECT_LE(color_count(colors), g.max_degree() * g.max_degree() + 1);
}

TEST(Coloring, Distance2ValidatorCatchesViolations) {
    // On a star, all leaves are within distance 2 of each other.
    const Graph g = make_star(5);
    std::vector<std::size_t> bad(5, 0);
    bad[0] = 1;  // leaves all share color 0 -> invalid
    EXPECT_FALSE(is_distance2_coloring(g, bad));
    std::vector<std::size_t> good{4, 0, 1, 2, 3};
    EXPECT_TRUE(is_distance2_coloring(g, good));
}

TEST(Coloring, ProperValidatorCatchesViolations) {
    const Graph g = make_path(3);
    EXPECT_FALSE(is_proper_coloring(g, {0, 0, 1}));
    EXPECT_TRUE(is_proper_coloring(g, {0, 1, 0}));
}

TEST(Coloring, Distance2ColorCountOnBipartite) {
    // On K_{d,d} all nodes are within distance 2: need exactly 2d colors.
    const Graph g = make_complete_bipartite(5, 5);
    const auto colors = greedy_distance2_coloring(g);
    EXPECT_TRUE(is_distance2_coloring(g, colors));
    EXPECT_EQ(color_count(colors), 10u);
}

}  // namespace
}  // namespace nb
