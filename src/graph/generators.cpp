#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"

namespace nb {

Graph make_complete(std::size_t n) {
    std::vector<Edge> edges;
    edges.reserve(n * (n - 1) / 2);
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
            edges.push_back(Edge{u, v});
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_complete_bipartite(std::size_t left, std::size_t right) {
    std::vector<Edge> edges;
    edges.reserve(left * right);
    for (NodeId u = 0; u < left; ++u) {
        for (NodeId v = 0; v < right; ++v) {
            edges.push_back(Edge{u, static_cast<NodeId>(left + v)});
        }
    }
    return Graph::from_edges(left + right, edges);
}

Graph make_hard_instance(std::size_t n, std::size_t delta) {
    require(n >= 2 * delta, "make_hard_instance: need n >= 2*delta");
    std::vector<Edge> edges;
    edges.reserve(delta * delta);
    for (NodeId u = 0; u < delta; ++u) {
        for (NodeId v = 0; v < delta; ++v) {
            edges.push_back(Edge{u, static_cast<NodeId>(delta + v)});
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_ring(std::size_t n) {
    require(n >= 3, "make_ring: need n >= 3");
    std::vector<Edge> edges;
    edges.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
        edges.push_back(Edge{v, static_cast<NodeId>((v + 1) % n)});
    }
    return Graph::from_edges(n, edges);
}

Graph make_path(std::size_t n) {
    std::vector<Edge> edges;
    if (n >= 2) {
        edges.reserve(n - 1);
        for (NodeId v = 0; v + 1 < n; ++v) {
            edges.push_back(Edge{v, static_cast<NodeId>(v + 1)});
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_star(std::size_t n) {
    require(n >= 1, "make_star: need n >= 1");
    std::vector<Edge> edges;
    edges.reserve(n - 1);
    for (NodeId v = 1; v < n; ++v) {
        edges.push_back(Edge{0, v});
    }
    return Graph::from_edges(n, edges);
}

Graph make_grid(std::size_t rows, std::size_t cols) {
    require(rows >= 1 && cols >= 1, "make_grid: need rows, cols >= 1");
    std::vector<Edge> edges;
    edges.reserve(2 * rows * cols);
    const auto id = [cols](std::size_t r, std::size_t c) {
        return static_cast<NodeId>(r * cols + c);
    };
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) {
                edges.push_back(Edge{id(r, c), id(r, c + 1)});
            }
            if (r + 1 < rows) {
                edges.push_back(Edge{id(r, c), id(r + 1, c)});
            }
        }
    }
    return Graph::from_edges(rows * cols, edges);
}

Graph make_tree(std::size_t n, std::size_t arity) {
    require(arity >= 1, "make_tree: arity must be >= 1");
    std::vector<Edge> edges;
    if (n >= 2) {
        edges.reserve(n - 1);
        for (NodeId v = 1; v < n; ++v) {
            edges.push_back(Edge{static_cast<NodeId>((v - 1) / arity), v});
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_erdos_renyi(std::size_t n, double p, Rng& rng) {
    require(p >= 0.0 && p <= 1.0, "make_erdos_renyi: p must be in [0, 1]");
    std::vector<Edge> edges;
    if (p > 0.0 && n >= 2) {
        if (p >= 1.0) {
            return make_complete(n);
        }
        // Geometric skipping over the lexicographic pair order: expected
        // O(p * n^2) draws rather than n^2 Bernoulli draws, each gap from
        // one table sampler (no logarithm per edge).
        const GeometricSkip gap(p);
        const std::size_t total_pairs = n * (n - 1) / 2;
        // Pair index -> (u, v): row u holds the n-1-u pairs (u, u+1..n-1)
        // and starts at index row_start. The index only grows, so the row
        // cursor only moves forward: O(n + m) decoding per graph.
        NodeId u = 0;
        std::size_t row_start = 0;
        std::size_t row = n - 1;
        std::size_t index = 0;
        while (true) {
            const std::uint64_t skip = gap.sample(rng);
            if (skip >= total_pairs - index) {
                break;
            }
            index += static_cast<std::size_t>(skip);
            while (index - row_start >= row) {
                row_start += row;
                --row;
                ++u;
            }
            edges.push_back(Edge{u, static_cast<NodeId>(u + 1 + (index - row_start))});
            ++index;
            if (index >= total_pairs) {
                break;
            }
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_random_regular(std::size_t n, std::size_t d, Rng& rng) {
    require(d < n, "make_random_regular: need d < n");
    require((n * d) % 2 == 0, "make_random_regular: n*d must be even");
    // Pairing/configuration model: d stubs per node, random perfect matching
    // on stubs; conflicting pairs (loops, duplicates) are dropped.
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (NodeId v = 0; v < n; ++v) {
        for (std::size_t i = 0; i < d; ++i) {
            stubs.push_back(v);
        }
    }
    rng.shuffle(stubs);
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<Edge> edges;
    edges.reserve(n * d / 2);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
        const NodeId u = std::min(stubs[i], stubs[i + 1]);
        const NodeId v = std::max(stubs[i], stubs[i + 1]);
        if (u == v) {
            continue;
        }
        if (seen.insert({u, v}).second) {
            edges.push_back(Edge{u, v});
        }
    }
    return Graph::from_edges(n, edges);
}

Graph make_random_geometric(std::size_t n, double radius, Rng& rng) {
    require(radius >= 0.0, "make_random_geometric: radius must be >= 0");
    std::vector<double> xs(n);
    std::vector<double> ys(n);
    for (std::size_t v = 0; v < n; ++v) {
        xs[v] = rng.next_double();
        ys[v] = rng.next_double();
    }
    const double r2 = radius * radius;
    std::vector<Edge> edges;
    for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
            const double dx = xs[u] - xs[v];
            const double dy = ys[u] - ys[v];
            if (dx * dx + dy * dy <= r2) {
                edges.push_back(Edge{u, v});
            }
        }
    }
    return Graph::from_edges(n, edges);
}

}  // namespace nb
