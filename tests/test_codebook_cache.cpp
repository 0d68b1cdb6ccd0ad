// Property tests for the process-wide CodebookCache (sim/codebook_cache.h):
// a cache hit must be bit-identical to a fresh build for every shipped
// registry spec and for thread counts 1/2/8, the counters must pin
// exactly-once construction across a multi-seed sweep, and the byte cap must
// evict from the LRU tail, hand oversize builds back uncached, and account
// exactly the bytes it charged.
//
// Tests clear() the cache up front so the counter assertions hold whether
// the binary runs one test per process (ctest) or all in one (bare
// nb_tests).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "scenarios/registry.h"
#include "scenarios/sweep.h"
#include "sim/codebook_cache.h"
#include "sim/transport.h"

namespace nb {
namespace {

TEST(CodebookCacheProperty, HitIsBitIdenticalToFreshBuildForEveryShippedSpec) {
    CodebookCache::instance().clear();
    for (const auto& spec : scenarios::shipped_scenarios()) {
        SCOPED_TRACE(spec.name);
        const Graph graph = spec.topology.build();

        if (spec.transport == TransportKind::tdma) {
            // The baseline's cached artifact is the G^2 coloring.
            const TdmaTransport cached(graph, spec.tdma_params(graph.node_count()));
            EXPECT_EQ(cached.colors(), greedy_distance2_coloring(graph));
            continue;
        }

        // A fresh build outside the cache is the reference.
        const Codebook reference(graph, CodebookCache::canonical_params(spec.sim_params()));
        const std::uint64_t expected = reference.fingerprint();

        // Transports at thread counts 1/2/8 must all decode
        // through a codebook with the reference fingerprint — and through
        // ONE shared object, since threads are not part of the cache key.
        const Codebook* shared = nullptr;
        for (const std::size_t threads : {1u, 2u, 8u}) {
            SimulationParams params = spec.sim_params();
            params.threads = threads;
            const BeepTransport transport(graph, params);
            EXPECT_EQ(transport.codebook().fingerprint(), expected);
            if (shared == nullptr) {
                shared = &transport.codebook();
            } else {
                EXPECT_EQ(shared, &transport.codebook());
            }
        }
    }
}

TEST(CodebookCacheProperty, ThreeSeedSweepBuildsEachCodebookExactlyOnce) {
    CodebookCache::instance().clear();

    SweepSpec sweep;
    sweep.name = "one-spec-three-seeds";
    sweep.bases = {*scenarios::find_scenario("e11-eps0.10-c4")};
    sweep.axes.seeds = {1, 2, 3};
    const SweepResult result = run_sweep(sweep);

    ASSERT_EQ(result.jobs, 3u);
    // All three jobs share one topology and one set of code parameters
    // (only the workload seed differs), so the sweep builds the codebook
    // exactly once and the other two jobs hit.
    EXPECT_EQ(result.cache.builds, 1u);
    EXPECT_EQ(result.cache.hits, 2u);
}

TEST(CodebookCacheProperty, DistinctParametersGetDistinctCodebooks) {
    CodebookCache::instance().clear();
    const Graph graph = scenarios::find_scenario("e11-eps0.10-c4")->topology.build();

    SimulationParams a;
    a.message_bits = 6;
    a.c_eps = 4;
    SimulationParams b = a;
    b.c_eps = 6;  // different code geometry -> different key
    SimulationParams c = a;
    c.epsilon = 0.3;  // NOT part of the key -> shares with a

    const BeepTransport ta(graph, a);
    const BeepTransport tb(graph, b);
    const BeepTransport tc(graph, c);
    EXPECT_NE(&ta.codebook(), &tb.codebook());
    EXPECT_NE(ta.codebook().fingerprint(), tb.codebook().fingerprint());
    EXPECT_EQ(&ta.codebook(), &tc.codebook());

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(CodebookCacheProperty, EqualStructureDifferentGraphObjectsShareOneBuild) {
    CodebookCache::instance().clear();
    const TopologySpec topology = scenarios::find_scenario("ge-burst")->topology;
    const Graph g1 = topology.build();
    const Graph g2 = topology.build();  // distinct object, equal adjacency

    SimulationParams params;
    params.message_bits = 6;
    params.c_eps = 4;
    const BeepTransport t1(g1, params);
    const BeepTransport t2(g2, params);
    EXPECT_EQ(&t1.codebook(), &t2.codebook());
    EXPECT_EQ(CodebookCache::instance().stats().builds, 1u);

    // The cached codebook owns its own graph copy: it must reference
    // neither caller's graph.
    EXPECT_NE(&t1.codebook().graph(), &g1);
    EXPECT_NE(&t1.codebook().graph(), &g2);
}

TEST(CodebookCacheProperty, ClearResetsCountersAndDropsEntries) {
    CodebookCache& cache = CodebookCache::instance();
    cache.clear();
    const Graph graph = scenarios::find_scenario("ge-burst")->topology.build();
    SimulationParams params;
    params.message_bits = 6;
    const BeepTransport transport(graph, params);
    EXPECT_EQ(cache.stats().builds, 1u);

    cache.clear();
    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.hits, 0u);

    // The evicted-but-held codebook stays alive through the transport's
    // shared_ptr; a new transport rebuilds rather than hitting.
    const BeepTransport rebuilt(graph, params);
    EXPECT_EQ(cache.stats().builds, 1u);
    EXPECT_NE(&rebuilt.codebook(), &transport.codebook());
    EXPECT_EQ(rebuilt.codebook().fingerprint(), transport.codebook().fingerprint());
}

TEST(CodebookCacheProperty, StatsSnapshotIsConsistentAndExposesHitRate) {
    CodebookCache& cache = CodebookCache::instance();
    cache.clear();
    EXPECT_EQ(cache.stats().hit_rate(), 0.0);  // no lookups: defined as 0

    const Graph graph = scenarios::find_scenario("ge-burst")->topology.build();
    SimulationParams a;
    a.message_bits = 6;
    SimulationParams b = a;
    b.c_eps = 6;
    const BeepTransport build_a(graph, a);
    const BeepTransport build_b(graph, b);
    const BeepTransport hit_a(graph, a);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);

    // stats() takes every shard lock plus the coloring lock simultaneously —
    // a consistent snapshot by construction. Hammer it from one thread while
    // others acquire concurrently: every snapshot must be internally sane
    // (lookups never run backwards between snapshots, rate stays in [0, 1]),
    // and the nested locking must not deadlock against in-flight builds.
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::uint64_t last_lookups = 0;
        while (!stop.load()) {
            const auto snapshot = cache.stats();
            const std::uint64_t lookups = snapshot.hits + snapshot.builds;
            EXPECT_GE(lookups, last_lookups);
            EXPECT_GE(snapshot.hit_rate(), 0.0);
            EXPECT_LE(snapshot.hit_rate(), 1.0);
            last_lookups = lookups;
        }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            SimulationParams params;
            params.message_bits = 6;
            params.c_eps = 4 + static_cast<std::size_t>(w % 2) * 2;
            for (int i = 0; i < 50; ++i) {
                const BeepTransport transport(graph, params);
            }
        });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    stop.store(true);
    reader.join();
}

TEST(CodebookCacheProperty, ColoringCacheServesTdmaTransports) {
    CodebookCache::instance().clear();
    const Graph graph = scenarios::find_scenario("e5-delta8-tdma")->topology.build();
    TdmaParams params;
    params.message_bits = 8;

    const TdmaTransport first(graph, params);
    const TdmaTransport second(graph, params);
    EXPECT_EQ(first.colors(), second.colors());

    EXPECT_EQ(first.colors(), greedy_distance2_coloring(graph));

    const auto stats = CodebookCache::instance().stats();
    EXPECT_EQ(stats.coloring_builds, 1u);
    EXPECT_EQ(stats.coloring_hits, 1u);
}

/// Params for the byte-cap tests: small codes on a 24-node ring; distinct
/// `code_seed`s give distinct keys with identical footprints.
SimulationParams cap_params(std::uint64_t code_seed) {
    SimulationParams params;
    params.message_bits = 8;
    params.decoy_count = 4;
    params.code_seed = code_seed;
    return params;
}

std::size_t charged_bytes(const Graph& graph, const SimulationParams& params) {
    return SharedCodebook(graph, CodebookCache::canonical_params(params)).memory_bytes();
}

TEST(CodebookCacheByteCap, EvictsTheLeastRecentlyUsedEntryUnderBytePressure) {
    const Graph graph = make_ring(24);
    const std::size_t entry = charged_bytes(graph, cap_params(1));
    ASSERT_EQ(charged_bytes(graph, cap_params(2)), entry);
    // Room for two entries, not three; the count capacity (8) never binds.
    CodebookCache cache(1, 8, 2 * entry + entry / 2);

    cache.acquire(graph, cap_params(1));
    cache.acquire(graph, cap_params(2));
    cache.acquire(graph, cap_params(3));  // over the cap: seed 1 goes
    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 3u);
    EXPECT_EQ(stats.evictions_capacity, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.bytes_resident, 2 * entry);

    cache.acquire(graph, cap_params(2));  // hit: seed 3 is now the LRU tail
    cache.acquire(graph, cap_params(1));  // rebuilt, evicting seed 3
    cache.acquire(graph, cap_params(2));  // still resident
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.builds, 4u);
    EXPECT_EQ(stats.evictions_capacity, 2u);
    EXPECT_EQ(stats.oversize_uncached, 0u);
    EXPECT_EQ(stats.bytes_resident, 2 * entry);

    cache.acquire(graph, cap_params(3));
    EXPECT_EQ(cache.stats().builds, 5u);
}

TEST(CodebookCacheByteCap, OversizeCodebookIsReturnedUncached) {
    const Graph graph = make_ring(24);
    const SimulationParams params = cap_params(1);
    const std::size_t entry = charged_bytes(graph, params);
    CodebookCache cache(1, 8, entry - 1);

    const auto first = cache.acquire(graph, params);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->memory_bytes(), entry);
    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.oversize_uncached, 1u);
    EXPECT_EQ(stats.bytes_resident, 0u);

    // Nothing was cached, so the next acquire builds again.
    const auto second = cache.acquire(graph, params);
    EXPECT_NE(first.get(), second.get());
    EXPECT_EQ(first->codebook().fingerprint(), second->codebook().fingerprint());
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.builds, 2u);
    EXPECT_EQ(stats.oversize_uncached, 2u);
    EXPECT_EQ(stats.evictions_capacity, 0u);
}

TEST(CodebookCacheByteCap, BytesResidentIsTheSumOfChargedEntries) {
    Rng rng(5);
    const Graph ring = make_ring(24);
    const Graph regular = make_random_regular(40, 6, rng);
    SimulationParams all_nodes = cap_params(1);
    all_nodes.dictionary = DictionaryPolicy::all_nodes;
    SimulationParams bitsliced = all_nodes;
    bitsliced.bitslice_min_candidates = 0;
    SimulationParams wide = cap_params(1);
    wide.message_bits = 12;

    CodebookCache cache(1, 8, std::size_t{1} << 30);
    std::size_t sum = 0;
    for (const Graph* graph : {&ring, &regular}) {
        for (const SimulationParams& params : {cap_params(1), all_nodes, bitsliced, wide}) {
            sum += cache.acquire(*graph, params)->memory_bytes();
            EXPECT_EQ(cache.stats().bytes_resident, sum);
        }
    }
    cache.acquire(ring, cap_params(1));  // a hit charges nothing more
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().bytes_resident, sum);
}

TEST(CodebookCacheByteCap, OnlyBitslicedCodebooksAreChargedForTheTransposedRound) {
    // all_nodes codebooks below bitslice_min_candidates build no bitslice
    // matrix or SoA dictionary, so they are not charged for them either.
    const Graph graph = make_ring(24);
    const std::size_t n = graph.node_count();
    SimulationParams scalar = cap_params(1);
    scalar.dictionary = DictionaryPolicy::all_nodes;
    ASSERT_LT(n + scalar.decoy_count, scalar.bitslice_min_candidates);
    SimulationParams bitsliced = scalar;
    bitsliced.bitslice_min_candidates = 0;

    const Codebook plain(graph, scalar);
    const Codebook sliced(graph, bitsliced);
    std::vector<std::optional<Bitstring>> messages(n);
    EXPECT_TRUE(plain.round(messages, 1)->codeword_slices.empty());
    EXPECT_FALSE(sliced.round(messages, 1)->codeword_slices.empty());

    const std::size_t columns = n + scalar.decoy_count;
    const std::size_t transposed =
        plain.beep_length() * ((columns + 63) / 64) * sizeof(std::uint64_t) +
        (columns + 1) * ((scalar.distance_code_length() + 7) / 8);
    EXPECT_EQ(sliced.memory_bytes(), plain.memory_bytes() + transposed);

    // two_hop codebooks never transpose, whatever the threshold.
    SimulationParams two_hop = cap_params(1);
    const std::size_t two_hop_bytes = Codebook(graph, two_hop).memory_bytes();
    two_hop.bitslice_min_candidates = 0;
    EXPECT_EQ(Codebook(graph, two_hop).memory_bytes(), two_hop_bytes);
}

}  // namespace
}  // namespace nb
