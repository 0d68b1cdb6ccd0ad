// Process-wide cache of Codebooks (and the TDMA baseline's G^2 colorings),
// shared across transports (see DESIGN.md section 7).
//
// A Codebook is a pure function of the graph's adjacency and a handful of
// SimulationParams fields (message_bits, c_eps, seeds, decoy_count,
// dictionary policy, bitslice threshold). It is NOT a function of the
// channel model, the design epsilon, or the thread count — exactly the axes
// a scenario sweep varies most. Before this cache, every transport built its
// own Codebook, so a 3-seed sweep of one spec paid the code-triple and
// two-hop-dictionary construction three times; now concurrent jobs sharing
// the build parameters get one build and N-1 hits.
//
// Every BeepTransport takes its codebook, and every TdmaTransport its
// coloring, from instance(): the paper's codes are public shared randomness,
// one per (graph, parameters), and this cache is that one build. There is no
// switch to bypass it. A test that needs one transport's own counters
// clear()s the cache first; a reference build outside it is a Codebook
// constructed directly from canonical_params().
//
// Structure: a fixed number of shards, each an LRU list of
// (key, shared_ptr<SharedCodebook>) pairs under its own mutex. The shard
// mutex is held *across a miss's build*: a concurrent lookup of the same key
// waits and then hits, so every key is built exactly once per residency —
// the contract the cache counter tests pin. (Different keys in the same
// shard serialize their builds too; with 8 shards and builds being rare,
// that is a non-issue, and it keeps the cache free of in-flight bookkeeping.)
//
// Entries own a *copy* of the graph and build the Codebook against that
// copy, so a cached Codebook never dangles when the transport whose graph
// triggered the build dies. Keys carry *two* independently seeded adjacency
// digests (plus the node count), computed in one streaming pass each; a hit
// requires both to match. The earlier design confirmed a digest match by
// exact adjacency comparison, which walked — and the coloring cache even
// copied — the whole graph per lookup; at 10^5-node scale that comparison
// cost more than the hit saved. A 128-bit digest pair makes an alias a
// ~2^-128 event per pair of distinct graphs, which is the same collision
// budget content-addressed stores run on.
//
// Counters (hits/builds/evictions, plus the coloring set; misses are not
// counted separately because every miss builds under the lock, so
// misses == builds by construction) are
// deterministic for a given workload as long as the working set fits the
// capacity: lookups and exactly-once builds do not depend on thread
// interleaving. Under eviction pressure the LRU order — and therefore which
// keys rebuild — can depend on job completion order; the shipped sweeps stay
// far below capacity (see DESIGN.md section 7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/codebook.h"
#include "sim/params.h"

namespace nb {

/// A cache entry: the owned graph copy and the Codebook built against it.
/// The member order is load-bearing — the Codebook references graph_.
class SharedCodebook {
public:
    SharedCodebook(const Graph& graph, const SimulationParams& params)
        : graph_(graph), codebook_(graph_, params) {}

    /// Mmap-backed build (sim/codebook_io.h): the candidate index is
    /// borrowed from the mapped file, which the codebook keeps alive.
    SharedCodebook(const Graph& graph, const SimulationParams& params,
                   std::shared_ptr<const CodebookFile> file)
        : graph_(graph), codebook_(graph_, params, std::move(file)) {}

    const Codebook& codebook() const noexcept { return codebook_; }
    const Graph& graph() const noexcept { return graph_; }

    /// Deterministic footprint estimate the cache's byte accounting charges
    /// for this entry: the owned graph copy plus the codebook's estimate.
    std::size_t memory_bytes() const;

private:
    Graph graph_;
    Codebook codebook_;
};

class CodebookCache {
public:
    /// `shard_capacity` codebooks per shard; least recently used beyond that
    /// are evicted (dropped from the cache — transports holding the
    /// shared_ptr keep their codebook alive regardless). `max_bytes` caps the
    /// total byte-accounted footprint (split evenly across shards; 0 =
    /// unlimited): under byte pressure the LRU tail is evicted, and a single
    /// codebook larger than a shard's byte budget is built and returned
    /// *uncached* rather than failing or flushing the shard. The process-wide
    /// instance defaults to 1 GiB, overridable via NB_CACHE_BYTES.
    explicit CodebookCache(std::size_t shard_count = 8, std::size_t shard_capacity = 8,
                           std::size_t max_bytes = default_max_bytes);

    CodebookCache(const CodebookCache&) = delete;
    CodebookCache& operator=(const CodebookCache&) = delete;

    /// The process-wide instance every transport consults.
    static CodebookCache& instance();

    /// The cached codebook for (graph, params), built on first use. The
    /// returned entry is independent of `graph`'s lifetime.
    std::shared_ptr<const SharedCodebook> acquire(const Graph& graph,
                                                  const SimulationParams& params);

    /// The cached greedy G^2 coloring of `graph` (the TDMA baseline's
    /// expensive per-transport setup), as a copy the caller owns.
    std::vector<std::size_t> coloring(const Graph& graph);

    /// Enable (or, with "", disable) the warm-start directory: every miss
    /// first tries to mmap-load `<dir>/cb-<key-hash>.nbc` (counted as a
    /// disk_load, not a build), and every completed build is serialized
    /// there best-effort (nb-codebook/v1, atomic-rename durable), so the
    /// next process cold-starts warm. The directory is created if missing
    /// and `.tmp` debris from a crashed writer is removed, mirroring the
    /// ArtifactStore's recovery. Files whose identity header does not match
    /// the key (stale graph, hash collision) are ignored and overwritten by
    /// the fresh build's save.
    void set_directory(const std::string& directory);
    std::string directory() const;

    struct Stats {
        std::uint64_t hits = 0;       ///< codebook lookups served from cache
        std::uint64_t builds = 0;     ///< *successful* Codebook constructions
                                      ///< (== misses that completed; a build
                                      ///< that throws is not counted)
        std::uint64_t evictions = 0;  ///< codebooks dropped by count-LRU pressure
        std::uint64_t evictions_capacity = 0;  ///< codebooks dropped by the byte cap
        std::uint64_t bytes_resident = 0;      ///< byte-accounted footprint now cached
        std::uint64_t oversize_uncached = 0;   ///< builds too large to cache at all
        std::uint64_t disk_loads = 0;   ///< misses served by an mmap-loaded file
        std::uint64_t disk_saves = 0;   ///< builds serialized to the directory
        std::uint64_t coloring_hits = 0;
        std::uint64_t coloring_builds = 0;
        std::uint64_t coloring_evictions = 0;

        /// hits / lookups (a disk load is a lookup that was neither a hit
        /// nor a build), 0 when nothing has been looked up — the one derived
        /// figure every consumer (nb_serve's `stats` response, nb_load's
        /// BENCH_serve.json, the bench console reports) wants, so it is
        /// computed here once instead of ad-hoc at each call site.
        double hit_rate() const noexcept {
            const std::uint64_t lookups = hits + builds + disk_loads;
            return lookups == 0 ? 0.0
                                : static_cast<double>(hits) / static_cast<double>(lookups);
        }
    };

    /// Consistent snapshot of every counter: all shard locks and the coloring
    /// lock are held simultaneously while the totals are read, so the
    /// returned struct describes one instant — hits + builds equals the
    /// lookups that had completed at that instant, and concurrent traffic
    /// cannot skew a rate computed from two fields. nb_serve's `stats`
    /// request reports this snapshot verbatim while executor threads run.
    Stats stats() const;

    /// Drop every entry and zero the counters. Tests use this to make
    /// counter assertions independent of what ran earlier in the process.
    void clear();

    /// The params a cached build actually uses: `params` with the fields a
    /// Codebook never reads (epsilon, channel, threads) normalized away, so
    /// transports differing only in those share one cache key.
    static SimulationParams canonical_params(const SimulationParams& params);

    /// Order-sensitive digest of the adjacency structure (node count plus
    /// every sorted neighbor list).
    static std::uint64_t graph_digest(const Graph& graph);

    /// Second adjacency digest with an independent seed and mixing schedule;
    /// the (graph_digest, graph_digest2) pair is the streaming replacement
    /// for the old exact-adjacency hit confirmation.
    static std::uint64_t graph_digest2(const Graph& graph);

    /// Digest of the cache key acquire(graph, params) would use. The sweep
    /// engine's analytic cold-start cache block counts distinct key digests
    /// to predict exactly-once builds without touching the cache.
    static std::uint64_t key_digest(const Graph& graph, const SimulationParams& params);

private:
    struct Key {
        std::uint64_t graph_digest = 0;
        std::uint64_t graph_digest2 = 0;
        std::size_t node_count = 0;
        std::size_t message_bits = 0;
        std::size_t c_eps = 0;
        std::uint64_t code_seed = 0;
        std::uint64_t transport_seed = 0;
        std::size_t decoy_count = 0;
        std::size_t bitslice_min_candidates = 0;
        DictionaryPolicy dictionary = DictionaryPolicy::two_hop;

        bool operator==(const Key&) const = default;
        std::uint64_t hash() const;
    };

    struct Entry {
        Key key;
        std::shared_ptr<const SharedCodebook> codebook;
        std::size_t bytes = 0;  ///< memory_bytes() at insert, charged until evicted
    };

    struct Shard {
        mutable std::mutex mutex;
        std::list<Entry> lru;  ///< most recently used first
        std::size_t bytes = 0;  ///< sum of resident entry bytes
        std::uint64_t hits = 0;
        std::uint64_t builds = 0;
        std::uint64_t evictions = 0;
        std::uint64_t evictions_capacity = 0;
        std::uint64_t oversize_uncached = 0;
        std::uint64_t disk_loads = 0;
        std::uint64_t disk_saves = 0;
    };

    /// A coloring entry is keyed by the digest pair — no graph copy.
    struct ColoringEntry {
        std::uint64_t digest = 0;
        std::uint64_t digest2 = 0;
        std::vector<std::size_t> colors;
    };

    static Key make_key(const Graph& graph, const SimulationParams& params);

    /// Process-wide default byte cap (1 GiB); NB_CACHE_BYTES overrides it
    /// for the instance(). Far above any shipped workload — the cap exists
    /// so a pathological sweep degrades by evicting instead of growing until
    /// the OS kills the process.
    static constexpr std::size_t default_max_bytes = std::size_t{1} << 30;

    std::size_t shard_capacity_;
    std::size_t shard_byte_cap_;  ///< max_bytes / shard_count; 0 = unlimited
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex directory_mutex_;
    std::string directory_;  ///< warm-start dir; empty = disk path disabled

    mutable std::mutex coloring_mutex_;
    std::list<ColoringEntry> colorings_;  ///< most recently used first
    std::size_t coloring_capacity_;
    std::uint64_t coloring_hits_ = 0;
    std::uint64_t coloring_builds_ = 0;
    std::uint64_t coloring_evictions_ = 0;
};

}  // namespace nb
