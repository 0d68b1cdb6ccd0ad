// E18 — codebook construction modes: fresh vs mmap-load.
//
// The candidate dictionary dominates Codebook construction cost (two-hop
// sets are O(sum deg^2)); mmap-loading a serialized nb-codebook/v1 file
// (sim/codebook_io.h) avoids paying it. This bench measures both modes on
// the same graphs and verifies the property contract — the loaded codebook's
// fingerprint is identical to a fresh build's — then demonstrates the
// warm-start cache path (build + save, clear, reload from disk) and reports
// its counters.
//
// BENCH_codebook.json (nb-codebook-bench/v1) is consumed by
// check_perf_regression.py --codebook, which gates on the mmap speedup, and
// by CI's codebook-warm smoke job.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/codebook_io.h"

namespace {

/// Median wall-clock milliseconds of `reps` runs of `fn`.
template <typename Fn>
double median_ms(std::size_t reps, Fn&& fn) {
    std::vector<double> samples;
    samples.reserve(reps);
    for (std::size_t i = 0; i < reps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        samples.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

struct ModeRow {
    std::size_t n = 0;
    double fresh_ms = 0;
    double mmap_load_ms = 0;
    bool identical = false;  ///< the loaded codebook fingerprint-matched fresh
};

}  // namespace

int main() {
    using namespace nb;
    bench::header("E18", "codebook build modes: fresh vs mmap-load",
                  "serialized indexes avoid re-running the O(sum deg^2) "
                  "dictionary construction and are fingerprint-identical to a "
                  "fresh build");

    const std::size_t degree = 16;
    const std::size_t reps = 5;
    const std::string scratch_dir = "e18-codebook-scratch";
    ::mkdir(scratch_dir.c_str(), 0755);

    SimulationParams params;
    params.message_bits = 16;
    params.c_eps = 4;
    params.dictionary = DictionaryPolicy::two_hop;
    params.decoy_count = 16;

    std::vector<ModeRow> rows;
    Table table({"n", "fresh ms", "mmap ms", "mmap speedup", "identical"});
    for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
        const Graph g = bench::regular_graph(n, degree, 0xe18 + n);
        const Codebook base(g, params);
        const std::string file_path = scratch_dir + "/e18-n" + std::to_string(n) + ".nbc";
        save_codebook(base, file_path);

        ModeRow row;
        row.n = n;
        row.fresh_ms = median_ms(reps, [&] { Codebook fresh(g, params); });
        row.mmap_load_ms = median_ms(reps, [&] {
            auto file = CodebookFile::map(file_path);
            if (file == nullptr) {
                std::cerr << "error: cannot map " << file_path << '\n';
                std::exit(1);
            }
            Codebook loaded(g, params, std::move(file));
        });

        // The property contract, checked on the instance reported on.
        const Codebook loaded(g, params, CodebookFile::map(file_path));
        row.identical = loaded.fingerprint() == base.fingerprint();
        rows.push_back(row);

        table.add_row({Table::num(n), Table::num(row.fresh_ms, 2),
                       Table::num(row.mmap_load_ms, 3),
                       Table::num(row.fresh_ms / std::max(row.mmap_load_ms, 1e-6), 1) + "x",
                       row.identical ? "yes" : "NO"});
    }
    table.print(std::cout, "build modes (random regular, Delta=" + std::to_string(degree) +
                               ", two_hop, " + std::to_string(reps) + "-rep medians)");

    // Warm-start path end to end: a directory-backed cache builds and saves
    // once, and after clear() (simulating a process restart) the same
    // acquire is served by an mmap load — zero builds.
    CodebookCache cache(2, 4);
    cache.set_directory(scratch_dir);
    const Graph g_cache = bench::regular_graph(1024, degree, 0xe18 + 1024);
    cache.acquire(g_cache, params);  // cold: build + disk save
    cache.clear();                   // drop entries AND counters, keep the directory
    cache.acquire(g_cache, params);  // warm: disk load, no build
    const CodebookCache::Stats warm = cache.stats();
    std::cout << "warm-start cache: " << warm.builds << " builds, " << warm.disk_loads
              << " disk loads, " << warm.disk_saves << " disk saves after simulated "
              << "restart (expect 0 builds, 1 load)\n\n";

    const bool all_identical =
        std::all_of(rows.begin(), rows.end(), [](const ModeRow& r) { return r.identical; });

    nb::bench::write_json_file("BENCH_codebook.json", [&](JsonWriter& json) {
        json.begin_object();
        json.kv("schema", "nb-codebook-bench/v1");
        json.kv("degree", static_cast<std::uint64_t>(degree));
        json.kv("reps", static_cast<std::uint64_t>(reps));
        json.key("results").begin_array();
        for (const ModeRow& row : rows) {
            json.begin_object();
            json.kv("n", static_cast<std::uint64_t>(row.n));
            json.kv("fresh_ms", row.fresh_ms);
            json.kv("mmap_load_ms", row.mmap_load_ms);
            json.kv("identical", row.identical);
            json.end_object();
        }
        json.end_array();
        json.key("cache").begin_object();
        json.kv("builds", warm.builds);
        json.kv("hits", warm.hits);
        json.kv("disk_loads", warm.disk_loads);
        json.kv("disk_saves", warm.disk_saves);
        json.kv("hit_rate", warm.hit_rate());
        json.end_object();
        json.end_object();
    });

    bench::verdict(all_identical && warm.builds == 0 && warm.disk_loads == 1
                       ? "mmap loads are fingerprint-identical to fresh builds and "
                         "skip construction entirely; the warm-start cache restarts "
                         "with zero builds"
                       : "MODE MISMATCH — an mmap load diverged from the fresh "
                         "fingerprint or the warm start rebuilt");
    return 0;
}
