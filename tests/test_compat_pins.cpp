// Compatibility pins for on-disk and on-journal identities: the exact bytes
// nb-codebook/v1 writes, the cache key digest that names a warm-start file
// (cb-<hash>.nbc), and scenario_spec_fingerprint of every shipped and demo
// spec. A codebook directory or a sweep journal written by an older build
// must stay usable by a newer one, so a change that moves any of these
// values breaks warm starts or journal replay and has to be deliberate.
// Also pinned: the canonical bytes of a small sweep's nb-sweep/v1 artifact
// and journal, which no observability counter may reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "graph/generators.h"
#include "scenarios/registry.h"
#include "scenarios/scenario.h"
#include "scenarios/sweep.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/codebook_io.h"

namespace nb {
namespace {

std::string read_file(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return {};
    }
    std::string text;
    char buffer[1 << 12];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
        text.append(buffer, got);
    }
    std::fclose(file);
    return text;
}

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : bytes) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The pinned configuration: a 24-node ring, B = 8, c_eps = 4, 4 decoys,
/// default seeds and bitslice threshold.
SimulationParams pin_params(DictionaryPolicy dictionary) {
    SimulationParams params;
    params.message_bits = 8;
    params.c_eps = 4;
    params.decoy_count = 4;
    params.dictionary = dictionary;
    return params;
}

struct CodebookPin {
    DictionaryPolicy dictionary;
    std::uint64_t file_fnv1a;
    std::uint64_t key_digest;
};

constexpr CodebookPin kCodebookPins[] = {
    {DictionaryPolicy::two_hop, 0xf775ede694c4f9b0ULL, 0x49f9379554cb5e75ULL},
    {DictionaryPolicy::all_nodes, 0x7a91908ba9072eceULL, 0x8a19cbbf662b75afULL},
};

TEST(CompatPins, CodebookFileBytesAndCacheKeyDigest) {
    const Graph graph = make_ring(24);
    for (const CodebookPin& pin : kCodebookPins) {
        const SimulationParams params = pin_params(pin.dictionary);
        SCOPED_TRACE(pin.dictionary == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes");

        const std::string path = ::testing::TempDir() +
                                 ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                                 ".nbc";
        save_codebook(Codebook(graph, CodebookCache::canonical_params(params)), path);
        const std::string bytes = read_file(path);
        std::remove(path.c_str());
        ASSERT_FALSE(bytes.empty());
        // The identity header keeps the library default threshold, so files
        // written before and after it left the spec schema interchange.
        EXPECT_NE(bytes.find("\"bitslice_min_candidates\": 512,"), std::string::npos);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(fnv1a(bytes)));
        EXPECT_EQ(fnv1a(bytes), pin.file_fnv1a) << hex;

        const std::uint64_t key = CodebookCache::key_digest(graph, params);
        std::snprintf(hex, sizeof hex, "0x%016llxULL", static_cast<unsigned long long>(key));
        EXPECT_EQ(key, pin.key_digest) << hex;
    }
}

TEST(CompatPins, ShippedAndDemoSpecFingerprints) {
    const std::map<std::string, std::uint64_t> pinned = {
        {"e5-delta8-beep", 0x62c5c6c5e8303b2fULL},
        {"e5-delta8-tdma", 0xab20184e6f795596ULL},
        {"e6-n256", 0x99b5641797ff4453ULL},
        {"e11-eps0.10-c4", 0x1362c2f9f324163dULL},
        {"ge-burst", 0x6fd502a557f7f665ULL},
        {"het-pernode", 0x01ff5e506d95f4c3ULL},
        {"adv-budget64", 0xb4c0dc70037b9dd3ULL},
        {"faults-midrun", 0xb8d8c20adfd0fa68ULL},
        {"demo-ring-100k", 0x0d94059079c5c90eULL},
        {"demo-ring-1m", 0x389d439e98a69c73ULL},
    };
    std::vector<ScenarioSpec> specs = scenarios::shipped_scenarios();
    specs.insert(specs.end(), scenarios::demo_scenarios().begin(),
                 scenarios::demo_scenarios().end());
    std::size_t checked = 0;
    for (const auto& spec : specs) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(scenario_spec_fingerprint(spec)));
        const auto it = pinned.find(spec.name);
        if (it == pinned.end()) {
            ADD_FAILURE() << "unpinned shipped spec: {\"" << spec.name << "\", " << hex << "},";
            continue;
        }
        EXPECT_EQ(scenario_spec_fingerprint(spec), it->second) << spec.name << " " << hex;
        ++checked;
    }
    EXPECT_EQ(checked, pinned.size());
}

TEST(CompatPins, SweepArtifactAndJournalBytes) {
    // Both dictionary policies at two noise rates, with decoys. The phase-2
    // shortcut tallies (TransportBatch::phase2_decodes) and the codebook's
    // gap_builds are observability only: the artifact and the journal keep
    // the bytes recorded before either counter existed.
    SweepSpec sweep;
    sweep.name = "gap-pin";
    for (const auto policy : {DictionaryPolicy::two_hop, DictionaryPolicy::all_nodes}) {
        ScenarioSpec spec;
        spec.name = policy == DictionaryPolicy::two_hop ? "two_hop" : "all_nodes";
        spec.topology.family = TopologySpec::Family::random_regular;
        spec.topology.n = 48;
        spec.topology.degree = 6;
        spec.topology.seed = 7;
        spec.workload.message_bits = 6;
        spec.workload.seed = 3;
        spec.decoy_count = 8;
        spec.dictionary = policy;
        spec.rounds = 3;
        sweep.bases.push_back(spec);
    }
    sweep.axes.epsilons = {0.05, 0.2};
    SweepOptions options;
    options.workers = 1;  // one worker: journal records land in job order
    options.journal_path = ::testing::TempDir() + "CompatPinsSweep.jsonl";
    std::remove(options.journal_path.c_str());
    const SweepResult result = run_sweep(sweep, options);
    std::ostringstream artifact;
    JsonWriter json(artifact);
    sweep_results_json(json, result);
    const std::string journal = read_file(options.journal_path);
    std::remove(options.journal_path.c_str());

    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(fnv1a(artifact.str())));
    EXPECT_EQ(fnv1a(artifact.str()), 0x0206ccb2974ada18ULL) << hex;
    std::snprintf(hex, sizeof hex, "0x%016llxULL", static_cast<unsigned long long>(fnv1a(journal)));
    EXPECT_EQ(fnv1a(journal), 0xf6c5d1c9eb6220afULL) << hex;
}

}  // namespace
}  // namespace nb
