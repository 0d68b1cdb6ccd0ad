// Property tests for the codebook's construction paths (DESIGN.md section
// 12): serialize -> mmap-load must be fingerprint-identical to a fresh build
// for every shipped registry spec, a same-nonce round rebuild must equal a
// fresh round, a file truncated at EVERY byte boundary must be rejected
// rather than half-adopted (mirroring test_store.cpp's torn-final property),
// and a warm directory must serve a second process's cold start from disk
// with zero rebuilds.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "graph/generators.h"
#include "scenarios/registry.h"
#include "sim/codebook.h"
#include "sim/codebook_cache.h"
#include "sim/codebook_io.h"
#include "sim/transport.h"

namespace nb {
namespace {

std::string scratch(const std::string& leaf) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "." + leaf;
}

void remove_tree(const std::string& dir) {
    const std::string command = "rm -rf '" + dir + "'";
    [[maybe_unused]] const int rc = std::system(command.c_str());
}

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

void write_file(const std::string& path, const std::string& text) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
    std::fclose(file);
}

SimulationParams small_params() {
    SimulationParams params;
    params.message_bits = 8;
    params.c_eps = 4;
    params.decoy_count = 4;
    return params;
}

std::vector<std::optional<Bitstring>> random_messages(const Graph& graph,
                                                      std::size_t message_bits,
                                                      std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::optional<Bitstring>> messages(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        messages[v] = Bitstring::random(rng, message_bits);
    }
    return messages;
}

TEST(CodebookIoProperty, MmapLoadIsFingerprintIdenticalForEveryShippedSpec) {
    const std::string path = scratch("spec.nbc");
    for (const auto& spec : scenarios::shipped_scenarios()) {
        if (spec.transport == TransportKind::tdma) {
            continue;  // the baseline has no codebook to serialize
        }
        SCOPED_TRACE(spec.name);
        const Graph graph = spec.topology.build();
        const SimulationParams params = CodebookCache::canonical_params(spec.sim_params());
        const Codebook fresh(graph, params);

        save_codebook(fresh, path);
        std::string error;
        const auto file = CodebookFile::map(path, &error);
        ASSERT_NE(file, nullptr) << error;
        EXPECT_EQ(file->header().fingerprint, fresh.fingerprint());

        const Codebook loaded(graph, params, file);
        EXPECT_EQ(loaded.fingerprint(), fresh.fingerprint());
        EXPECT_EQ(loaded.backing_file(), file.get());
        EXPECT_EQ(loaded.memory_bytes(), fresh.memory_bytes());
    }
    ::unlink(path.c_str());
}

TEST(CodebookIoProperty, TruncationAtEveryByteBoundaryIsRejected) {
    const std::string path = scratch("full.nbc");
    const std::string torn_path = scratch("torn.nbc");
    Rng rng(0x10);
    const Graph graph = make_random_regular(24, 4, rng);
    const Codebook fresh(graph, small_params());
    save_codebook(fresh, path);

    const std::string full = read_file(path);
    ASSERT_FALSE(full.empty());
    ASSERT_NE(CodebookFile::map(path), nullptr) << "untruncated file must load";

    for (std::size_t keep = 0; keep < full.size(); ++keep) {
        write_file(torn_path, full.substr(0, keep));
        EXPECT_EQ(CodebookFile::map(torn_path), nullptr) << "accepted at byte " << keep;
    }
    // Trailing garbage is torn-in-reverse: the exact-size check rejects it.
    write_file(torn_path, full + "x");
    EXPECT_EQ(CodebookFile::map(torn_path), nullptr);
    // A payload bit flip survives the size check and dies on the checksum.
    std::string corrupt = full;
    corrupt[full.size() - 1] ^= 1;
    write_file(torn_path, corrupt);
    EXPECT_EQ(CodebookFile::map(torn_path), nullptr);

    ::unlink(path.c_str());
    ::unlink(torn_path.c_str());
}

TEST(CodebookIoProperty, MmapAdoptionRejectsMismatchedGraphAndParams) {
    const std::string path = scratch("identity.nbc");
    Rng rng(0x11);
    const Graph graph = make_random_regular(24, 4, rng);
    const SimulationParams params = small_params();
    const Codebook fresh(graph, params);
    save_codebook(fresh, path);
    const auto file = CodebookFile::map(path);
    ASSERT_NE(file, nullptr);

    Rng rng2(0x12);
    const Graph other = make_random_regular(24, 4, rng2);
    EXPECT_THROW(Codebook(other, params, file), precondition_error);

    SimulationParams other_params = params;
    other_params.transport_seed += 1;
    EXPECT_THROW(Codebook(graph, other_params, file), precondition_error);

    // The retired shard_digest field is always written as 0, and a file
    // carrying any other value is not adopted.
    std::string text = read_file(path);
    const std::string field = "\"shard_digest\": ";
    const std::size_t at = text.find(field + "0,");
    ASSERT_NE(at, std::string::npos);
    text[at + field.size()] = '1';
    const std::string foreign_path = scratch("foreign.nbc");
    write_file(foreign_path, text);
    const auto foreign = CodebookFile::map(foreign_path);
    ASSERT_NE(foreign, nullptr);
    EXPECT_EQ(foreign->header().shard_digest, 1u);
    EXPECT_THROW(Codebook(graph, params, foreign), precondition_error);
    ::unlink(foreign_path.c_str());

    // The fields canonical_params normalizes away are NOT identity: a
    // different epsilon adopts the same file.
    SimulationParams non_key = params;
    non_key.epsilon = 0.25;
    const Codebook adopted(graph, non_key, file);
    EXPECT_EQ(adopted.fingerprint(), fresh.fingerprint());
    ::unlink(path.c_str());
}

TEST(CodebookDeltaProperty, SameNonceRoundReuseIsBitIdentical) {
    Rng rng(0x31);
    const std::size_t n = 64;
    const Graph graph = make_random_regular(n, 6, rng);
    const SimulationParams params = small_params();
    const Codebook book(graph, params);

    const auto messages_a = random_messages(graph, params.message_bits, 1);
    auto messages_b = messages_a;
    messages_b[10] = Bitstring::random(rng, params.message_bits);  // one changed
    messages_b[11].reset();                                        // one went silent

    const std::uint64_t nonce = 7;
    (void)book.round(messages_a, nonce);
    const std::size_t codewords_after_first = book.stats().codeword_builds;
    const auto reused = book.round(messages_b, nonce);

    // Reference: a codebook that never saw messages_a.
    const Codebook fresh(graph, params);
    const auto reference = fresh.round(messages_b, nonce);

    ASSERT_EQ(reused->codewords.size(), reference->codewords.size());
    for (std::size_t v = 0; v < reference->codewords.size(); ++v) {
        EXPECT_EQ(reused->codewords[v], reference->codewords[v]) << "codeword " << v;
        EXPECT_EQ(reused->one_positions[v], reference->one_positions[v]);
    }
    EXPECT_EQ(reused->inputs, reference->inputs);
    EXPECT_EQ(reused->decoy_inputs, reference->decoy_inputs);
    EXPECT_EQ(reused->candidate_messages, reference->candidate_messages);
    EXPECT_EQ(reused->candidate_encoded, reference->candidate_encoded);
    EXPECT_EQ(reused->candidate_tails, reference->candidate_tails);
    EXPECT_EQ(reused->combined_schedules, reference->combined_schedules);
    EXPECT_EQ(reused->phase1_beeps, reference->phase1_beeps);
    EXPECT_EQ(reused->phase2_beeps, reference->phase2_beeps);

    // Every codeword is a pure function of (seed, nonce, id): the rebuild
    // under the same nonce copied them all instead of regenerating.
    const Codebook::Stats stats = book.stats();
    EXPECT_EQ(stats.codeword_builds, codewords_after_first);
    EXPECT_GT(stats.codeword_reuses, 0u);
    EXPECT_GT(stats.payload_encode_reuses, 0u);
}

TEST(CodebookWarmStart, SecondCacheColdStartsFromDiskWithZeroBuilds) {
    const std::string dir = scratch("warmdir");
    remove_tree(dir);
    Rng rng(0x41);
    const Graph graph = make_random_regular(48, 6, rng);
    const SimulationParams params = small_params();

    // First "process": builds once and persists.
    CodebookCache first(2, 4);
    first.set_directory(dir);
    const auto built = first.acquire(graph, params);
    const CodebookCache::Stats cold = first.stats();
    EXPECT_EQ(cold.builds, 1u);
    EXPECT_EQ(cold.disk_loads, 0u);
    EXPECT_EQ(cold.disk_saves, 1u);

    // Second "process": same directory, zero builds — and the loaded
    // codebook is bit-identical to the built one.
    CodebookCache second(2, 4);
    second.set_directory(dir);
    const auto loaded = second.acquire(graph, params);
    const CodebookCache::Stats warm = second.stats();
    EXPECT_EQ(warm.builds, 0u);
    EXPECT_EQ(warm.disk_loads, 1u);
    EXPECT_EQ(loaded->codebook().fingerprint(), built->codebook().fingerprint());
    ASSERT_NE(loaded->codebook().backing_file(), nullptr);

    // `.tmp` debris from a crashed saver is swept on set_directory.
    write_file(dir + "/cb-dead.nbc.tmp", "half a write");
    CodebookCache third(2, 4);
    third.set_directory(dir);
    EXPECT_NE(::access((dir + "/cb-dead.nbc.tmp").c_str(), F_OK), 0);
    remove_tree(dir);
}

TEST(CodebookWarmStart, TransportThroughMmapLoadedCodebookDecodesIdentically) {
    const std::string dir = scratch("warmdir");
    remove_tree(dir);
    Rng rng(0x51);
    const Graph graph = make_random_regular(32, 4, rng);
    SimulationParams params = small_params();
    params.epsilon = 0.2;
    const Codebook reference(graph, CodebookCache::canonical_params(params));
    const auto messages = random_messages(graph, params.message_bits, 3);

    // Save the reference codebook, then derive a round through a codebook
    // adopted from the mapped file: all round material must match exactly.
    ::mkdir(dir.c_str(), 0755);
    save_codebook(reference, dir + "/cb.nbc");
    const auto file = CodebookFile::map(dir + "/cb.nbc");
    ASSERT_NE(file, nullptr);
    const Codebook loaded(graph, CodebookCache::canonical_params(params), file);
    EXPECT_EQ(loaded.fingerprint(), reference.fingerprint());
    const auto round_fresh = reference.round(messages, 1);
    const auto round_loaded = loaded.round(messages, 1);
    EXPECT_EQ(round_fresh->codewords, round_loaded->codewords);
    EXPECT_EQ(round_fresh->candidate_encoded, round_loaded->candidate_encoded);
    remove_tree(dir);
}

}  // namespace
}  // namespace nb
