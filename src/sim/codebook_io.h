// nb-codebook/v1: the serialized, checksummed, mmap-able candidate index.
//
// The expensive part of a Codebook is the candidate dictionary (the two-hop
// sets are O(sum deg^2) to compute); the code triple is procedural — seeds
// and dimensions — and per-round state is derived on demand. So the format
// persists exactly the candidate index, as the same flat CSR the in-memory
// codebook uses, and a load is an mmap plus one checksum pass: the Codebook
// borrows the offsets/entries spans in place, no parse, no copy.
//
// File layout (little-endian hosts; the only platforms this project runs on):
//
//   {"schema":"nb-codebook/v1", ...identity..., "checksum":<fnv1a-64>}<pad>\n
//   <offsets: (rows+1) x u64><entries: entry_count x u32>
//
// One JSON header line, space-padded so the binary payload starts on an
// 8-byte boundary (mmap bases are page-aligned, so the offsets array is
// naturally aligned in place). The identity block pins everything a
// CodebookCache key pins — the 128-bit graph digest pair and the
// codebook-relevant params — plus the builder's fingerprint, so a file can
// never adopt into a codebook it was not built for. (The header also keeps
// a retired `shard_digest` field, always 0, so v1 files stay byte-identical.)
//
// Durability follows the ArtifactStore discipline (DESIGN.md section 11):
// write `<path>.tmp` fully, fflush + fsync, atomic rename, fsync the
// directory; a torn or truncated file fails the structural/checksum checks
// in map() and is simply not loadable — the caller rebuilds and overwrites.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/codebook.h"

namespace nb {

/// A validated, mapped nb-codebook/v1 file. Obtained via map(); the mapping
/// lives until the last shared_ptr (Codebooks built from it keep one) dies.
class CodebookFile {
public:
    struct Header {
        std::uint64_t node_count = 0;
        std::uint64_t max_degree = 0;  ///< the degree that sized the beep code
        std::uint64_t graph_digest = 0;
        std::uint64_t graph_digest2 = 0;
        std::uint64_t shard_digest = 0;  ///< retired; always 0 (load rejects others)
        std::uint64_t message_bits = 0;
        std::uint64_t c_eps = 0;
        std::uint64_t code_seed = 0;
        std::uint64_t transport_seed = 0;
        std::uint64_t decoy_count = 0;
        std::uint64_t bitslice_min_candidates = 0;
        std::uint32_t dictionary = 0;    ///< DictionaryPolicy as its integer value
        std::uint64_t fingerprint = 0;   ///< Codebook::fingerprint() of the builder
    };

    /// Map and validate `path`. Returns nullptr — never a partially valid
    /// object — if the file is missing, torn, truncated, checksum-corrupt,
    /// or structurally inconsistent (non-monotone offsets, out-of-range
    /// entry ids, misaligned header). When `error` is non-null it receives
    /// the reason for a nullptr return.
    static std::shared_ptr<const CodebookFile> map(const std::string& path,
                                                   std::string* error = nullptr);

    ~CodebookFile();
    CodebookFile(const CodebookFile&) = delete;
    CodebookFile& operator=(const CodebookFile&) = delete;

    const Header& header() const noexcept { return header_; }
    std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
    std::span<const std::uint32_t> entries() const noexcept { return entries_; }
    std::size_t mapped_bytes() const noexcept { return size_; }

private:
    CodebookFile() = default;

    void* base_ = nullptr;
    std::size_t size_ = 0;
    Header header_;
    std::span<const std::uint64_t> offsets_;
    std::span<const std::uint32_t> entries_;
};

/// Serialize `codebook`'s candidate index to `path` with the write-temp +
/// fsync + atomic-rename discipline. Throws precondition_error on I/O
/// failure (the temp file is cleaned up); an existing file at `path` is
/// atomically replaced.
void save_codebook(const Codebook& codebook, const std::string& path);

}  // namespace nb
