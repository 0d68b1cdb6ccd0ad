// Distance codes (paper Definition 5, Lemma 6).
//
// An (a, delta)-distance code of length b maps a-bit messages to b-bit
// codewords with pairwise Hamming distance >= delta*b. Lemma 6 shows uniform
// random codewords achieve this for b = c_delta * a with
// c_delta >= 12 * (1 - 2*delta)^-2, with probability >= 1 - 2^-2a.
//
// We realize the randomized construction lazily: encode(m) is a pure
// function of (code seed, m), generated by a PRNG keyed by the message's
// content hash, so arbitrary-length Bitstring messages are supported without
// materializing the 2^a codeword table.
//
// Decoding is nearest-codeword by Hamming distance (Lemma 10's rule),
// either over a caller-supplied candidate set (the honest "dictionary"
// decoder; see DESIGN.md section 3) or exhaustively over all 2^a messages
// (exact, for small a; used to cross-validate the dictionary decoder).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitstring.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/word_soa.h"

namespace nb {

class DistanceCode {
public:
    /// Code over `message_bits`-bit messages with `length`-bit codewords.
    DistanceCode(std::size_t message_bits, std::size_t length, std::uint64_t seed);

    /// Lemma 6 parameterization for relative distance delta in (0, 1/2):
    /// length = max(c_delta, 12*(1-2*delta)^-2) * message_bits.
    /// The paper's instantiation (Section 3) uses delta = 1/3 and length
    /// c_eps^2 * gamma * log n; pass that length explicitly via this factory
    /// when reproducing the paper exactly.
    static DistanceCode lemma6(std::size_t message_bits, double delta, std::uint64_t seed);

    /// Codeword for `message`. Precondition: message.size() == message_bits.
    Bitstring encode(const Bitstring& message) const;

    /// encode() into a caller-owned result, reusing its word storage.
    /// Precondition additionally: &out != &message.
    void encode_into(const Bitstring& message, Bitstring& out) const;

    /// Result of a nearest-codeword decode.
    struct Decoded {
        Bitstring message;              ///< the winning candidate
        std::size_t distance = 0;       ///< d_H(encode(message), received)
        std::size_t runner_up = 0;      ///< best distance among other candidates
        bool unique = true;             ///< false if the minimum was tied
    };

    /// Nearest codeword among `candidates` (each of message_bits length).
    /// Ties resolve to the canonically smallest message and set unique=false.
    /// Returns nullopt iff candidates is empty.
    std::optional<Decoded> decode(const Bitstring& received,
                                  std::span<const Bitstring> candidates) const;

    /// decode() over the candidate subsequence messages[i] for i in
    /// `entries`, with the codewords pre-encoded by the caller
    /// (encoded[i] == encode(messages[i])). Scanning a cached dictionary
    /// replaces the per-candidate PRNG regeneration of decode() with one
    /// word-parallel Hamming distance per entry — the transports build the
    /// dictionary once per round (Codebook) and decode thousands of times
    /// against it. Result and tie-breaking match decode() iterated in
    /// `entries` order exactly.
    std::optional<Decoded> decode_cached(const Bitstring& received,
                                         std::span<const Bitstring> messages,
                                         std::span<const Bitstring> encoded,
                                         std::span<const std::uint32_t> entries) const;

    /// The radius every dictionary entry's gap starts from: length() + 1
    /// exceeds any real distance, so an entry with no differently encoded
    /// neighbor keeps a gap the nearest_entry() shortcut can always clear.
    std::uint32_t open_gap() const noexcept { return static_cast<std::uint32_t>(length_ + 1); }

    /// What entries `a` and `b` (a != b) bound each other's radius by: the
    /// Hamming distance of their encodings when they differ, 0 when they
    /// are equal but the messages are not (a content-hash collision, so the
    /// nearest_entry() shortcut can never skip a tie it would need to
    /// break), and open_gap() for equal encodings of equal messages (one
    /// tie class, one output — harmless). Symmetric. The distance is an
    /// inline popcount: codewords are a few words long, where a call into a
    /// vector kernel costs more than the count.
    std::uint32_t pair_gap(std::span<const Bitstring> messages,
                           std::span<const Bitstring> encoded, std::uint32_t a,
                           std::uint32_t b) const {
        const std::vector<std::uint64_t>& lhs = encoded[a].words();
        const std::uint64_t* rhs = encoded[b].words().data();
        std::uint32_t distance = 0;
        for (std::size_t w = 0; w < lhs.size(); ++w) {
            distance += static_cast<std::uint32_t>(std::popcount(lhs[w] ^ rhs[w]));
        }
        if (distance != 0) {
            return distance;
        }
        return messages[a] != messages[b] ? 0 : open_gap();
    }

    /// Entry `entry`'s unique-decoding radius `gap` folded over the entries
    /// `others` (any range of entry ids; `entry` itself is skipped): the
    /// minimum of `gap` and pair_gap() with each of them, so 0 once a
    /// different message shares encoded[entry]. Folding every entry of a
    /// set S into open_gap() gives e's gap over S, valid for any dictionary
    /// inside S. Reads only, so every entry's gap can be folded on its own
    /// thread.
    template <typename Entries>
    std::uint32_t fold_decode_gap(std::span<const Bitstring> messages,
                                  std::span<const Bitstring> encoded, std::uint32_t entry,
                                  const Entries& others, std::uint32_t gap) const {
        for (const std::uint32_t other : others) {
            if (gap == 0) {
                break;
            }
            if (other != entry) {
                gap = std::min(gap, pair_gap(messages, encoded, entry, other));
            }
        }
        return gap;
    }

    /// What nearest_entry() found, and whether the radius shortcut settled
    /// it without folding the dictionary.
    struct Nearest {
        std::uint32_t entry = 0;
        bool shortcut = false;
    };

    /// The dictionary entry decode_cached() would report as nearest for
    /// `received` over `entries` (same iteration order, same
    /// smallest-message tie-breaking), computed with a radius shortcut: if
    /// 2 * d(received, encoded[hint_entry]) < hint_gap and hint_gap was
    /// folded (fold_decode_gap) over a superset of `entries`, the triangle
    /// inequality makes hint_entry the strict nearest over `entries`, and
    /// the dictionary scan is skipped entirely. With hint_gap 0 the full
    /// scan always runs. The transports pass the
    /// phase-1-accepted sender as the hint — in a correctly decoding round
    /// it is the true nearest, so most phase-2 decodes touch one encoding
    /// instead of the whole dictionary. Distances run on `ops`' Hamming
    /// kernel (every table gives the same distances).
    ///
    /// Tie classes note: when several entries share one encoding, they also
    /// share one message (fold_decode_gap zeroes the gap otherwise), so the
    /// returned entry may differ from decode_cached()'s within such a class
    /// while the decoded *message* — the decoding's output — is identical.
    ///
    /// Preconditions: hint_entry is in `entries`, entries is non-empty, and
    /// entry ids index `messages`/`encoded`/`gaps` (bounds are the caller's
    /// contract, unlike decode_cached; the transports pass codebook-built
    /// dictionaries).
    Nearest nearest_entry(const Bitstring& received, std::span<const Bitstring> messages,
                          std::span<const Bitstring> encoded,
                          std::span<const std::uint32_t> entries, std::uint32_t hint_entry,
                          std::uint32_t hint_gap,
                          const simd::SimdOps& ops = simd::ops()) const;

    /// nearest_entry() over a word-major SoA dictionary (common/word_soa.h):
    /// same hint shortcut, same fold, bit-identical result. When the hint
    /// misses, every candidate's distance is computed in one vectorized
    /// sweep (SimdOps::hamming_all on `ops`) into `distances` (caller
    /// scratch, resized to encoded.stride()) and the winner is folded over
    /// `entries` exactly as nearest_entry does. Worth it when `entries`
    /// covers most of the dictionary (the all_nodes policy); sparse two-hop
    /// scans should keep the per-entry form.
    /// Precondition additionally: encoded was built from the same strings
    /// nearest_entry's `encoded` span would hold.
    Nearest nearest_entry_soa(const Bitstring& received, std::span<const Bitstring> messages,
                              const WordSoa& encoded, std::span<const std::uint32_t> entries,
                              std::uint32_t hint_entry, std::uint32_t hint_gap,
                              std::vector<std::uint32_t>& distances,
                              const simd::SimdOps& ops = simd::ops()) const;

    /// Exact nearest-codeword decode over all 2^message_bits messages.
    /// Precondition: message_bits <= 24 (cost is 2^a encodes).
    Decoded decode_exhaustive(const Bitstring& received) const;

    std::size_t message_bits() const noexcept { return message_bits_; }
    std::size_t length() const noexcept { return length_; }
    std::uint64_t seed() const noexcept { return seed_; }

private:
    std::size_t message_bits_;
    std::size_t length_;
    std::uint64_t seed_;
};

}  // namespace nb
