#include "codes/distance_code.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "congest/algorithm.h"

namespace nb {

DistanceCode::DistanceCode(std::size_t message_bits, std::size_t length, std::uint64_t seed)
    : message_bits_(message_bits), length_(length), seed_(seed) {
    require(message_bits > 0, "DistanceCode: message_bits must be positive");
    require(length > 0, "DistanceCode: length must be positive");
}

DistanceCode DistanceCode::lemma6(std::size_t message_bits, double delta, std::uint64_t seed) {
    require(delta > 0.0 && delta < 0.5, "DistanceCode::lemma6: delta must be in (0, 1/2)");
    const double c_delta = 12.0 / ((1.0 - 2.0 * delta) * (1.0 - 2.0 * delta));
    const auto length = static_cast<std::size_t>(std::ceil(c_delta * static_cast<double>(message_bits)));
    return DistanceCode(message_bits, length, seed);
}

Bitstring DistanceCode::encode(const Bitstring& message) const {
    Bitstring out;
    encode_into(message, out);
    return out;
}

void DistanceCode::encode_into(const Bitstring& message, Bitstring& out) const {
    require(message.size() == message_bits_,
            "DistanceCode::encode: message has the wrong length");
    Rng generator = Rng(seed_).derive(0x64697374u, message.hash());
    Bitstring::random_into(generator, length_, out);
}

namespace {

/// One step of the nearest-codeword scan shared by decode() and
/// decode_cached(): fold `candidate` at `distance` into the running best.
void consider_candidate(std::optional<DistanceCode::Decoded>& best, const Bitstring& candidate,
                        std::size_t distance, std::size_t code_length) {
    if (!best.has_value()) {
        best = DistanceCode::Decoded{candidate, distance, distance, true};
        // runner_up is undefined until a second candidate arrives; track
        // it as the best distance among non-winning candidates below.
        best->runner_up = code_length + 1;
        return;
    }
    if (distance < best->distance ||
        (distance == best->distance && message_less(candidate, best->message))) {
        const bool tied = distance == best->distance;
        best->runner_up = best->distance;
        best->message = candidate;
        best->distance = distance;
        best->unique = !tied;
    } else {
        if (distance == best->distance) {
            best->unique = false;
        }
        best->runner_up = std::min(best->runner_up, distance);
    }
}

}  // namespace

std::optional<DistanceCode::Decoded> DistanceCode::decode(
    const Bitstring& received, std::span<const Bitstring> candidates) const {
    require(received.size() == length_, "DistanceCode::decode: received has the wrong length");
    std::optional<Decoded> best;
    for (const auto& candidate : candidates) {
        consider_candidate(best, candidate, encode(candidate).hamming_distance(received),
                           length_);
    }
    return best;
}

std::optional<DistanceCode::Decoded> DistanceCode::decode_cached(
    const Bitstring& received, std::span<const Bitstring> messages,
    std::span<const Bitstring> encoded, std::span<const std::uint32_t> entries) const {
    require(received.size() == length_,
            "DistanceCode::decode_cached: received has the wrong length");
    require(encoded.size() == messages.size(),
            "DistanceCode::decode_cached: one encoding per candidate message");
    std::optional<Decoded> best;
    for (const auto entry : entries) {
        require(entry < messages.size(), "DistanceCode::decode_cached: entry out of range");
        consider_candidate(best, messages[entry], encoded[entry].hamming_distance(received),
                           length_);
    }
    return best;
}

DistanceCode::Nearest DistanceCode::nearest_entry(const Bitstring& received,
                                                  std::span<const Bitstring> messages,
                                                  std::span<const Bitstring> encoded,
                                                  std::span<const std::uint32_t> entries,
                                                  std::uint32_t hint_entry,
                                                  std::uint32_t hint_gap,
                                                  const simd::SimdOps& ops) const {
    require(received.size() == length_,
            "DistanceCode::nearest_entry: received has the wrong length");
    require(!entries.empty(), "DistanceCode::nearest_entry: empty dictionary");
    const std::uint64_t* received_words = received.words().data();
    const std::size_t words = received.words().size();
    const auto distance_to = [&](std::uint32_t entry) {
        return ops.hamming(encoded[entry].words().data(), received_words, words);
    };
    if (hint_gap > 0 && 2 * distance_to(hint_entry) < hint_gap) {
        return {hint_entry, true};
    }
    // Full scan, replicating decode_cached()'s fold exactly: strictly
    // smaller distance wins; an equal distance wins only with a canonically
    // smaller message.
    std::uint32_t best_entry = entries.front();
    std::size_t best_distance = distance_to(best_entry);
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const std::uint32_t entry = entries[i];
        const std::size_t distance = distance_to(entry);
        if (distance < best_distance ||
            (distance == best_distance &&
             message_less(messages[entry], messages[best_entry]))) {
            best_entry = entry;
            best_distance = distance;
        }
    }
    return {best_entry, false};
}

DistanceCode::Nearest DistanceCode::nearest_entry_soa(const Bitstring& received,
                                                      std::span<const Bitstring> messages,
                                                      const WordSoa& encoded,
                                                      std::span<const std::uint32_t> entries,
                                                      std::uint32_t hint_entry,
                                                      std::uint32_t hint_gap,
                                                      std::vector<std::uint32_t>& distances,
                                                      const simd::SimdOps& ops) const {
    require(received.size() == length_,
            "DistanceCode::nearest_entry_soa: received has the wrong length");
    require(!entries.empty(), "DistanceCode::nearest_entry_soa: empty dictionary");
    const std::uint64_t* received_words = received.words().data();
    if (hint_gap > 0 &&
        2 * encoded.column_distance(received_words, hint_entry) < hint_gap) {
        return {hint_entry, true};
    }
    // All candidate distances in one vectorized sweep, then the exact
    // nearest_entry() fold over the entry order (padding columns are never
    // indexed by an entry, so their garbage-free zero-word distances are
    // computed and ignored).
    distances.resize(encoded.stride());
    ops.hamming_all(received_words, encoded.words(), encoded.data(), encoded.stride(),
                    distances.data());
    std::uint32_t best_entry = entries.front();
    std::uint32_t best_distance = distances[best_entry];
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const std::uint32_t entry = entries[i];
        const std::uint32_t distance = distances[entry];
        if (distance < best_distance ||
            (distance == best_distance &&
             message_less(messages[entry], messages[best_entry]))) {
            best_entry = entry;
            best_distance = distance;
        }
    }
    return {best_entry, false};
}

DistanceCode::Decoded DistanceCode::decode_exhaustive(const Bitstring& received) const {
    require(message_bits_ <= 24,
            "DistanceCode::decode_exhaustive: message space too large (max 24 bits)");
    std::vector<Bitstring> all;
    all.reserve(std::size_t{1} << message_bits_);
    for (std::uint64_t value = 0; value < (std::uint64_t{1} << message_bits_); ++value) {
        Bitstring message(message_bits_);
        for (std::size_t bit = 0; bit < message_bits_; ++bit) {
            if ((value >> bit) & 1u) {
                message.set(bit);
            }
        }
        all.push_back(std::move(message));
    }
    auto result = decode(received, all);
    ensure(result.has_value(), "DistanceCode::decode_exhaustive: empty enumeration");
    return *result;
}

}  // namespace nb
