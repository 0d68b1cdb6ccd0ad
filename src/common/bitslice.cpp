#include "common/bitslice.h"

#include <atomic>
#include <bit>

#include "common/error.h"

namespace nb {

namespace {

constexpr std::size_t bits_per_word = 64;

std::uint64_t next_matrix_epoch() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

BitsliceMatrix::BitsliceMatrix(std::span<const Bitstring> columns,
                               std::span<const Bitstring> extra_columns) {
    columns_ = columns.size() + extra_columns.size();
    if (columns_ == 0) {
        return;
    }
    epoch_ = next_matrix_epoch();
    rows_ = columns.empty() ? extra_columns.front().size() : columns.front().size();
    lane_words_ = padded_words((columns_ + bits_per_word - 1) / bits_per_word);
    rows_data_.assign(rows_ * lane_words_, 0);
    weights_.reserve(columns_);

    std::size_t c = 0;
    const auto transpose_in = [&](std::span<const Bitstring> set) {
        for (const auto& column : set) {
            require(column.size() == rows_, "BitsliceMatrix: column lengths must match");
            const std::uint64_t lane_bit = std::uint64_t{1} << (c % bits_per_word);
            const std::size_t lane = c / bits_per_word;
            column.for_each_one([&](std::size_t p) {
                rows_data_[p * lane_words_ + lane] |= lane_bit;
            });
            weights_.push_back(static_cast<std::uint32_t>(column.count()));
            ++c;
        }
    };
    transpose_in(columns);
    transpose_in(extra_columns);
}

void BitsliceScratch::reserve_like(const BitsliceScratch& other) {
    bias_.reserve(other.bias_.capacity());
    planes_.reserve(other.planes_.capacity());
    low_.reserve(other.low_.capacity());
    always_.reserve(other.always_.capacity());
}

void BitsliceMatrix::prepare_scratch(std::size_t limit, BitsliceScratch& scratch) const {
    if (scratch.bias_epoch_ == epoch_ && scratch.bias_limit_ == limit) {
        return;
    }
    // Counter width: enough planes that every column's acceptance threshold
    // t_c = weight_c - limit + 1 fits below 2^K. Columns already below the
    // missing-ones limit at zero intersections (t_c <= 0) are accepted
    // unconditionally; their counters stay biased at zero and never fire.
    std::size_t max_threshold = 1;
    for (std::size_t c = 0; c < columns_; ++c) {
        const std::size_t weight = weights_[c];
        if (weight + 1 > limit) {
            max_threshold = std::max(max_threshold, weight + 1 - limit);
        }
    }
    const std::size_t plane_count = std::bit_width(max_threshold);
    scratch.bias_.assign(plane_count * lane_words_, 0);
    scratch.always_.assign(lane_words_, 0);
    for (std::size_t c = 0; c < columns_; ++c) {
        const std::size_t weight = weights_[c];
        const std::uint64_t lane_bit = std::uint64_t{1} << (c % bits_per_word);
        const std::size_t lane = c / bits_per_word;
        if (weight + 1 <= limit) {
            scratch.always_[lane] |= lane_bit;
            continue;
        }
        const std::uint64_t bias =
            (std::uint64_t{1} << plane_count) - (weight + 1 - limit);
        for (std::size_t k = 0; k < plane_count; ++k) {
            if ((bias >> k) & 1u) {
                scratch.bias_[k * lane_words_ + lane] |= lane_bit;
            }
        }
    }
    scratch.plane_count_ = plane_count;
    scratch.bias_epoch_ = epoch_;
    scratch.bias_limit_ = limit;
}

void BitsliceMatrix::and_not_below(const Bitstring& other, std::size_t limit,
                                   BitsliceScratch& scratch,
                                   std::vector<std::uint64_t>& accept,
                                   simd::Kernel kernel) const {
    accept.assign(lane_words_, 0);
    if (columns_ == 0) {
        return;  // nothing to test (and no row length to match)
    }
    require(other.size() == rows_, "BitsliceMatrix::and_not_below: wrong transcript length");
    if (limit == 0) {
        return;  // no candidate has fewer than zero missing ones
    }
    prepare_scratch(limit, scratch);
    for (std::size_t w = 0; w < lane_words_; ++w) {
        accept[w] = scratch.always_[w];
    }
    scratch.planes_ = scratch.bias_;
    scratch.low_.assign(4 * lane_words_, 0);  // 3 chunk planes + carry buffer

    // Count intersections with `other`'s 1-rows in the vertical counters.
    // The hot pass (see simd.h / kernels_inl.h) accumulates rows into 3-bit
    // chunk counters with a branchless carry-save ripple — pure bitwise ops
    // over contiguous lanes — and every 7 rows the chunk value is added into
    // the bias-initialized high planes, whose carry out of the top plane
    // accumulates into the acceptance mask (see file comment). Chunks of 7
    // keep the 3-bit counters overflow-free by construction.
    const std::vector<std::uint64_t>& transcript = other.words();
    simd::ops(kernel).bitslice_pass(transcript.data(), transcript.size(),
                                    rows_data_.data(), lane_words_,
                                    scratch.low_.data(), scratch.planes_.data(),
                                    scratch.plane_count_, accept.data());
}

}  // namespace nb
