#include "sim/transport_batch.h"

#include <cstring>

#include "common/error.h"
#include "sim/decode_core.h"
#include "sim/transport.h"

namespace nb {

bool record_less(const std::uint64_t* a, const std::uint64_t* b, std::size_t words) noexcept {
    for (std::size_t i = words; i-- > 0;) {
        if (a[i] != b[i]) {
            return a[i] < b[i];
        }
    }
    return false;
}

TransportBatch::TransportBatch() = default;
TransportBatch::~TransportBatch() = default;
TransportBatch::TransportBatch(TransportBatch&&) noexcept = default;
TransportBatch& TransportBatch::operator=(TransportBatch&&) noexcept = default;

void TransportBatch::prepare(std::size_t rounds, std::size_t nodes, std::size_t message_bits,
                             std::size_t workers) {
    rounds_ = rounds;
    nodes_ = nodes;
    message_bits_ = message_bits;
    stride_ = (message_bits + 63) / 64;
    // assign() reuses capacity: steady-state batches of the same shape touch
    // no allocator here.
    slots_.assign(rounds * nodes, Slot{});
    stats_.assign(rounds, TransportRoundStats{});
    std::size_t previous_words = 0;
    for (const std::size_t used : arena_used_) {
        previous_words += used;
    }
    if (arenas_.size() < workers) {
        arenas_.resize(workers);
        arena_used_.resize(workers);
    }
    for (std::size_t w = 0; w < arenas_.size(); ++w) {
        if (w < workers && arenas_[w].size() < previous_words) {
            arenas_[w].resize(previous_words, 0);
        }
        arena_used_[w] = 0;
    }
    if (scratch_ == nullptr) {
        scratch_ = std::make_shared<Scratch>();
    }
    auto& workspaces = scratch_->workspaces;
    if (workspaces.size() < workers) {
        workspaces.resize(workers);
    }
    for (auto& ws : workspaces) {
        for (const auto& other : workspaces) {
            ws.reserve_like(other);
        }
    }
}

std::uint64_t TransportBatch::push_record(std::size_t worker) {
    AlignedWords& arena = arenas_[worker];
    std::size_t& used = arena_used_[worker];
    if (used + stride_ > arena.size()) {
        // Geometric growth to a per-batch high-water mark; later batches of
        // the same workload never grow again.
        arena.resize(std::max<std::size_t>({arena.size() * 2, used + stride_, 64}), 0);
    }
    const std::uint64_t offset = used;
    used += stride_;
    return offset;
}

void TransportBatch::commit_node(std::size_t round, NodeId v, std::size_t worker,
                                 std::uint64_t start, std::uint32_t count,
                                 std::vector<std::uint64_t>& tmp) {
    // Insertion sort over the run's fixed-stride records: deliveries per
    // node are O(degree), and the sort must impose exactly sort_messages'
    // order so batch records mirror TransportRound deliveries bit for bit.
    if (count > 1) {
        tmp.resize(stride_);
        std::uint64_t* base = record_at(worker, start);
        for (std::uint32_t i = 1; i < count; ++i) {
            std::uint64_t* record = base + i * stride_;
            std::uint32_t j = i;
            if (!record_less(record, record - stride_, stride_)) {
                continue;
            }
            std::memcpy(tmp.data(), record, stride_ * sizeof(std::uint64_t));
            while (j > 0 && record_less(tmp.data(), base + (j - 1) * stride_, stride_)) {
                std::memcpy(base + j * stride_, base + (j - 1) * stride_,
                            stride_ * sizeof(std::uint64_t));
                --j;
            }
            std::memcpy(base + j * stride_, tmp.data(), stride_ * sizeof(std::uint64_t));
        }
    }
    Slot& slot = slots_[round * nodes_ + v];
    slot.worker = static_cast<std::uint32_t>(worker);
    slot.offset = start;
    slot.count = count;
}

const TransportRoundStats& TransportBatch::stats(std::size_t round) const {
    require(round < rounds_, "TransportBatch::stats: round out of range");
    return stats_[round];
}

std::size_t TransportBatch::delivered_count(std::size_t round, NodeId v) const {
    require(round < rounds_ && v < nodes_,
            "TransportBatch::delivered_count: index out of range");
    return slots_[round * nodes_ + v].count;
}

std::span<const std::uint64_t> TransportBatch::delivered_words(std::size_t round, NodeId v,
                                                               std::size_t i) const {
    require(round < rounds_ && v < nodes_,
            "TransportBatch::delivered_words: index out of range");
    const Slot& slot = slots_[round * nodes_ + v];
    require(i < slot.count, "TransportBatch::delivered_words: record out of range");
    return {record_at(slot.worker, slot.offset + i * stride_), stride_};
}

Bitstring TransportBatch::delivered_message(std::size_t round, NodeId v, std::size_t i) const {
    return Bitstring::from_words(delivered_words(round, v, i), message_bits_);
}

TransportRound TransportBatch::to_round(std::size_t round) const {
    const TransportRoundStats& s = stats(round);
    TransportRound result;
    result.beep_rounds = s.beep_rounds;
    result.total_beeps = s.total_beeps;
    result.phase1_false_negatives = s.phase1_false_negatives;
    result.phase1_false_positives = s.phase1_false_positives;
    result.phase2_errors = s.phase2_errors;
    result.delivery_mismatches = s.delivery_mismatches;
    result.perfect = s.perfect;
    result.delivered.resize(nodes_);
    for (NodeId v = 0; v < nodes_; ++v) {
        const std::size_t count = delivered_count(round, v);
        result.delivered[v].reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            result.delivered[v].push_back(delivered_message(round, v, i));
        }
    }
    return result;
}

std::size_t TransportBatch::arena_words() const noexcept {
    std::size_t total = 0;
    for (const auto& arena : arenas_) {
        total += arena.size();
    }
    return total;
}

}  // namespace nb
