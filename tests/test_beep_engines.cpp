// Tests for the two beeping-network engines, including the bit-exact
// equivalence property between RoundEngine and BatchEngine's
// superimposition replayed through the per-bit noise sampler.
#include <gtest/gtest.h>

#include <memory>

#include "beep/batch_engine.h"
#include "beep/round_engine.h"
#include "common/error.h"
#include "graph/generators.h"

namespace nb {
namespace {

/// Plays a fixed schedule on the round engine and records received bits.
class SchedulePlayer final : public BeepAlgorithm {
public:
    explicit SchedulePlayer(Bitstring schedule) : schedule_(std::move(schedule)) {}

    void initialize(NodeId, const NetworkInfo&, Rng&) override {}

    BeepAction act(std::size_t round, Rng&) override {
        return schedule_.test(round) ? BeepAction::beep : BeepAction::listen;
    }

    void receive(std::size_t round, bool received, Rng&) override {
        if (received) {
            heard_.set(round);
        }
        if (round + 1 == schedule_.size()) {
            done_ = true;
        }
    }

    bool finished() const override { return done_; }

    const Bitstring& heard() const noexcept { return heard_; }

    void reset() {
        heard_ = Bitstring(schedule_.size());
        done_ = false;
    }

    void prepare() { heard_ = Bitstring(schedule_.size()); }

private:
    Bitstring schedule_;
    Bitstring heard_;
    bool done_ = false;
};

std::vector<Bitstring> random_schedules(const Graph& graph, std::size_t length,
                                        std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Bitstring> schedules;
    schedules.reserve(graph.node_count());
    for (NodeId v = 0; v < graph.node_count(); ++v) {
        schedules.push_back(Bitstring::random(rng, length));
    }
    return schedules;
}

TEST(BatchEngine, SuperimposeIsNeighborhoodOr) {
    const Graph g = make_path(3);  // 0-1-2
    std::vector<Bitstring> schedules{Bitstring::from_string("100"),
                                     Bitstring::from_string("010"),
                                     Bitstring::from_string("001")};
    const BatchEngine engine(g, BatchParams{}, Rng(1));
    // Node 0 hears itself + node 1.
    EXPECT_EQ(engine.superimpose(0, schedules).to_string(), "110");
    // Node 1 hears all three.
    EXPECT_EQ(engine.superimpose(1, schedules).to_string(), "111");
    // Exclusive: node 1 without its own beeps.
    EXPECT_EQ(engine.superimpose(1, schedules, false).to_string(), "101");
}

TEST(BatchEngine, NoiselessHearEqualsSuperimpose) {
    Rng rng(3);
    const Graph g = make_erdos_renyi(20, 0.2, rng);
    const auto schedules = random_schedules(g, 256, 17);
    const BatchEngine engine(g, BatchParams{}, Rng(5));
    for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(engine.hear(v, schedules), engine.superimpose(v, schedules));
    }
}

TEST(BatchEngine, ChecksScheduleShape) {
    const Graph g = make_path(3);
    const BatchEngine engine(g, BatchParams{}, Rng(1));
    std::vector<Bitstring> wrong_count{Bitstring(4), Bitstring(4)};
    EXPECT_THROW(engine.hear(0, wrong_count), precondition_error);
    std::vector<Bitstring> mismatched{Bitstring(4), Bitstring(5), Bitstring(4)};
    EXPECT_THROW(engine.hear(0, mismatched), precondition_error);
}

TEST(BatchEngine, NoiseFlipRate) {
    const Graph g = make_path(2);
    const std::size_t length = 100000;
    std::vector<Bitstring> silent{Bitstring(length), Bitstring(length)};
    BatchParams params;
    params.channel.epsilon = 0.15;
    const BatchEngine engine(g, params, Rng(7));
    const Bitstring heard = engine.hear(0, silent);
    EXPECT_NEAR(static_cast<double>(heard.count()) / length, 0.15, 0.01);
}

TEST(BatchEngine, HearIsDeterministicPerNode) {
    Rng rng(3);
    const Graph g = make_ring(10);
    const auto schedules = random_schedules(g, 128, 21);
    BatchParams params;
    params.channel.epsilon = 0.2;
    const BatchEngine engine(g, params, Rng(9));
    // Same node twice -> identical noise; evaluation order must not matter.
    EXPECT_EQ(engine.hear(3, schedules), engine.hear(3, schedules));
    const Bitstring first = engine.hear(7, schedules);
    engine.hear(2, schedules);
    EXPECT_EQ(engine.hear(7, schedules), first);
}

TEST(RoundEngine, DeliversNeighborhoodOr) {
    const Graph g = make_path(3);
    std::vector<std::unique_ptr<BeepAlgorithm>> nodes;
    std::vector<SchedulePlayer*> players;
    const std::vector<std::string> patterns{"1000", "0100", "0011"};
    for (const auto& pattern : patterns) {
        auto player = std::make_unique<SchedulePlayer>(Bitstring::from_string(pattern));
        player->prepare();
        players.push_back(player.get());
        nodes.push_back(std::move(player));
    }
    RoundEngine engine(g, ChannelParams{0.0, true}, Rng(1));
    const RunStats stats = engine.run(nodes, 10);
    EXPECT_EQ(stats.rounds, 4u);
    EXPECT_TRUE(stats.all_finished);
    EXPECT_EQ(stats.total_beeps, 4u);
    EXPECT_EQ(players[0]->heard().to_string(), "1100");
    EXPECT_EQ(players[1]->heard().to_string(), "1111");
    EXPECT_EQ(players[2]->heard().to_string(), "0111");
}

TEST(RoundEngine, StopsWhenAllFinish) {
    const Graph g = make_path(2);
    std::vector<std::unique_ptr<BeepAlgorithm>> nodes;
    for (int i = 0; i < 2; ++i) {
        auto player = std::make_unique<SchedulePlayer>(Bitstring::from_string("10"));
        player->prepare();
        nodes.push_back(std::move(player));
    }
    RoundEngine engine(g, ChannelParams{0.0, true}, Rng(1));
    const RunStats stats = engine.run(nodes, 100);
    EXPECT_EQ(stats.rounds, 2u);
    EXPECT_TRUE(stats.all_finished);
}

TEST(RoundEngine, RequiresOneAlgorithmPerNode) {
    const Graph g = make_path(3);
    std::vector<std::unique_ptr<BeepAlgorithm>> nodes;
    RoundEngine engine(g, ChannelParams{}, Rng(1));
    EXPECT_THROW(engine.run(nodes, 10), precondition_error);
}

TEST(ChannelParams, ValidatesEpsilon) {
    ChannelParams good{0.49, true};
    EXPECT_NO_THROW(good.validate());
    ChannelParams bad{0.5, true};
    EXPECT_THROW(bad.validate(), precondition_error);
    ChannelParams negative{-0.01, true};
    EXPECT_THROW(negative.validate(), precondition_error);
}

/// Property: playing schedules through RoundEngine matches BatchEngine's
/// superimposition with the node's derived noise stream replayed one
/// flip_next per bit (same base seed), across graphs and noise; and
/// BatchEngine's own transcript is the same superimposition with that
/// stream drawn as geometric gaps.
class EngineEquivalence : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EngineEquivalence, BatchMatchesRound) {
    const auto [graph_id, epsilon] = GetParam();
    Rng graph_rng(graph_id);
    Graph g = [&]() {
        switch (graph_id % 4) {
            case 0:
                return make_ring(12);
            case 1:
                return make_complete_bipartite(4, 4);
            case 2:
                return make_erdos_renyi(20, 0.25, graph_rng);
            default:
                return make_star(9);
        }
    }();
    const std::size_t length = 96;
    const auto schedules = random_schedules(g, length, 1000 + graph_id);

    const Rng base(424242);

    // Batch side.
    BatchParams params;
    params.channel.epsilon = epsilon;
    const BatchEngine batch(g, params, base);

    // Round side.
    std::vector<std::unique_ptr<BeepAlgorithm>> nodes;
    std::vector<SchedulePlayer*> players;
    for (NodeId v = 0; v < g.node_count(); ++v) {
        auto player = std::make_unique<SchedulePlayer>(schedules[v]);
        player->prepare();
        players.push_back(player.get());
        nodes.push_back(std::move(player));
    }
    RoundEngine round_engine(g, ChannelParams{epsilon, true}, base);
    round_engine.run(nodes, length);

    for (NodeId v = 0; v < g.node_count(); ++v) {
        const Bitstring superimposed = batch.superimpose(v, schedules);
        Bitstring per_bit = superimposed;
        ChannelNoiseSampler noise(params.channel, v, base.derive(0x6e6f6973u, v));
        for (std::size_t i = 0; i < length; ++i) {
            if (noise.flip_next(per_bit.test(i))) {
                per_bit.flip(i);
            }
        }
        EXPECT_EQ(players[v]->heard(), per_bit)
            << "node " << v << " graph " << graph_id << " eps " << epsilon;

        Bitstring gaps = superimposed;
        Rng stream = base.derive(0x6e6f6973u, v);
        gaps.apply_noise(stream, epsilon);
        EXPECT_EQ(batch.hear(v, schedules), gaps)
            << "node " << v << " graph " << graph_id << " eps " << epsilon;
    }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndNoise, EngineEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(0.0, 0.05, 0.2, 0.45)));

}  // namespace
}  // namespace nb
