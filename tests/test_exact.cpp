// The exact (scenario-enumerating) engine: ground truth against which the
// polynomial dual pipeline is validated.

#include <gtest/gtest.h>

#include <random>

#include "model/quantity.hpp"
#include "synthesis/dataplane.hpp"
#include "verify/engine.hpp"

namespace aalwines::verify {
namespace {

class ExactEngine : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    VerifyResult run(const std::string& text, VerifyOptions options = {}) {
        options.engine = EngineKind::Exact;
        return verify(net, query::parse_query(text, net), options);
    }
};

TEST_F(ExactEngine, AgreesWithPaperAnswersOnFigure1) {
    const std::vector<std::pair<std::string, Answer>> cases = {
        {"<ip> [.#v0] .* [v3#.] <ip> 0", Answer::Yes},
        {"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2", Answer::Yes},
        {"<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0", Answer::Yes},
        {"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1", Answer::No},
        {"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", Answer::Yes},
        {"<ip> [.#v0] .* [.#v4] .* [v3#.] <ip> 0", Answer::No},
        {"<ip> [.#v0] .* [.#v4] .* [v3#.] <ip> 1", Answer::Yes},
    };
    for (const auto& [text, expected] : cases) {
        const auto result = run(text);
        EXPECT_EQ(result.answer, expected) << text;
        if (expected == Answer::Yes) {
            ASSERT_TRUE(result.trace.has_value()) << text;
            const auto query = query::parse_query(text, net);
            const auto feasibility =
                check_feasibility(net, *result.trace, query.max_failures);
            EXPECT_TRUE(feasibility.feasible) << text << ": " << feasibility.reason;
        }
        EXPECT_NE(result.note.find("failure scenarios"), std::string::npos);
    }
}

TEST_F(ExactEngine, WeightedMinimumMatchesWeightedEngine) {
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    VerifyOptions options;
    options.weights = &weights;
    const auto exact = run("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", options);
    EXPECT_EQ(exact.answer, Answer::Yes);
    EXPECT_EQ(exact.weight, (std::vector<std::uint64_t>{5, 0})); // σ3
}

TEST_F(ExactEngine, DecidesWhatTheDualEngineCannot) {
    // The conflict network (backup requires a link the continuation uses):
    // DUAL is inconclusive; EXACT proves a conclusive NO.
    Network conflict;
    conflict.name = "conflict";
    auto& topology = conflict.topology;
    const auto a = topology.add_router("A");
    const auto b = topology.add_router("B");
    const auto c = topology.add_router("C");
    const auto d = topology.add_router("D");
    auto link = [&](RouterId s, std::string_view si, RouterId t, std::string_view ti) {
        return topology.add_link(s, topology.add_interface(s, si), t,
                                 topology.add_interface(t, ti));
    };
    const auto x = link(a, "x", b, "xi");
    const auto y = link(b, "y", c, "yi");
    const auto z = link(b, "z", c, "zi");
    const auto w = link(c, "w", b, "wi");
    const auto out = link(c, "o", d, "oi");
    const auto ell = conflict.labels.add(LabelType::MplsBos, "l");
    conflict.labels.add(LabelType::Ip, "ip");
    conflict.routing.add_rule(x, ell, 1, y, {});
    conflict.routing.add_rule(x, ell, 2, z, {});
    conflict.routing.add_rule(z, ell, 1, w, {});
    conflict.routing.add_rule(w, ell, 1, y, {});
    conflict.routing.add_rule(y, ell, 1, out, {});
    conflict.routing.validate(topology);

    const auto query = query::parse_query(
        "<smpls ip> [A#B] [B#C.zi] .* [C#D] <smpls ip> 1", conflict);
    EXPECT_EQ(verify(conflict, query, {}).answer, Answer::Inconclusive);
    VerifyOptions exact;
    exact.engine = EngineKind::Exact;
    EXPECT_EQ(verify(conflict, query, exact).answer, Answer::No);
}

TEST_F(ExactEngine, DualNeverContradictsExactOnSynthesizedNetworks) {
    const auto synth = synthesis::build_dataplane(synthesis::make_ring(4),
                                                  {.service_chains = 2, .seed = 21});
    const auto& network = synth.network;
    std::mt19937_64 rng(5);
    const auto& topo = network.topology;
    for (int round = 0; round < 6; ++round) {
        const auto a = topo.router_name(synth.edge_routers[rng() % synth.edge_routers.size()]);
        const auto b = topo.router_name(synth.edge_routers[rng() % synth.edge_routers.size()]);
        for (const std::uint64_t k : {0, 1}) {
            const auto text =
                "<ip> [.#" + a + "] .* [.#" + b + "] <ip> " + std::to_string(k);
            const auto query = query::parse_query(text, network);
            const auto dual = verify(network, query, {});
            VerifyOptions opts;
            opts.engine = EngineKind::Exact;
            const auto exact = verify(network, query, opts);
            ASSERT_NE(exact.answer, Answer::Inconclusive) << text;
            if (dual.answer != Answer::Inconclusive) {
                EXPECT_EQ(dual.answer, exact.answer) << text;
            }
        }
    }
}

TEST_F(ExactEngine, ScenarioCountGrowsCombinatorially) {
    // |E| = 8 on figure1: k=0 -> 1 scenario, k=1 -> 9, k=2 -> 37.
    auto count = [&](const std::string& text) {
        const auto note = run(text).note;
        const auto pos = note.find("exact: ");
        return std::stoul(note.substr(pos + 7));
    };
    EXPECT_EQ(count("<ip> [.#v0] .* [v3#.] <ip> 0"), 1u);
    EXPECT_EQ(count("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1"), 9u);
    EXPECT_EQ(count("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 2"), 37u);
}

} // namespace
} // namespace aalwines::verify
