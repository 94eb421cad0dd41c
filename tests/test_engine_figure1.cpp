// Integration tests: the paper's running example (Figure 1) end to end.
// Expected answers come from Figure 1d and the §3 minimum-witness example.

#include <gtest/gtest.h>

#include <set>

#include "model/quantity.hpp"
#include "synthesis/dataplane.hpp"
#include "util/errors.hpp"
#include "verify/engine.hpp"

namespace aalwines::verify {
namespace {

class Figure1Engine : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    VerifyResult run(const std::string& text, VerifyOptions options = {}) {
        return verify(net, query::parse_query(text, net), options);
    }
};

TEST_F(Figure1Engine, Phi0IsSatisfied) {
    const auto result = run("<ip> [.#v0] .* [v3#.] <ip> 0");
    EXPECT_EQ(result.answer, Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    const auto feasibility = check_feasibility(net, *result.trace, 0);
    EXPECT_TRUE(feasibility.feasible) << feasibility.reason;
    EXPECT_EQ(result.trace->size(), 4u); // σ0 or σ1
}

TEST_F(Figure1Engine, FailureBudgetPastTheStateSpaceIsAnError) {
    // (k + 1) × path-NFA states × links control states no longer fit below
    // the P-automaton's helper ids; the slot count used to wrap to 0 (a
    // crash) or, at k = 2^32, to one slot.
    EXPECT_THROW((void)run("<ip> [.#v0] .* [v3#.] <ip> 4294967295 UNDER"), model_error);
    EXPECT_THROW((void)run("<ip> [.#v0] .* [v3#.] <ip> 4294967296 UNDER"), model_error);
    EXPECT_EQ(run("<ip> [.#v0] .* [v3#.] <ip> 4294967295").answer, Answer::Yes);
}

TEST_F(Figure1Engine, Phi1IsSatisfiedAvoidingE4) {
    const auto result = run("<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2");
    EXPECT_EQ(result.answer, Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    for (const auto& entry : result.trace->entries)
        EXPECT_NE(entry.link, 4u) << "witness must avoid e4";
}

TEST_F(Figure1Engine, Phi2ServiceRoutingIsSatisfied) {
    const auto result = run("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0");
    EXPECT_EQ(result.answer, Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    // σ3: e0 e1 e5 e6 e7.
    std::vector<LinkId> links;
    for (const auto& entry : result.trace->entries) links.push_back(entry.link);
    EXPECT_EQ(links, (std::vector<LinkId>{0, 1, 5, 6, 7}));
}

TEST_F(Figure1Engine, Phi3TransparencyHolds) {
    // No trace leaks an extra MPLS label on top of the service label,
    // even under one failure: conclusive NO.
    const auto result = run("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1");
    EXPECT_EQ(result.answer, Answer::No);
    EXPECT_FALSE(result.trace.has_value());
}

TEST_F(Figure1Engine, Phi4SatisfiedWithOneFailure) {
    const auto result = run("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1");
    EXPECT_EQ(result.answer, Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    EXPECT_GE(result.trace->size(), 5u);
}

TEST_F(Figure1Engine, Phi4AtZeroFailuresOnlySigma3) {
    const auto result = run("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 0");
    EXPECT_EQ(result.answer, Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    // Only σ3 works without failures: it starts with the s40 header.
    EXPECT_EQ(result.trace->entries.front().header.size(), 2u);
}

TEST_F(Figure1Engine, WeightedMinimumWitnessIsSigma3) {
    // §3: minimise (Hops, Failures + 3*Tunnels) over φ4's witnesses → σ3
    // with value (5, 0), beating σ2's (5, 7).
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    VerifyOptions options;
    options.engine = EngineKind::Weighted;
    options.weights = &weights;
    const auto result =
        run("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", options);
    EXPECT_EQ(result.answer, Answer::Yes);
    EXPECT_EQ(result.weight, (std::vector<std::uint64_t>{5, 0}));
    ASSERT_TRUE(result.trace.has_value());
    EXPECT_EQ(evaluate(net, *result.trace, weights), (std::vector<std::uint64_t>{5, 0}));
}

TEST_F(Figure1Engine, WeightedFailuresFindsZeroFailureWitness) {
    const auto weights = weight_of(Quantity::Failures);
    VerifyOptions options;
    options.engine = EngineKind::Weighted;
    options.weights = &weights;
    const auto result = run("<ip> [.#v0] .* [v3#.] <ip> 2", options);
    EXPECT_EQ(result.answer, Answer::Yes);
    EXPECT_EQ(result.weight, (std::vector<std::uint64_t>{0}));
}

TEST_F(Figure1Engine, ForcedFailoverPathNeedsBudget) {
    // The only way through v4 with an IP packet is the protection tunnel,
    // which needs e4 to fail.
    const auto no_budget = run("<ip> [.#v0] .* [.#v4] .* [v3#.] <ip> 0");
    EXPECT_EQ(no_budget.answer, Answer::No);
    const auto with_budget = run("<ip> [.#v0] .* [.#v4] .* [v3#.] <ip> 1");
    EXPECT_EQ(with_budget.answer, Answer::Yes);
    ASSERT_TRUE(with_budget.trace.has_value());
    EXPECT_TRUE(check_feasibility(net, *with_budget.trace, 1).feasible);
}

TEST_F(Figure1Engine, UnsatisfiableHeaderIsConclusiveNo) {
    // There is no rule for label s44 inside the network: a trace cannot
    // START with it at v0 and leave at v3.
    const auto result = run("<s44 ip> [.#v0] .+ [v3#.] <smpls ip> 2");
    EXPECT_EQ(result.answer, Answer::No);
}

TEST_F(Figure1Engine, MopedEngineAgreesOnAllFigureQueries) {
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
        VerifyOptions options;
        options.engine = EngineKind::Moped;
        const auto result = run(text, options);
        EXPECT_EQ(result.answer, expected) << "moped on " << text;
        if (expected == Answer::Yes) {
            ASSERT_TRUE(result.trace.has_value()) << text;
            const auto query = query::parse_query(text, net);
            EXPECT_TRUE(check_feasibility(net, *result.trace, query.max_failures).feasible)
                << text;
        }
    }
}

TEST_F(Figure1Engine, MopedRejectsWeights) {
    const auto weights = weight_of(Quantity::Hops);
    VerifyOptions options;
    options.engine = EngineKind::Moped;
    options.weights = &weights;
    EXPECT_THROW(run("<ip> .* <ip> 0", options), model_error);
}

TEST_F(Figure1Engine, WeightedEngineRequiresWeights) {
    VerifyOptions options;
    options.engine = EngineKind::Weighted;
    EXPECT_THROW(run("<ip> .* <ip> 0", options), model_error);
}

TEST_F(Figure1Engine, StatsArePopulated) {
    const auto result = run("<ip> [.#v0] .* [v3#.] <ip> 0");
    EXPECT_TRUE(result.stats.over.ran);
    EXPECT_GT(result.stats.over.pda_rules, 0u);
    EXPECT_GT(result.stats.over.saturation_iterations, 0u);
    EXPECT_GE(result.stats.total_seconds, 0.0);
}

TEST_F(Figure1Engine, NoTraceOptionSkipsWitness) {
    VerifyOptions options;
    options.build_trace = false;
    const auto result = run("<ip> [.#v0] .* [v3#.] <ip> 0", options);
    EXPECT_EQ(result.answer, Answer::Yes);
    EXPECT_FALSE(result.trace.has_value());
}


/// A network where the over-approximation is satisfiable but every real
/// trace is contradictory: B's backup route (through z) requires link y to
/// have failed, yet the only continuation later uses y itself.
Network conflict_network() {
    Network net;
    net.name = "conflict";
    auto& topology = net.topology;
    const auto a = topology.add_router("A");
    const auto b = topology.add_router("B");
    const auto c = topology.add_router("C");
    const auto d = topology.add_router("D");
    auto link = [&](RouterId s, std::string_view si, RouterId t, std::string_view ti) {
        return topology.add_link(s, topology.add_interface(s, si), t,
                                 topology.add_interface(t, ti));
    };
    const auto x = link(a, "x", b, "xi"); // A -> B (entry)
    const auto y = link(b, "y", c, "yi"); // B -> C primary
    const auto z = link(b, "z", c, "zi"); // B -> C backup
    const auto w = link(c, "w", b, "wi"); // C -> B return
    const auto out = link(c, "o", d, "oi"); // C -> D (exit)
    const auto ell = net.labels.add(LabelType::MplsBos, "l");
    const auto ip = net.labels.add(LabelType::Ip, "ip");
    (void)ip;
    net.routing.add_rule(x, ell, 1, y, {});
    net.routing.add_rule(x, ell, 2, z, {});
    net.routing.add_rule(z, ell, 1, w, {}); // backup bounces via C -> B
    net.routing.add_rule(w, ell, 1, y, {}); // ...and B then insists on y
    net.routing.add_rule(y, ell, 1, out, {});
    net.routing.validate(topology);
    return net;
}

// The query mode picks the approximation in every engine that runs the
// over -> under decision: dual and the Moped baseline alike.
constexpr EngineKind k_mode_engines[] = {EngineKind::Dual, EngineKind::Moped};

TEST_F(Figure1Engine, OverModeTrustsOverApproximation) {
    // Reaching D via the backup link z needs y failed AND used: DUAL is
    // inconclusive (over-sat, under finds no valid trace), OVER reports a
    // flagged YES.
    const auto conflict = conflict_network();
    const auto text = "<smpls ip> [A#B] [B#C.zi] .* [C#D] <smpls ip> 1";
    for (const auto engine : k_mode_engines) {
        SCOPED_TRACE(to_string(engine));
        VerifyOptions options;
        options.engine = engine;
        const auto dual = verify(conflict, query::parse_query(text, conflict), options);
        EXPECT_EQ(dual.answer, Answer::Inconclusive);
        const auto over = verify(
            conflict, query::parse_query(text + std::string(" OVER"), conflict), options);
        EXPECT_EQ(over.answer, Answer::Yes);
        EXPECT_NE(over.note.find("spurious"), std::string::npos);

        // When the over-approximation itself is empty, OVER still answers NO.
        const auto no = run("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1 OVER", options);
        EXPECT_EQ(no.answer, Answer::No);
    }
}

TEST_F(Figure1Engine, UnderModeOnlyTrustsYes) {
    for (const auto engine : k_mode_engines) {
        SCOPED_TRACE(to_string(engine));
        VerifyOptions options;
        options.engine = engine;
        const auto yes = run("<ip> [.#v0] .* [.#v4] .* [v3#.] <ip> 1 UNDER", options);
        EXPECT_EQ(yes.answer, Answer::Yes);
        ASSERT_TRUE(yes.trace.has_value());
        // Unsatisfiable query: UNDER cannot conclude NO.
        const auto maybe = run("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1 UNDER", options);
        EXPECT_EQ(maybe.answer, Answer::Inconclusive);
    }
}


TEST_F(Figure1Engine, EnumeratesAlternativeWitnesses) {
    // φ0 has exactly two witnesses: σ0 (via v2) and σ1 (via v1).
    VerifyOptions options;
    options.max_witnesses = 5;
    const auto result = run("<ip> [.#v0] .* [v3#.] <ip> 0", options);
    ASSERT_EQ(result.answer, Answer::Yes);
    ASSERT_EQ(result.witnesses.size(), 2u);
    EXPECT_NE(result.witnesses[0], result.witnesses[1]);
    std::set<LinkId> second_links;
    for (const auto& trace : result.witnesses) {
        EXPECT_TRUE(check_feasibility(net, trace, 0).feasible);
        EXPECT_EQ(trace.size(), 4u);
        second_links.insert(trace.entries[1].link);
    }
    EXPECT_EQ(second_links, (std::set<LinkId>{1, 2})); // e1 and e2
    ASSERT_TRUE(result.trace.has_value());
    EXPECT_EQ(*result.trace, result.witnesses.front());
}

TEST_F(Figure1Engine, WeightedWitnessesComeInWeightOrder) {
    // φ4 at k=1 has witnesses σ3 (5,0) and σ2 (5,7): the weighted engine
    // must list σ3 first.
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    VerifyOptions options;
    options.engine = EngineKind::Weighted;
    options.weights = &weights;
    options.max_witnesses = 4;
    const auto result =
        run("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", options);
    ASSERT_EQ(result.answer, Answer::Yes);
    ASSERT_GE(result.witnesses.size(), 2u);
    EXPECT_EQ(evaluate(net, result.witnesses[0], weights),
              (std::vector<std::uint64_t>{5, 0})); // σ3
    EXPECT_LE(evaluate(net, result.witnesses[0], weights),
              evaluate(net, result.witnesses[1], weights));
    bool found_sigma2 = false;
    for (const auto& trace : result.witnesses)
        if (evaluate(net, trace, weights) == (std::vector<std::uint64_t>{5, 7}))
            found_sigma2 = true;
    EXPECT_TRUE(found_sigma2);
}

TEST_F(Figure1Engine, SingleWitnessStillPopulatesWitnesses) {
    const auto result = run("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0");
    ASSERT_EQ(result.answer, Answer::Yes);
    ASSERT_EQ(result.witnesses.size(), 1u);
    EXPECT_EQ(result.witnesses.front(), *result.trace);
}

} // namespace
} // namespace aalwines::verify
