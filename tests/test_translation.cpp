#include <gtest/gtest.h>

#include "model/quantity.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {
namespace {

/// verify() on the eager reference build: a fresh eager translation cache
/// per call, as verify() builds its own lazy one.
VerifyResult verify_eager(const Network& net, const query::Query& query,
                          const VerifyOptions& options = {}) {
    TranslationCache eager(net, query, translation_weights(options), /*lazy=*/false);
    return verify(net, query, options, eager);
}

class TranslationFixture : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    query::Query parse(const std::string& text) { return query::parse_query(text, net); }
};

TEST_F(TranslationFixture, ValidHeaderRegexMatchesH) {
    const auto nfa = nfa::Nfa::compile(valid_header_regex(net.labels));
    const auto ip1 = *net.labels.find(LabelType::Ip, "ip1");
    const auto s20 = *net.labels.find(LabelType::MplsBos, "20");
    const auto m30 = *net.labels.find(LabelType::Mpls, "30");
    // Top-first words.
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{s20, ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{m30, s20, ip1}));
    EXPECT_TRUE(nfa.accepts(std::vector<nfa::Symbol>{m30, m30, s20, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{m30, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{ip1, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{s20, s20, ip1}));
    EXPECT_FALSE(nfa.accepts(std::vector<nfa::Symbol>{}));
}

TEST_F(TranslationFixture, BuildsControlStatesAndRules) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    EXPECT_GT(translation.pda().state_count(), 0u);
    EXPECT_GT(translation.pda().rule_count(), 0u);
    EXPECT_FALSE(translation.initial_states().empty());
    EXPECT_FALSE(translation.accepting_states().empty());
}

TEST_F(TranslationFixture, PostStarFindsWitnessTrace) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    // The witness must be one of σ0 / σ1: 4 links, starting at e0 (id 0),
    // ending at e7 (id 7), feasible without failures.
    ASSERT_EQ(trace->size(), 4u);
    EXPECT_EQ(trace->entries.front().link, 0u);
    EXPECT_EQ(trace->entries.back().link, 7u);
    const auto feasibility = check_feasibility(net, *trace, 0);
    EXPECT_TRUE(feasibility.feasible) << feasibility.reason;
}

TEST_F(TranslationFixture, UnderApproximationBoundsFailures) {
    // k=0 under-approximation must not contain the failover trace σ2.
    const auto query = parse("<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 0");
    TranslationOptions options;
    options.approximation = Approximation::Under;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    EXPECT_FALSE(pda::find_accepted(aut, translation.accepting_states(),
                                    translation.final_header_nfa(),
                                    static_cast<pda::Symbol>(net.labels.size()))
                     .has_value());
}

TEST_F(TranslationFixture, UnderApproximationAdmitsWithBudget) {
    const auto query = parse("<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 1");
    TranslationOptions options;
    options.approximation = Approximation::Under;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(check_feasibility(net, *trace, 1).feasible);
    EXPECT_EQ(trace->size(), 5u); // σ2
}

TEST_F(TranslationFixture, ReductionShrinksRuleSet) {
    // A very specific query: most forwarding entries cannot participate.
    const auto query = parse("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0");
    Translation with(net, query, {});
    const auto before = with.pda().rule_count();
    const auto stats = with.reduce(2);
    EXPECT_EQ(stats.rules_before, before);
    EXPECT_LT(stats.rules_after, before);

    // Reduction must not change the verdict.
    auto aut = with.make_initial_automaton();
    pda::post_star(aut);
    EXPECT_TRUE(pda::find_accepted(aut, with.accepting_states(), with.final_header_nfa(),
                                   static_cast<pda::Symbol>(net.labels.size()))
                    .has_value());
}

TEST_F(TranslationFixture, WeightedTranslationReportsMinimum) {
    // φ4 with (Hops, Failures + 3*Tunnels): minimum witness is σ3 = (5, 0).
    const auto query = parse("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1");
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    TranslationOptions options;
    options.weights = &weights;
    Translation translation(net, query, options);
    auto aut = translation.make_initial_automaton();
    pda::post_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.accepting_states(),
                           translation.final_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->weight.components(), (std::vector<std::uint64_t>{5, 0}));
    const auto witness = pda::unroll_post_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(evaluate(net, *trace, weights), (std::vector<std::uint64_t>{5, 0}));
}

TEST_F(TranslationFixture, FinalAutomatonDrivesPreStar) {
    const auto query = parse("<ip> [.#v0] .* [v3#.] <ip> 0");
    Translation translation(net, query, {});
    auto aut = translation.make_final_automaton();
    pda::pre_star(aut);
    const auto accepted =
        pda::find_accepted(aut, translation.initial_states(),
                           translation.initial_header_nfa(),
                           static_cast<pda::Symbol>(net.labels.size()));
    ASSERT_TRUE(accepted.has_value());
    const auto witness = pda::unroll_pre_star(aut, *accepted);
    ASSERT_TRUE(witness.has_value());
    const auto trace = translation.witness_to_trace(*witness);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(check_feasibility(net, *trace, 0).feasible);
}


/// Deep operation chains: pops reveal unknown symbols, so the translation
/// must branch per stratum mid-chain and still produce exact traces.
TEST(TranslationChains, MultiPopChainsVerifyEndToEnd) {
    Network net;
    net.name = "chains";
    auto& topology = net.topology;
    const auto a = topology.add_router("A");
    const auto b = topology.add_router("B");
    const auto c = topology.add_router("C");
    auto link = [&](RouterId s, std::string_view si, RouterId t, std::string_view ti) {
        return topology.add_link(s, topology.add_interface(s, si), t,
                                 topology.add_interface(t, ti));
    };
    const auto ab = link(a, "o", b, "i");
    const auto bc = link(b, "o", c, "i");
    auto& labels = net.labels;
    const auto ip1 = labels.add(LabelType::Ip, "ip1");
    const auto ip2 = labels.add(LabelType::Ip, "ip2");
    const auto s0 = labels.add(LabelType::MplsBos, "0");
    const auto m0 = labels.add(LabelType::Mpls, "m0");
    const auto m1 = labels.add(LabelType::Mpls, "m1");
    (void)ip1;
    (void)m1;
    // Terminate a two-level tunnel and rewrite the revealed IP in one rule:
    // pop (m0 off), pop (s0 off), swap(ip2).
    net.routing.add_rule(ab, m0, 1, bc, {Op::pop(), Op::pop(), Op::swap(ip2)});
    // And a deep push chain in the other direction of processing:
    // swap(m1) then two pushes (stack grows by two).
    net.routing.add_rule(ab, s0, 1, bc, {Op::swap(s0), Op::push(m0), Op::push(m1)});
    net.routing.validate(topology);

    {
        const auto q = query::parse_query("<m0 s0 ip> [A#B] [B#C] <ip2> 0", net);
        const auto result = verify(net, q, {});
        ASSERT_EQ(result.answer, Answer::Yes);
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(result.trace->entries.back().header, (Header{ip2}));
    }
    {
        // The multi-pop rule must NOT fire when the stack is too shallow
        // for its rewrite to stay valid (pop pop on [s0 ip] pops the ip).
        const auto q = query::parse_query("<s0 ip> [A#B] [B#C] <ip2> 0", net);
        EXPECT_EQ(verify(net, q, {}).answer, Answer::No);
    }
    {
        const auto q =
            query::parse_query("<s0 ip> [A#B] [B#C] <m1 m0 s0 ip> 0", net);
        const auto result = verify(net, q, {});
        ASSERT_EQ(result.answer, Answer::Yes);
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(result.trace->entries.back().header.size(), 4u);
    }
}

// ---------------------------------------------------------------------------
// Demand-driven (lazy) translation equivalence.

/// The lazy rule total must be *exact*: after materialize_all the lazy PDA
/// has rule-for-rule and state-for-state the same totals as an eager build
/// (ids and order may differ).  A fresh lazy PDA holds its control states
/// only; chain interiors appear as their chains materialize, so a saturated
/// one holds fewer states than the eager build whenever that has interiors.
/// The mixed path — per-label demands during post*, then the "all labels"
/// demand — must land on the same totals: no label's slice is emitted
/// twice, and no interior is created twice.
TEST_F(TranslationFixture, LazyMaterializeAllMatchesEagerTotals) {
    const std::vector<std::string> queries = {
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
        "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 2",
        "<ip> .* <ip> 1",
    };
    for (const auto& text : queries) {
        const auto query = parse(text);
        for (const auto approx : {Approximation::Over, Approximation::Under}) {
            TranslationOptions eager_opts;
            eager_opts.approximation = approx;
            Translation eager(net, query, eager_opts);

            TranslationOptions lazy_opts = eager_opts;
            lazy_opts.lazy = true;
            Translation lazy(net, query, lazy_opts);
            EXPECT_TRUE(lazy.pda().lazy());
            EXPECT_EQ(lazy.pda().rule_count(), 0u) << text;
            EXPECT_EQ(lazy.total_rules(), eager.pda().rule_count()) << text;
            const std::size_t slots =
                approx == Approximation::Under ? query.max_failures + 1 : 1;
            const auto n_control = slots * compile_query_nfas(net, query).path.size() *
                                   net.topology.link_count();
            EXPECT_EQ(lazy.pda().state_count(), n_control) << text;

            lazy.pda().materialize_all();
            EXPECT_TRUE(lazy.pda().fully_materialized());
            EXPECT_EQ(lazy.pda().rule_count(), eager.pda().rule_count()) << text;
            // State parity: every chain interior the eager build created was
            // created lazily too, exactly once.
            EXPECT_EQ(lazy.pda().state_count(), eager.pda().state_count()) << text;

            Translation mixed(net, query, lazy_opts);
            auto aut = mixed.make_initial_automaton();
            pda::post_star(aut);
            EXPECT_GT(mixed.pda().rule_count(), 0u) << text;
            EXPECT_FALSE(mixed.pda().fully_materialized()) << text;
            if (eager.pda().state_count() > n_control) {
                EXPECT_LT(mixed.pda().state_count(), eager.pda().state_count()) << text;
            }
            mixed.pda().materialize_all();
            EXPECT_TRUE(mixed.pda().fully_materialized());
            EXPECT_EQ(mixed.pda().rule_count(), eager.pda().rule_count()) << text;
            EXPECT_EQ(mixed.pda().state_count(), eager.pda().state_count()) << text;
        }
    }
}

/// Lazy and eager must give identical answers, witness traces and weights
/// through the full verify() pipeline (reduction on for eager, skipped for
/// lazy — the demand filter subsumes it).
TEST_F(TranslationFixture, LazyVerifyMatchesEagerVerify) {
    const std::vector<std::string> queries = {
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 0",
        "<ip> [.#v0] [v0#v2] [v2#v4] [v4#v3] [v3#.] <ip> 1",
        "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
        "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 2",
        "<ip> .* <smpls ip> 0",
    };
    for (const auto& text : queries) {
        const auto query = parse(text);
        const auto lazy = verify(net, query);
        const auto eager = verify_eager(net, query);
        EXPECT_EQ(lazy.answer, eager.answer) << text;
        EXPECT_EQ(lazy.weight, eager.weight) << text;
        ASSERT_EQ(lazy.trace.has_value(), eager.trace.has_value()) << text;
        if (lazy.trace && eager.trace) {
            EXPECT_EQ(*lazy.trace, *eager.trace) << text;
        }
        EXPECT_TRUE(lazy.stats.over.lazy_translation) << text;
        EXPECT_FALSE(eager.stats.over.lazy_translation) << text;
        EXPECT_LE(lazy.stats.over.pda_rules, lazy.stats.over.pda_rules_total) << text;
    }
}

/// Weighted equivalence: the minimum witness and its weight vector must not
/// depend on when rules materialize.
TEST_F(TranslationFixture, LazyWeightedVerifyMatchesEager) {
    const auto query = parse("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1");
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    VerifyOptions options;
    options.engine = EngineKind::Weighted;
    options.weights = &weights;
    for (const bool lazy : {true, false}) {
        const auto result = lazy ? verify(net, query, options)
                                 : verify_eager(net, query, options);
        EXPECT_EQ(result.answer, Answer::Yes);
        EXPECT_EQ(result.weight, (std::vector<std::uint64_t>{5, 0}));
        ASSERT_TRUE(result.trace.has_value());
        EXPECT_EQ(evaluate(net, *result.trace, weights),
                  (std::vector<std::uint64_t>{5, 0}));
    }
}

/// Battery-level equivalence on a synthesized operator network, including a
/// case where lazy materializes strictly less than the eager total.
TEST(TranslationLazy, NordunetBatteryMatchesEagerAndSavesWork) {
    auto synth = synthesis::make_nordunet_like();
    const auto& net = synth.network;
    synthesis::QueryBatteryOptions battery_options;
    battery_options.count = 8;
    const auto battery = synthesis::make_query_battery(synth, battery_options);
    ASSERT_FALSE(battery.empty());

    std::size_t partial = 0;
    for (const auto& text : battery) {
        const auto query = query::parse_query(text, net);
        const auto lazy = verify(net, query);
        const auto eager = verify_eager(net, query);
        EXPECT_EQ(lazy.answer, eager.answer) << text;
        EXPECT_EQ(lazy.weight, eager.weight) << text;
        ASSERT_EQ(lazy.trace.has_value(), eager.trace.has_value()) << text;
        if (lazy.trace && eager.trace) {
            EXPECT_EQ(*lazy.trace, *eager.trace) << text;
        }
        if (lazy.stats.over.pda_rules < lazy.stats.over.pda_rules_total)
            ++partial;
    }
    // Early termination must leave at least some batteries partially
    // materialized — otherwise the lazy path degenerated to eager-with-steps.
    EXPECT_GT(partial, 0u);
}

} // namespace
} // namespace aalwines::verify
