// Witness-replay validation (src/validate/witness.hpp) and differential
// cross-engine checking (src/validate/cross_check.hpp): real engine results
// must replay cleanly through the concrete dataplane semantics, and every
// seeded trace corruption — wrong rewrite, budget violation, tampered
// weight — must be flagged.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/quantity.hpp"
#include "model/simulator.hpp"
#include "synthesis/dataplane.hpp"
#include "validate/cross_check.hpp"
#include "validate/witness.hpp"
#include "verify/engine.hpp"

namespace aalwines::validate {
namespace {

Network figure1() { return synthesis::make_figure1_network(); }

verify::VerifyResult run(const Network& net, const query::Query& query,
                         verify::VerifyOptions options = {}) {
    options.max_witnesses = std::max<std::size_t>(options.max_witnesses, 3);
    return verify::verify(net, query, options);
}

// ---- replay of genuine engine witnesses -------------------------------------

TEST(WitnessReplay, EngineWitnessReplaysAndAccumulatesLikeEvaluate) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    const auto result = run(net, query);
    ASSERT_EQ(result.answer, verify::Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());

    Report report;
    const auto replay = replay_trace(net, *result.trace, report);
    ASSERT_TRUE(replay.has_value()) << report.to_string();
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_TRUE(replay->required_failures.empty());

    // The replayer's accumulation is an independent implementation of the
    // atomic quantities; it must agree with model/quantity.hpp exactly.
    const auto weights =
        parse_weight_expression("links, hops, distance, failures, tunnels");
    const auto reference = evaluate(net, *result.trace, weights);
    ASSERT_EQ(reference.size(), 5u);
    EXPECT_EQ(replay->of(Quantity::Links), reference[0]);
    EXPECT_EQ(replay->of(Quantity::Hops), reference[1]);
    EXPECT_EQ(replay->of(Quantity::Distance), reference[2]);
    EXPECT_EQ(replay->of(Quantity::Failures), reference[3]);
    EXPECT_EQ(replay->of(Quantity::Tunnels), reference[4]);
}

TEST(WitnessReplay, PropertyEveryYesWitnessOfTheQueryBatteryReplays) {
    const auto net = figure1();
    const std::vector<std::string> battery = {
        "<ip> .* <ip> 0",
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<smpls ip> .* <smpls ip> 1",
        "<smpls? ip> [.#v0] .* [v3#.] <smpls? ip> 1",
        "<ip> [.#v0] .* [v3#.] <mpls* smpls ip> 2",
        "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
    };
    for (const auto& text : battery) {
        const auto query = query::parse_query(text, net);
        const auto result = run(net, query);
        const auto report = check_result(net, query, result);
        EXPECT_TRUE(report.ok()) << text << "\n" << report.to_string();
    }
}

TEST(WitnessReplay, WeightedResultWeightMatchesReEvaluation) {
    const auto net = figure1();
    const auto query =
        query::parse_query("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", net);
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    verify::VerifyOptions options;
    options.engine = verify::EngineKind::Weighted;
    options.weights = &weights;
    const auto result = run(net, query, options);
    ASSERT_EQ(result.answer, verify::Answer::Yes);
    EXPECT_TRUE(check_result(net, query, result, &weights).ok());
}

// ---- seeded corruptions must be flagged -------------------------------------

TEST(WitnessMutation, TamperedHeaderIsFlagged) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    auto result = run(net, query);
    ASSERT_TRUE(result.trace.has_value());
    ASSERT_GE(result.trace->size(), 3u);

    const auto mpls = net.labels.find(LabelType::Mpls, "30");
    ASSERT_TRUE(mpls.has_value());
    result.trace->entries[1].header.push_back(*mpls);
    Report report;
    EXPECT_FALSE(replay_trace(net, *result.trace, report).has_value());
    EXPECT_FALSE(report.ok());
}

TEST(WitnessMutation, TamperedLinkIsFlagged) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    auto result = run(net, query);
    ASSERT_TRUE(result.trace.has_value());
    ASSERT_GE(result.trace->size(), 3u);

    // Reroute a middle entry over a link its predecessor cannot reach.
    auto& entry = result.trace->entries[1];
    entry.link = (entry.link + 3) % static_cast<LinkId>(net.topology.link_count());
    Report report;
    EXPECT_FALSE(replay_trace(net, *result.trace, report).has_value());
    EXPECT_FALSE(report.ok());
}

TEST(WitnessMutation, DroppedStepIsFlagged) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    auto result = run(net, query);
    ASSERT_TRUE(result.trace.has_value());
    ASSERT_GE(result.trace->size(), 3u);

    result.trace->entries.erase(result.trace->entries.begin() + 1);
    Report report;
    check_witness(net, query, *result.trace, report);
    EXPECT_FALSE(report.ok());
}

TEST(WitnessMutation, BackupGroupTraceExceedsZeroFailureBudget) {
    const auto net = figure1();
    // Enter v2 on e1 with '20' on top: priority 1 forwards over e4, the
    // priority-2 protection path swaps to '21' and pushes '30' over e5.
    const auto v0 = net.topology.find_router("v0");
    ASSERT_TRUE(v0.has_value());
    const auto e1 = net.topology.out_link_through(*v0, "e1");
    ASSERT_TRUE(e1.has_value());
    const auto ip = net.labels.find(LabelType::Ip, "ip1");
    const auto s20 = net.labels.find(LabelType::MplsBos, "20");
    ASSERT_TRUE(ip && s20);
    const Header header{*ip, *s20};

    const auto* entry = net.routing.entry(*e1, *s20);
    ASSERT_NE(entry, nullptr);
    ASSERT_GE(entry->size(), 2u);
    const auto primary = (*entry)[0].front().out_link;

    const Simulator simulator(net, {primary});
    Trace trace{{{*e1, header}}};
    bool stepped = false;
    for (const auto& rule : simulator.active_choices(*e1, header)) {
        if (auto next = simulator.step(trace.entries.front(), rule)) {
            trace.entries.push_back(std::move(*next));
            stepped = true;
            break;
        }
    }
    ASSERT_TRUE(stepped) << "no active protection alternative under F={primary}";

    // Within budget k=1 the trace is a fine witness of its own query...
    const auto lenient =
        query::parse_query(query_for_trace(net, trace, 1), net);
    Report ok_report;
    check_witness(net, lenient, trace, ok_report);
    EXPECT_TRUE(ok_report.ok()) << ok_report.to_string();

    // ...but claiming the protection path without any failure budget means
    // the router skipped a live priority group: the validator must object.
    const auto strict = query::parse_query(query_for_trace(net, trace, 0), net);
    Report report;
    check_witness(net, strict, trace, report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("query budget"), std::string::npos)
        << report.to_string();
}

TEST(WitnessMutation, TamperedWeightVectorIsFlagged) {
    const auto net = figure1();
    const auto query =
        query::parse_query("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", net);
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    verify::VerifyOptions options;
    options.engine = verify::EngineKind::Weighted;
    options.weights = &weights;
    auto result = run(net, query, options);
    ASSERT_EQ(result.answer, verify::Answer::Yes);
    ASSERT_FALSE(result.weight.empty());

    result.weight[0] += 1;
    const auto report = check_result(net, query, result, &weights);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("does not match"), std::string::npos)
        << report.to_string();
}

TEST(WitnessMutation, NonYesAnswerWithAttachedTraceIsFlagged) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    auto result = run(net, query);
    ASSERT_EQ(result.answer, verify::Answer::Yes);
    ASSERT_TRUE(result.trace.has_value());
    result.answer = verify::Answer::No; // keep the trace attached
    EXPECT_FALSE(check_result(net, query, result).ok());
}

TEST(WitnessMutation, CanonicalTraceMissingFromWitnessListIsFlagged) {
    const auto net = figure1();
    const auto query = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    auto result = run(net, query);
    ASSERT_EQ(result.answer, verify::Answer::Yes);
    ASSERT_FALSE(result.witnesses.empty());

    // Replace the canonical trace with a *different* (still valid) witness
    // of the same query: the protection variant one hop longer, if any —
    // otherwise simply truncate the witness list inconsistently.
    result.witnesses.erase(result.witnesses.begin());
    if (std::find(result.witnesses.begin(), result.witnesses.end(), *result.trace) ==
        result.witnesses.end() &&
        !result.witnesses.empty()) {
        const auto report = check_result(net, query, result);
        EXPECT_FALSE(report.ok());
        EXPECT_NE(report.to_string().find("canonical trace is missing"),
                  std::string::npos)
            << report.to_string();
    }
}

// ---- differential cross-engine checking -------------------------------------

TEST(CrossCheck, ScenarioCountIsBinomialSumWithSaturation) {
    EXPECT_EQ(exact_scenario_count(3, 0), 1u);
    EXPECT_EQ(exact_scenario_count(3, 1), 4u);
    EXPECT_EQ(exact_scenario_count(3, 2), 7u);
    EXPECT_EQ(exact_scenario_count(3, 3), 8u);
    EXPECT_EQ(exact_scenario_count(3, 99), 8u); // k clamps to |E|
    EXPECT_EQ(exact_scenario_count(200, 100), UINT64_MAX);
}

TEST(CrossCheck, EnginesAgreeOnFigure1) {
    const auto net = figure1();
    for (const std::string base : {"<ip> [.#v0] .* [v3#.] <ip> 0",
                                   "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1"}) {
        // Dual and Moped run the same approximations in every mode.
        for (const auto& text : {base, base + " OVER", base + " UNDER"}) {
            const auto query = query::parse_query(text, net);
            CrossCheckOptions options;
            options.deep = true;
            const auto outcome = cross_check(net, query, options);
            EXPECT_TRUE(outcome.ok()) << text << "\n" << outcome.report.to_string();
            EXPECT_TRUE(outcome.moped.has_value()) << text;
            EXPECT_TRUE(outcome.exact.has_value())
                << text << ": figure1 is small enough for the exact engine";
        }
    }
}

TEST(CrossCheck, WeightedDeepCheckMatchesExactMinimum) {
    const auto net = figure1();
    const auto query =
        query::parse_query("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", net);
    const auto weights = parse_weight_expression("hops, failures + 3*tunnels");
    CrossCheckOptions options;
    options.weights = &weights;
    options.deep = true;
    const auto outcome = cross_check(net, query, options);
    EXPECT_TRUE(outcome.ok()) << outcome.report.to_string();
    EXPECT_FALSE(outcome.moped.has_value()) << "Moped cannot carry weights";
    ASSERT_TRUE(outcome.exact.has_value());
    EXPECT_EQ(outcome.dual.weight, outcome.exact->weight);
}

} // namespace
} // namespace aalwines::validate
