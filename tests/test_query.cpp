#include <gtest/gtest.h>

#include "nfa/nfa.hpp"
#include "query/query.hpp"
#include "synthesis/dataplane.hpp"
#include "verify/translation.hpp"

namespace aalwines {
namespace {

using nfa::Nfa;

class QueryParser : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    Label get(LabelType type, std::string_view name) {
        return *net.labels.find(type, name);
    }

    static bool accepts(const nfa::Regex& regex, std::vector<nfa::Symbol> word) {
        return Nfa::compile(regex).accepts(word);
    }
};

TEST_F(QueryParser, ParsesPhi0Structure) {
    const auto q = query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 0", net);
    EXPECT_EQ(q.max_failures, 0u);
    EXPECT_EQ(q.text, "<ip> [.#v0] .* [v3#.] <ip> 0");
    // Initial/final header: exactly one IP label.
    EXPECT_TRUE(accepts(q.initial_header, {get(LabelType::Ip, "ip1")}));
    EXPECT_FALSE(accepts(q.initial_header, {get(LabelType::MplsBos, "40")}));
    // Path: e0 (into v0), anything, e7 (out of v3).
    EXPECT_TRUE(accepts(q.path, {0, 1, 4, 7}));
    EXPECT_TRUE(accepts(q.path, {0, 7}));
    EXPECT_FALSE(accepts(q.path, {1, 4, 7})); // e1 is not into v0
    EXPECT_FALSE(accepts(q.path, {0, 1, 4})); // e4 does not leave v3
}

TEST_F(QueryParser, ComplementLinkSet) {
    const auto q = query::parse_query("<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2", net);
    EXPECT_EQ(q.max_failures, 2u);
    EXPECT_TRUE(accepts(q.path, {0, 2, 3, 7}));  // σ1: avoids e4
    EXPECT_FALSE(accepts(q.path, {0, 1, 4, 7})); // σ0 uses e4 = [v2#v3]
    EXPECT_TRUE(accepts(q.path, {0, 1, 5, 6, 7})); // σ2 avoids e4
}

TEST_F(QueryParser, ConcreteLabelWithSPrefix) {
    const auto q = query::parse_query("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0", net);
    const auto s40 = get(LabelType::MplsBos, "40");
    const auto ip1 = get(LabelType::Ip, "ip1");
    EXPECT_TRUE(accepts(q.initial_header, {s40, ip1}));
    EXPECT_FALSE(accepts(q.initial_header, {get(LabelType::MplsBos, "41"), ip1}));
    // Final: any bottom-of-stack label over ip.
    EXPECT_TRUE(accepts(q.final_header, {get(LabelType::MplsBos, "44"), ip1}));
    EXPECT_FALSE(accepts(q.final_header, {get(LabelType::Mpls, "30"), ip1}));
}

TEST_F(QueryParser, MplsClassesAndOperators) {
    const auto q =
        query::parse_query("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1", net);
    const auto ip1 = get(LabelType::Ip, "ip1");
    const auto m30 = get(LabelType::Mpls, "30");
    const auto s44 = get(LabelType::MplsBos, "44");
    EXPECT_TRUE(accepts(q.final_header, {m30, s44, ip1}));
    EXPECT_TRUE(accepts(q.final_header, {m30, m30, s44, ip1}));
    EXPECT_FALSE(accepts(q.final_header, {s44, ip1})); // mpls+ needs >= 1
}

TEST_F(QueryParser, OptionalAndAlternation) {
    const auto q = query::parse_query("<smpls? ip> .* <(smpls | mpls) ip> 1", net);
    const auto ip1 = get(LabelType::Ip, "ip1");
    EXPECT_TRUE(accepts(q.initial_header, {ip1}));
    EXPECT_TRUE(accepts(q.initial_header, {get(LabelType::MplsBos, "20"), ip1}));
    EXPECT_FALSE(accepts(q.initial_header, {get(LabelType::Mpls, "30"), ip1}));
    EXPECT_TRUE(accepts(q.final_header, {get(LabelType::Mpls, "30"), ip1}));
}

TEST_F(QueryParser, InterfaceQualifiedLinks) {
    // e1 leaves v0 through interface "e1" and enters v2 through "in1".
    const auto q = query::parse_query("<ip> [v0.e1#v2.in1] <ip> 0", net);
    EXPECT_TRUE(accepts(q.path, {1}));
    EXPECT_FALSE(accepts(q.path, {2}));
}

TEST_F(QueryParser, DotIsAnyLabelInHeaderContext) {
    const auto q = query::parse_query("<. smpls ip> .* <ip> 0", net);
    const auto ip1 = get(LabelType::Ip, "ip1");
    EXPECT_TRUE(accepts(q.initial_header,
                        {get(LabelType::Mpls, "30"), get(LabelType::MplsBos, "21"), ip1}));
}

TEST_F(QueryParser, LinkSetUnion) {
    const auto q = query::parse_query("<ip> [v0#v1, v0#v2] <ip> 0", net);
    EXPECT_TRUE(accepts(q.path, {1})); // e1: v0 -> v2
    EXPECT_TRUE(accepts(q.path, {2})); // e2: v0 -> v1
    EXPECT_FALSE(accepts(q.path, {3}));
}

TEST_F(QueryParser, UnknownLabelGivesEmptyAtom) {
    const auto q = query::parse_query("<nosuchlabel ip> .* <ip> 0", net);
    EXPECT_TRUE(Nfa::compile(q.initial_header)
                    .empty_language(static_cast<nfa::Symbol>(net.labels.size())));
}

TEST_F(QueryParser, UnknownRouterIsError) {
    EXPECT_THROW(query::parse_query("<ip> [.#nope] <ip> 0", net), parse_error);
}

TEST_F(QueryParser, UnknownInterfaceIsError) {
    EXPECT_THROW(query::parse_query("<ip> [v0.badif#v2] <ip> 0", net), parse_error);
}

TEST_F(QueryParser, MalformedQueriesAreErrors) {
    EXPECT_THROW(query::parse_query("<ip> .*", net), parse_error);           // no <c> k
    EXPECT_THROW(query::parse_query("<ip> .* <ip>", net), parse_error);      // missing k
    EXPECT_THROW(query::parse_query("<ip> .* <ip> 0 junk", net), parse_error);
    EXPECT_THROW(query::parse_query("ip .* <ip> 0", net), parse_error);      // missing <
    EXPECT_THROW(query::parse_query("<ip> [v0#] <ip> 0", net), parse_error); // bad side
}

TEST_F(QueryParser, RejectsGroupsNestedPastTheBound) {
    const auto nested = [](std::size_t depth) {
        return "<ip> " + std::string(depth, '(') + "." + std::string(depth, ')') + " <ip> 0";
    };
    EXPECT_NO_THROW((void)query::parse_query(nested(k_max_nesting), net));
    EXPECT_THROW((void)query::parse_query(nested(k_max_nesting + 1), net), parse_error);
    // Far deeper than the stack could recurse: rejected, not a crash.
    EXPECT_THROW((void)query::parse_query(nested(1'000'000), net), parse_error);
}

TEST_F(QueryParser, QuotedNames) {
    const auto q = query::parse_query("<'40' ip> .* <ip> 0", net);
    // '40' resolves by raw name across strata: both s40 (bos "40") exists.
    EXPECT_TRUE(accepts(q.initial_header,
                        {get(LabelType::MplsBos, "40"), get(LabelType::Ip, "ip1")}));
}

TEST_F(QueryParser, WildcardBothSidesMatchesEverything) {
    const auto q = query::parse_query("<ip> [.#.]* <ip> 3", net);
    EXPECT_TRUE(accepts(q.path, {0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(q.max_failures, 3u);
}


TEST_F(QueryParser, BoundedRepetition) {
    const auto q = query::parse_query("<ip> .{2,3} <ip> 0", net);
    EXPECT_FALSE(accepts(q.path, {0}));
    EXPECT_TRUE(accepts(q.path, {0, 1}));
    EXPECT_TRUE(accepts(q.path, {0, 1, 4}));
    EXPECT_FALSE(accepts(q.path, {0, 1, 4, 7}));

    const auto exact = query::parse_query("<mpls{2} smpls ip> .* <ip> 1", net);
    const auto m30 = get(LabelType::Mpls, "30");
    const auto s20 = get(LabelType::MplsBos, "20");
    const auto ip1 = get(LabelType::Ip, "ip1");
    EXPECT_TRUE(accepts(exact.initial_header, {m30, m30, s20, ip1}));
    EXPECT_FALSE(accepts(exact.initial_header, {m30, s20, ip1}));

    const auto open = query::parse_query("<ip> .{3,} <ip> 0", net);
    EXPECT_FALSE(accepts(open.path, {0, 1}));
    EXPECT_TRUE(accepts(open.path, {0, 1, 4}));
    EXPECT_TRUE(accepts(open.path, {0, 1, 4, 7}));
}

TEST_F(QueryParser, RepetitionBoundErrors) {
    EXPECT_THROW(query::parse_query("<ip> .{3,2} <ip> 0", net), parse_error);
    EXPECT_THROW(query::parse_query("<ip> .{a} <ip> 0", net), parse_error);
    EXPECT_THROW(query::parse_query("<ip> .{2 <ip> 0", net), parse_error);
}

TEST_F(QueryParser, RepetitionExpansionIsBounded) {
    const auto path = [&](const std::string& regex) {
        return query::parse_query("<ip> " + regex + " <ip> 0", net).path;
    };
    const auto n = std::to_string(k_max_query_atoms);
    const auto past = std::to_string(k_max_query_atoms + 1);
    EXPECT_NO_THROW((void)path(".{0," + n + "}"));
    EXPECT_THROW((void)path(".{0," + past + "}"), parse_error);
    EXPECT_NO_THROW((void)path(".{" + n + "}"));
    EXPECT_THROW((void)path(".{" + past + "}"), parse_error);
    // r{n,} is n copies and r*: n + 1 copies.
    EXPECT_NO_THROW((void)path(".{" + std::to_string(k_max_query_atoms - 1) + ",}"));
    EXPECT_THROW((void)path(".{" + n + ",}"), parse_error);
    EXPECT_THROW((void)path(".{0,100000}"), parse_error);
    // The atoms of the repeated expression count, so stacked repetitions
    // multiply: nine {2} expand to 2 + 4 + ... + 512 = 1,022 atoms, a tenth
    // passes the bound.
    std::string stacked = ".";
    for (int i = 0; i < 9; ++i) stacked += "{2}";
    EXPECT_NO_THROW((void)path(stacked));
    EXPECT_THROW((void)path(stacked + "{2}"), parse_error);
    for (int i = 9; i < 30; ++i) stacked += "{2}";
    EXPECT_THROW((void)path(stacked), parse_error);
    // The bound covers the whole query, not each repetition.
    EXPECT_NO_THROW((void)path(".{512} .{512}"));
    EXPECT_THROW((void)path(".{512} .{513}"), parse_error);
    EXPECT_THROW(query::parse_query("<ip{512}> .{513} <ip> 0", net), parse_error);
}

TEST_F(QueryParser, OverflowingIntegersAreParseErrors) {
    // 2^64 + 2 used to wrap to .{2}, and 2^64 + 1 failures to k = 1.
    EXPECT_THROW(query::parse_query("<ip> [.#v0] .{18446744073709551618} [v3#.] <ip> 0", net),
                 parse_error);
    EXPECT_THROW(query::parse_query("<ip> [.#v0] .* [v3#.] <ip> 18446744073709551617", net),
                 parse_error);
    EXPECT_EQ(query::parse_query("<ip> .* <ip> 18446744073709551615", net).max_failures,
              18446744073709551615u);
}

TEST_F(QueryParser, WrittenAtomsAreBounded) {
    // `<ip>` twice plus n - 2 `.`: n written atoms.
    const auto written = [&](std::size_t n) {
        std::string text = "<ip> ";
        for (std::size_t i = 2; i < n; ++i) text += ". ";
        return query::parse_query(text + "<ip> 0", net);
    };
    EXPECT_NO_THROW((void)written(k_max_query_atoms));
    EXPECT_THROW((void)written(k_max_query_atoms + 1), parse_error);
    EXPECT_THROW((void)written(50'000), parse_error);
}

TEST_F(QueryParser, StackedPostfixOperatorsCompile) {
    // Each operator folds into the unary node below it, so both queries nest
    // one level deep and compile: `.+` and `.*`.
    std::string alternating;
    for (int i = 0; i < 33'000; ++i) alternating += "*+?";
    for (const auto& operators : {std::string(100'000, '+'), alternating}) {
        const auto query = query::parse_query("<ip> ." + operators + " <ip> 0", net);
        const auto nfas = verify::compile_query_nfas(net, query);
        EXPECT_TRUE(nfas.path.accepts(std::vector<nfa::Symbol>{0, 1}));
    }
}

TEST_F(QueryParser, ModeSuffix) {
    EXPECT_EQ(query::parse_query("<ip> .* <ip> 0", net).mode, query::Mode::Dual);
    EXPECT_EQ(query::parse_query("<ip> .* <ip> 1 OVER", net).mode, query::Mode::Over);
    EXPECT_EQ(query::parse_query("<ip> .* <ip> 1 under", net).mode, query::Mode::Under);
    EXPECT_EQ(query::parse_query("<ip> .* <ip> 2 DUAL", net).mode, query::Mode::Dual);
    EXPECT_THROW(query::parse_query("<ip> .* <ip> 1 SIDEWAYS", net), parse_error);
}

} // namespace
} // namespace aalwines
