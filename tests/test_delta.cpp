// The what-if delta subsystem (src/delta/): wire-format parsing, copy-on-
// write apply semantics, the tiered Reverifier, and the delta ≡ cold-
// recompile equivalence batteries over figure1 and a NORDUnet-like
// instance.  The batteries are the subsystem's correctness contract: every
// patched re-verification must be byte-identical (canonical result JSON,
// witness traces included) to a from-scratch verification of the same
// snapshot.  AALWINES_DELTA_BATTERY scales the battery length (nightly
// runs it deeper).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "delta/delta.hpp"
#include "delta/reverify.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"
#include "pda/solver.hpp"
#include "query/query.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "util/errors.hpp"
#include "verify/engine.hpp"
#include "verify/sweep.hpp"
#include "verify/translation.hpp"

namespace aalwines::delta {
namespace {

constexpr const char* k_fig1_yes = "<ip> [.#v0] .* [v3#.] <ip> 0";

NetworkDelta parse_delta(const std::string& text) {
    return NetworkDelta::from_json(json::parse(text));
}

/// The byte-identity form: result JSON without stats, wall-clock stripped.
std::string canonical(const Network& network, const std::string& query_text,
                      const verify::VerifyResult& result) {
    auto value = io::result_to_json_value(network, query_text, result, false);
    value.as_object().erase("seconds");
    return json::write(value, 0);
}

std::size_t battery_scale() {
    if (const char* env = std::getenv("AALWINES_DELTA_BATTERY")) {
        const auto scale = std::atoi(env);
        if (scale > 0) return static_cast<std::size_t>(scale);
    }
    return 1;
}

/// One forwarding rule addressed by names, with its remove/re-add pair —
/// only uniquely-addressable rules qualify (remove-rule removes every
/// (in, label, out, ops) match, so duplicates cannot be toggled singly).
struct RuleSite {
    DeltaOp remove;
    DeltaOp add;
};

DeltaOp::LabelRef label_ref(const LabelTable& labels, Label label) {
    return {labels.type_of(label), labels.name_of(label)};
}

std::vector<RuleSite> collect_sites(const Network& network) {
    const auto& topology = network.topology;
    std::vector<RuleSite> sites;
    std::vector<std::string> signatures;
    const auto signature_of = [](LinkId in_link, Label label, const ForwardingRule& rule) {
        std::string sig = std::to_string(in_link) + '/' + std::to_string(label) + '/' +
                          std::to_string(rule.out_link);
        for (const auto& op : rule.ops) {
            sig += '/';
            sig += std::to_string(static_cast<int>(op.kind));
            sig += ':';
            sig += std::to_string(op.label);
        }
        return sig;
    };
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        for (const auto& group : groups)
            for (const auto& rule : group) signatures.push_back(signature_of(in_link, label, rule));
    });
    std::sort(signatures.begin(), signatures.end());
    const auto unique = [&](const std::string& sig) {
        const auto it = std::lower_bound(signatures.begin(), signatures.end(), sig);
        return it != signatures.end() && (it + 1 == signatures.end() || *(it + 1) != sig);
    };
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        const auto& in = topology.link(in_link);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const auto& rule : groups[g]) {
                if (!unique(signature_of(in_link, label, rule))) continue;
                const auto& out = topology.link(rule.out_link);
                RuleSite site;
                auto& remove = site.remove;
                remove.kind = DeltaOp::Kind::RemoveRule;
                remove.router = topology.router_name(in.target);
                remove.in_interface = topology.interface(in.target_interface).name;
                remove.out_interface = topology.interface(out.source_interface).name;
                remove.label = label_ref(network.labels, label);
                remove.match_ops = true;
                for (const auto& op : rule.ops)
                    remove.ops.push_back({op.kind, op.kind == Op::Kind::Pop
                                                       ? DeltaOp::LabelRef{}
                                                       : label_ref(network.labels, op.label)});
                auto& add = site.add;
                add = remove;
                add.kind = DeltaOp::Kind::AddRule;
                add.match_ops = false;
                add.priority = static_cast<std::uint32_t>(g + 1);
                sites.push_back(std::move(site));
            }
        }
    });
    return sites;
}

/// A link addressed the way the wire format does (source router + outgoing
/// interface), for link-state and distance ops.
struct LinkSite {
    std::string router;
    std::string interface;
};

std::vector<LinkSite> collect_links(const Network& network) {
    std::vector<LinkSite> sites;
    for (const auto& link : network.topology.links())
        sites.push_back({network.topology.router_name(link.source),
                         network.topology.interface(link.source_interface).name});
    return sites;
}

DeltaOp link_state_op(const LinkSite& site, bool up) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::LinkState;
    op.router = site.router;
    op.out_interface = site.interface;
    op.up = up;
    return op;
}

DeltaOp distance_op(const LinkSite& site, std::uint64_t distance) {
    DeltaOp op;
    op.kind = DeltaOp::Kind::SetDistance;
    op.router = site.router;
    op.out_interface = site.interface;
    op.distance = distance;
    return op;
}

// ---- wire format -----------------------------------------------------

TEST(DeltaFormat, ParsesEveryOpKind) {
    const auto delta = parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v0", "from": "e0", "label": "ip1", "type": "ip",
         "priority": 2, "to": "e1", "ops": [{"op": "push", "label": "20", "type": "smpls"},
                                            {"op": "pop"}]},
        {"op": "remove-rule", "router": "v1", "from": "in2", "label": "10", "type": "smpls",
         "to": "e3", "ops": [{"op": "swap", "label": "11", "type": "smpls"}]},
        {"op": "remove-entry", "router": "v2", "from": "in1", "label": "20", "type": "smpls"},
        {"op": "link-state", "router": "v0", "interface": "e1", "up": false},
        {"op": "set-distance", "router": "v0", "interface": "e2", "distance": 7}
    ]})");
    ASSERT_EQ(delta.ops.size(), 5u);
    EXPECT_EQ(delta.ops[0].kind, DeltaOp::Kind::AddRule);
    EXPECT_EQ(delta.ops[0].label.type, LabelType::Ip);
    EXPECT_EQ(delta.ops[0].priority, 2u);
    ASSERT_EQ(delta.ops[0].ops.size(), 2u);
    EXPECT_EQ(delta.ops[0].ops[0].kind, Op::Kind::Push);
    EXPECT_EQ(delta.ops[0].ops[0].label.type, LabelType::MplsBos);
    EXPECT_EQ(delta.ops[0].ops[1].kind, Op::Kind::Pop);
    EXPECT_EQ(delta.ops[1].kind, DeltaOp::Kind::RemoveRule);
    EXPECT_TRUE(delta.ops[1].match_ops);
    EXPECT_EQ(delta.ops[2].kind, DeltaOp::Kind::RemoveEntry);
    EXPECT_EQ(delta.ops[3].kind, DeltaOp::Kind::LinkState);
    EXPECT_FALSE(delta.ops[3].up);
    EXPECT_EQ(delta.ops[4].kind, DeltaOp::Kind::SetDistance);
    EXPECT_EQ(delta.ops[4].distance, 7u);
}

TEST(DeltaFormat, RemoveRuleWithoutOpsMatchesAnyOps) {
    const auto delta = parse_delta(R"({"operations": [
        {"op": "remove-rule", "router": "v1", "from": "in2", "label": "10", "type": "smpls",
         "to": "e3"}]})");
    EXPECT_FALSE(delta.ops.at(0).match_ops);
}

TEST(DeltaFormat, RejectsMalformedDocuments) {
    EXPECT_THROW(parse_delta(R"({"operations": [{"op": "frobnicate", "router": "v0"}]})"),
                 model_error);
    EXPECT_THROW(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v0", "from": "e0", "label": "x", "type": "bogus",
         "to": "e1"}]})"),
                 model_error);
    EXPECT_THROW(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v0", "from": "e0", "label": "x", "priority": 0,
         "to": "e1"}]})"),
                 model_error);
    EXPECT_THROW(parse_delta(R"({"operations": [
        {"op": "set-distance", "router": "v0", "interface": "e1", "distance": -1}]})"),
                 model_error);
}

// ---- apply semantics -------------------------------------------------

TEST(DeltaApply, AddRuleIsCopyOnWrite) {
    const auto base = synthesis::make_figure1_network();
    const auto base_rules = base.routing.rule_count();
    const auto delta = parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v2", "from": "in1", "label": "20", "type": "smpls",
         "to": "e5", "ops": [{"op": "pop"}]}]})");
    const auto applied = apply_delta(base, delta);
    EXPECT_EQ(base.routing.rule_count(), base_rules);
    EXPECT_EQ(applied.network->routing.rule_count(), base_rules + 1);
    EXPECT_FALSE(applied.effects.label_added);
    const auto in1 = *base.topology.in_link_through(*base.topology.find_router("v2"), "in1");
    EXPECT_EQ(applied.effects.entry_links, std::vector<LinkId>{in1});
    EXPECT_TRUE(applied.effects.state_links.empty());

    // Structural sharing: untouched entries are the same objects; the
    // patched entry was cloned.
    const auto in2 = *base.topology.in_link_through(*base.topology.find_router("v1"), "in2");
    const auto s10 = *base.labels.find(LabelType::MplsBos, "10");
    const auto s20 = *base.labels.find(LabelType::MplsBos, "20");
    EXPECT_EQ(base.routing.entry(in2, s10), applied.network->routing.entry(in2, s10));
    EXPECT_NE(base.routing.entry(in1, s20), applied.network->routing.entry(in1, s20));
}

TEST(DeltaApply, MintingALabelSetsLabelAdded) {
    const auto base = synthesis::make_figure1_network();
    const auto delta = parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v2", "from": "in1", "label": "999", "type": "smpls",
         "to": "e5", "ops": [{"op": "pop"}]}]})");
    const auto applied = apply_delta(base, delta);
    EXPECT_TRUE(applied.effects.label_added);
    EXPECT_EQ(applied.network->labels.size(), base.labels.size() + 1);
    EXPECT_FALSE(base.labels.find(LabelType::MplsBos, "999").has_value());
}

TEST(DeltaApply, RemoveRuleAndEntryReportMisses) {
    const auto base = synthesis::make_figure1_network();
    const auto remove = parse_delta(R"({"operations": [
        {"op": "remove-rule", "router": "v2", "from": "in1", "label": "20", "type": "smpls",
         "to": "e4", "ops": [{"op": "swap", "label": "21", "type": "smpls"}]}]})");
    const auto applied = apply_delta(base, remove);
    EXPECT_EQ(applied.network->routing.rule_count(), base.routing.rule_count() - 1);
    // The same removal against the patched snapshot matches nothing.
    EXPECT_THROW(apply_delta(*applied.network, remove), model_error);
    EXPECT_THROW(apply_delta(base, parse_delta(R"({"operations": [
        {"op": "remove-entry", "router": "v2", "from": "in1", "label": "404",
         "type": "smpls"}]})")),
                 model_error);
    EXPECT_THROW(apply_delta(base, parse_delta(R"({"operations": [
        {"op": "remove-rule", "router": "nosuch", "from": "in1", "label": "20",
         "type": "smpls", "to": "e4"}]})")),
                 model_error);
}

TEST(DeltaApply, LinkStateAndDistanceRecordEffectsOnlyOnChange) {
    const auto base = synthesis::make_figure1_network();
    const auto down = parse_delta(R"({"operations": [
        {"op": "link-state", "router": "v0", "interface": "e1", "up": false}]})");
    const auto applied = apply_delta(base, down);
    const auto e1 = *base.topology.out_link_through(*base.topology.find_router("v0"), "e1");
    EXPECT_EQ(applied.effects.state_links, std::vector<LinkId>{e1});
    EXPECT_FALSE(applied.network->topology.link_up(e1));
    EXPECT_TRUE(base.topology.link_up(e1));
    // Re-applying the same state is a no-op with no recorded effect.
    const auto again = apply_delta(*applied.network, down);
    EXPECT_TRUE(again.effects.empty());

    const auto dist = apply_delta(base, parse_delta(R"({"operations": [
        {"op": "set-distance", "router": "v0", "interface": "e2", "distance": 9}]})"));
    const auto e2 = *base.topology.out_link_through(*base.topology.find_router("v0"), "e2");
    EXPECT_EQ(dist.effects.distance_links, std::vector<LinkId>{e2});
    EXPECT_EQ(dist.network->topology.link(e2).distance, 9u);
}

// ---- the tiered re-verifier ------------------------------------------

TEST(Reverifier, RepeatQueryIsReusedAndDeltasRebase) {
    Reverifier reverifier(std::make_shared<const Network>(synthesis::make_figure1_network()));
    const cli::VerifySpec spec;
    const auto cold = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(cold.path, VerifyPath::Cold);
    EXPECT_EQ(cold.result.answer, verify::Answer::Yes);

    const auto repeat = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(repeat.path, VerifyPath::Reused);
    EXPECT_EQ(canonical(*reverifier.network(), k_fig1_yes, repeat.result),
              canonical(*reverifier.network(), k_fig1_yes, cold.result));

    // A delta on the materialized footprint (v0's ip1 entry starts the
    // demanded region) forces a Tier-2 rebase, not a rebuild.
    const auto applied = reverifier.apply(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v0", "from": "e0", "label": "ip1", "type": "ip",
         "to": "e1", "ops": [{"op": "push", "label": "20", "type": "smpls"}]}]})"));
    EXPECT_EQ(applied.generation, 1u);
    const auto warm = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(warm.path, VerifyPath::Warm);
    EXPECT_EQ(warm.snapshot.generation, 1u);

    // A delta on rules the query never demands (v4's s43 entry lies beyond
    // the 0-failure trace region) is invisible: Tier-1 reuse.
    reverifier.apply(parse_delta(R"({"operations": [
        {"op": "remove-rule", "router": "v4", "from": "in5", "label": "42", "type": "smpls",
         "to": "e6", "ops": [{"op": "swap", "label": "43", "type": "smpls"}]}]})"));
    const auto reused = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(reused.path, VerifyPath::Reused);
}

TEST(Reverifier, ColdFallbacks) {
    const auto network = std::make_shared<const Network>(synthesis::make_figure1_network());
    const cli::VerifySpec spec;

    // Minting a label widens the PDA alphabet: the cached translation is
    // stale and the session rebuilds cold.
    Reverifier minting(network);
    EXPECT_EQ(minting.verify(k_fig1_yes, spec).path, VerifyPath::Cold);
    minting.apply(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v2", "from": "in1", "label": "fresh", "type": "smpls",
         "to": "e5", "ops": [{"op": "pop"}]}]})"));
    EXPECT_EQ(minting.verify(k_fig1_yes, spec).path, VerifyPath::Cold);

    // Engines without a lazy translation cannot rebase.
    Reverifier moped(network);
    cli::VerifySpec moped_spec;
    moped_spec.engine = "moped";
    EXPECT_EQ(moped.verify(k_fig1_yes, moped_spec).path, VerifyPath::Cold);
}

/// An outcome names the snapshot that answered it, which the daemon keys
/// and renders the result with: after a delta that mints a label, that
/// snapshot's label table holds the label.
TEST(Reverifier, OutcomeNamesTheAnsweringSnapshot) {
    Reverifier reverifier(std::make_shared<const Network>(synthesis::make_figure1_network()));
    const cli::VerifySpec spec;
    const auto before = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(before.snapshot.generation, 0u);
    EXPECT_FALSE(before.snapshot.network->labels.find(LabelType::MplsBos, "fresh").has_value());

    reverifier.apply(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v2", "from": "in1", "label": "fresh", "type": "smpls",
         "to": "e5", "ops": [{"op": "pop"}]}]})"));
    const auto after = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(after.snapshot.generation, 1u);
    EXPECT_EQ(after.snapshot.network, reverifier.network());
    EXPECT_TRUE(after.snapshot.network->labels.find(LabelType::MplsBos, "fresh").has_value());
    EXPECT_EQ(reverifier.snapshot().generation, 1u);
}

TEST(Reverifier, EffectsWindowOverflowForcesRebuild) {
    Reverifier reverifier(std::make_shared<const Network>(synthesis::make_figure1_network()));
    const cli::VerifySpec spec;
    ASSERT_EQ(reverifier.verify(k_fig1_yes, spec).path, VerifyPath::Cold);
    // Push the session's base generation out of the effects window; the
    // pending-delta summary is gone, so the session must rebuild.
    const auto bump = parse_delta(R"({"operations": [
        {"op": "set-distance", "router": "v0", "interface": "e2", "distance": 2}]})");
    const auto reset = parse_delta(R"({"operations": [
        {"op": "set-distance", "router": "v0", "interface": "e2", "distance": 1}]})");
    for (int i = 0; i < 600; ++i) {
        reverifier.apply(bump);
        reverifier.apply(reset);
    }
    const auto outcome = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(outcome.path, VerifyPath::Cold);
    EXPECT_EQ(outcome.result.answer, verify::Answer::Yes);
}

TEST(Reverifier, LinkDownRoundTripRestoresTheAnswer) {
    Reverifier reverifier(std::make_shared<const Network>(synthesis::make_figure1_network()));
    const cli::VerifySpec spec;
    const auto before = reverifier.verify(k_fig1_yes, spec);
    const auto before_bytes = canonical(*reverifier.network(), k_fig1_yes, before.result);

    // e1 is on the 0-failure witness; with it down the query must re-route
    // (still yes via e2) — and the answer must match a cold verification of
    // the downed snapshot byte for byte.
    reverifier.apply(parse_delta(R"({"operations": [
        {"op": "link-state", "router": "v0", "interface": "e1", "up": false}]})"));
    const auto down = reverifier.verify(k_fig1_yes, spec);
    const auto snapshot = reverifier.network();
    const auto query = query::parse_query(k_fig1_yes, *snapshot);
    WeightExpr weights;
    const auto options = cli::make_verify_options(spec, weights);
    const auto oracle = verify::verify(*snapshot, query, options);
    EXPECT_EQ(canonical(*snapshot, k_fig1_yes, down.result),
              canonical(*snapshot, k_fig1_yes, oracle));

    reverifier.apply(parse_delta(R"({"operations": [
        {"op": "link-state", "router": "v0", "interface": "e1", "up": true}]})"));
    const auto after = reverifier.verify(k_fig1_yes, spec);
    EXPECT_EQ(canonical(*reverifier.network(), k_fig1_yes, after.result), before_bytes);
}

/// A demanded label with no routing entry is still a claim, and adding the
/// entry must re-arm it.  `<s10 ip>` starts on e0, where v0 has no entry
/// for 10: post* asks for that one label, gets no rules, and answers no.
/// The add-rule creates entry (e0, 10); the warm re-verify must demand the
/// label again and match a cold verification of the snapshot byte for byte.
TEST(Reverifier, AddedEntryReArmsAnEmptyClaim) {
    constexpr const char* query_text = "<s10 ip> [.#v0] .* [v3#.] <ip> 0";
    Reverifier reverifier(std::make_shared<const Network>(synthesis::make_figure1_network()));
    const cli::VerifySpec spec;
    const auto before = reverifier.verify(query_text, spec);
    ASSERT_EQ(before.path, VerifyPath::Cold);
    EXPECT_EQ(before.result.answer, verify::Answer::No);

    reverifier.apply(parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v0", "from": "e0", "label": "10", "type": "smpls",
         "to": "e2"}]})"));
    const auto warm = reverifier.verify(query_text, spec);
    EXPECT_EQ(warm.path, VerifyPath::Warm);
    EXPECT_EQ(warm.result.answer, verify::Answer::Yes);
    const auto snapshot = reverifier.network();
    const auto query = query::parse_query(query_text, *snapshot);
    WeightExpr weights;
    const auto oracle =
        verify::verify(*snapshot, query, cli::make_verify_options(spec, weights));
    EXPECT_EQ(canonical(*snapshot, query_text, warm.result),
              canonical(*snapshot, query_text, oracle));
}

/// PATCH re-answers and sweep cells decide through the same Session: one
/// link-down applied as a PATCH and as a one-failure sweep scenario after
/// the baseline takes the same tier and gives the same answer, warm for a
/// link on the query's footprint (v0.e1) and reused for one off it (v4.e6).
TEST(Reverifier, AgreesWithASweepCell) {
    const auto base = std::make_shared<const Network>(synthesis::make_figure1_network());
    struct Case {
        LinkSite link;
        VerifyPath tier;
    };
    for (const auto& [link, tier] :
         {Case{{"v0", "e1"}, VerifyPath::Warm}, Case{{"v4", "e6"}, VerifyPath::Reused}}) {
        SCOPED_TRACE(link.router + "." + link.interface);
        Reverifier reverifier(base);
        ASSERT_EQ(reverifier.verify(k_fig1_yes, {}).path, VerifyPath::Cold);
        reverifier.apply(NetworkDelta{{link_state_op(link, false)}});
        const auto patched = reverifier.verify(k_fig1_yes, {});

        verify::SweepSpec spec;
        spec.query_template = k_fig1_yes;
        spec.scenarios = {{"baseline", {}}, {"down", {{link.router, link.interface}}}};
        const auto sweep = verify::run_sweep(*base, spec, {}, 1);
        ASSERT_EQ(sweep.cells.size(), 2u);
        const auto& cell = sweep.cells[1];
        ASSERT_TRUE(cell.error.empty()) << cell.error;
        EXPECT_EQ(patched.path, tier);
        EXPECT_EQ(cell.path, tier);
        const auto& snapshot = *reverifier.network();
        EXPECT_EQ(canonical(snapshot, k_fig1_yes, cell.result),
                  canonical(snapshot, k_fig1_yes, patched.result));
    }
}

// ---- translation rebase ------------------------------------------------

/// A rebase adds no PDA state: chains it re-arms create their interiors
/// when they materialize again.  The 1-failure query materializes v2's in1
/// entry for label 20, whose priority-2 rule is a two-op chain; the delta
/// adds a second two-op chain to the same entry.  After re-saturating, the
/// rebased translation answers like a cold one over the patched snapshot.
TEST(TranslationRebase, AddsNoPdaState) {
    constexpr const char* query_text = "<ip> [.#v0] .* [v3#.] <ip> 1";
    const auto base = synthesis::make_figure1_network();
    const auto query = query::parse_query(query_text, base);
    const auto in1 = *base.topology.in_link_through(*base.topology.find_router("v2"), "in1");
    verify::TranslationCache cache(base, query, nullptr, /*lazy=*/true);
    auto& translation = cache.translation(verify::Approximation::Over);
    const auto control_states =
        cache.nfas().path.size() * base.topology.link_count(); // one failure slot
    auto before = translation.make_initial_automaton();
    pda::post_star(before);
    verify::LinkFootprint footprint;
    translation.add_to_footprint(footprint);
    ASSERT_TRUE(footprint.materialized[in1]);
    const auto states = translation.pda().state_count();
    ASSERT_GT(states, control_states); // the chain's interiors exist

    const auto applied = apply_delta(base, parse_delta(R"({"operations": [
        {"op": "add-rule", "router": "v2", "from": "in1", "label": "20", "type": "smpls",
         "to": "e5", "ops": [{"op": "swap", "label": "21", "type": "smpls"},
                             {"op": "push", "label": "30"}]}]})"));
    ASSERT_EQ(applied.effects.entry_links, std::vector<LinkId>{in1});
    std::vector<bool> dirty(base.topology.link_count(), false);
    dirty[in1] = true;
    cache.rebase(*applied.network, dirty, {});
    EXPECT_EQ(translation.pda().state_count(), states);

    const auto accepted = [&](verify::Translation& t) {
        auto aut = t.make_initial_automaton();
        pda::post_star(aut);
        return pda::find_accepted(aut, t.accepting_states(), t.final_header_nfa(),
                                  static_cast<pda::Symbol>(applied.network->labels.size()));
    };
    const auto rebased = accepted(translation);
    verify::TranslationCache cold_cache(*applied.network, query, nullptr, /*lazy=*/true);
    const auto cold = accepted(cold_cache.translation(verify::Approximation::Over));
    ASSERT_TRUE(rebased.has_value() && cold.has_value());
    EXPECT_EQ(rebased->weight, cold->weight);
}

// ---- delta ≡ cold-recompile equivalence batteries --------------------

/// Run `iterations` random deltas (rule toggles, link flips, distance
/// changes) through a Reverifier and assert byte-identical canonical
/// results against a cold verification of every snapshot.  Returns the
/// tier mix for the caller's sanity assertions.
struct BatteryOutcome {
    std::size_t reused = 0, warm = 0, cold = 0;
};

/// Pin the tier mix of a default-length battery (AALWINES_DELTA_BATTERY
/// unset), so a change to the reuse decision cannot pass unnoticed.
void expect_default_mix(const BatteryOutcome& outcome, std::size_t reused, std::size_t warm,
                        std::size_t cold) {
    if (std::getenv("AALWINES_DELTA_BATTERY") != nullptr) return;
    EXPECT_EQ(outcome.reused, reused);
    EXPECT_EQ(outcome.warm, warm);
    EXPECT_EQ(outcome.cold, cold);
}

void run_battery(const Network& base, const std::string& query_text,
                 const cli::VerifySpec& spec, std::size_t iterations,
                 std::uint32_t seed, BatteryOutcome& outcome) {
    Reverifier reverifier(std::make_shared<const Network>(base));
    (void)reverifier.verify(query_text, spec);

    const auto sites = collect_sites(base);
    const auto links = collect_links(base);
    const auto query = query::parse_query(query_text, base);
    WeightExpr oracle_weights;
    const auto oracle_options = cli::make_verify_options(spec, oracle_weights);

    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> pick_site(0, sites.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_link(0, links.size() - 1);
    std::uniform_int_distribution<int> pick_kind(0, 3);
    std::vector<char> rule_removed(sites.size(), 0);
    std::vector<char> link_down(links.size(), 0);
    std::vector<char> link_far(links.size(), 0);

    for (std::size_t i = 0; i < iterations; ++i) {
        NetworkDelta delta;
        switch (pick_kind(rng)) {
            case 0:
            case 1: { // rule toggle (the most common operator edit)
                const auto index = pick_site(rng);
                delta.ops.push_back(rule_removed[index] ? sites[index].add
                                                        : sites[index].remove);
                rule_removed[index] ^= 1;
                break;
            }
            case 2: { // link flip
                const auto index = pick_link(rng);
                delta.ops.push_back(link_state_op(links[index], link_down[index]));
                link_down[index] ^= 1;
                break;
            }
            default: { // distance toggle
                const auto index = pick_link(rng);
                delta.ops.push_back(distance_op(links[index], link_far[index] ? 1 : 50));
                link_far[index] ^= 1;
                break;
            }
        }
        reverifier.apply(delta);
        const auto verified = reverifier.verify(query_text, spec);
        switch (verified.path) {
            case VerifyPath::Reused: ++outcome.reused; break;
            case VerifyPath::Warm: ++outcome.warm; break;
            case VerifyPath::Cold: ++outcome.cold; break;
        }
        const auto snapshot = reverifier.network();
        const auto oracle = verify::verify(*snapshot, query, oracle_options);
        ASSERT_EQ(canonical(*snapshot, query_text, verified.result),
                  canonical(*snapshot, query_text, oracle))
            << "delta battery diverged from cold recompile at iteration " << i;
    }
}

TEST(DeltaBattery, Figure1Equivalence) {
    const auto base = synthesis::make_figure1_network();
    BatteryOutcome outcome;
    run_battery(base, k_fig1_yes, cli::VerifySpec{}, 60 * battery_scale(), 0xf19u, outcome);
    // Both incremental tiers must actually be exercised by the battery.
    EXPECT_GT(outcome.reused, 0u);
    EXPECT_GT(outcome.warm, 0u);
    expect_default_mix(outcome, 41, 19, 0);
}

TEST(DeltaBattery, Figure1WeightedEquivalence) {
    const auto base = synthesis::make_figure1_network();
    cli::VerifySpec spec;
    spec.engine = "weighted";
    spec.weight = "distance, hops";
    BatteryOutcome outcome;
    run_battery(base, "<smpls? ip> [.#v0] .* [v3#.] <smpls? ip> 1", spec,
                40 * battery_scale(), 0xd157u, outcome);
    EXPECT_GT(outcome.reused + outcome.warm, 0u);
    expect_default_mix(outcome, 27, 13, 0);
}

TEST(DeltaBattery, NordunetEquivalence) {
    const auto net = synthesis::make_nordunet_like(40, 1);
    const auto queries = synthesis::make_table1_queries(net);
    ASSERT_FALSE(queries.empty());
    BatteryOutcome outcome;
    run_battery(net.network, queries[0], cli::VerifySpec{}, 30 * battery_scale(), 0x40du,
                outcome);
    EXPECT_GT(outcome.reused + outcome.warm, 0u);
    expect_default_mix(outcome, 21, 9, 0);
}

} // namespace
} // namespace aalwines::delta
