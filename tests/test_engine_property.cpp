// Property tests: the dual engine against an exhaustive reference that
// enumerates failure sets explicitly (the semantics of Definition 4 and
// Problem 1), on small random networks.

#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <set>

#include <functional>

#include "model/quantity.hpp"
#include "model/simulator.hpp"
#include "nfa/nfa.hpp"
#include "verify/engine.hpp"

namespace aalwines::verify {
namespace {

/// Random small network: `routers` routers in a ring plus random chords,
/// random per-(link,label) rules with ops valid on the expected stratum.
Network random_network(std::mt19937_64& rng, std::size_t routers) {
    Network net;
    net.name = "random";
    auto& topology = net.topology;
    for (std::size_t i = 0; i < routers; ++i) topology.add_router("r" + std::to_string(i));
    std::size_t iface = 0;
    auto duplex = [&](RouterId a, RouterId b) {
        const auto name_a = "i" + std::to_string(iface++);
        const auto name_b = "i" + std::to_string(iface++);
        topology.add_duplex(a, name_a, b, name_b);
    };
    for (std::size_t i = 0; i < routers; ++i)
        duplex(static_cast<RouterId>(i), static_cast<RouterId>((i + 1) % routers));
    for (std::size_t i = 0; i < routers / 2; ++i) {
        const auto a = static_cast<RouterId>(rng() % routers);
        const auto b = static_cast<RouterId>(rng() % routers);
        if (a != b) duplex(a, b);
    }

    auto& labels = net.labels;
    const auto ip = labels.add(LabelType::Ip, "ip0");
    const std::vector<Label> bos{labels.add(LabelType::MplsBos, "b0"),
                                 labels.add(LabelType::MplsBos, "b1")};
    const std::vector<Label> mpls{labels.add(LabelType::Mpls, "m0"),
                                  labels.add(LabelType::Mpls, "m1")};
    std::vector<Label> all{ip, bos[0], bos[1], mpls[0], mpls[1]};

    auto random_ops = [&](Label top) {
        std::vector<Op> ops;
        const auto type = labels.type_of(top);
        switch (rng() % 5) {
            case 0: break; // ε
            case 1:        // swap within stratum
                if (type == LabelType::MplsBos) ops.push_back(Op::swap(bos[rng() % 2]));
                else if (type == LabelType::Mpls) ops.push_back(Op::swap(mpls[rng() % 2]));
                break;
            case 2: // push valid on stratum
                if (type == LabelType::Ip) ops.push_back(Op::push(bos[rng() % 2]));
                else ops.push_back(Op::push(mpls[rng() % 2]));
                break;
            case 3: // pop when possible
                if (type != LabelType::Ip) ops.push_back(Op::pop());
                break;
            default: // swap o push
                if (type == LabelType::MplsBos) {
                    ops.push_back(Op::swap(bos[rng() % 2]));
                    ops.push_back(Op::push(mpls[rng() % 2]));
                }
                break;
        }
        return ops;
    };

    auto& routing = net.routing;
    for (const auto& link : topology.links()) {
        for (const auto label : all) {
            if (rng() % 3 != 0) continue; // sparse tables
            const auto at = link.target;
            const auto& outs = topology.out_links(at);
            const auto groups = 1 + rng() % 2;
            for (std::uint32_t g = 1; g <= groups; ++g) {
                const auto out = outs[rng() % outs.size()];
                routing.add_rule(link.id, label, g, out, random_ops(label));
            }
        }
    }
    routing.validate(topology);
    return net;
}

/// Exhaustive reference: enumerate failure sets F with |F| <= k; under each
/// F, search (link, header, path-state) products breadth-first with bounded
/// header depth and step count.
bool reference_satisfiable(const Network& net, const query::Query& query,
                           std::size_t max_steps = 10, std::size_t max_depth = 4) {
    const auto domain = static_cast<nfa::Symbol>(net.labels.size());
    const auto nfa_a = nfa::Nfa::compile(query.initial_header);
    const auto nfa_b = nfa::Nfa::compile(query.path);
    const auto nfa_c = nfa::Nfa::compile(query.final_header);

    // Initial headers: enumerate valid headers up to max_depth accepted by a.
    std::vector<Header> initial_headers;
    {
        std::vector<Header> partial;
        for (const auto ip : net.labels.of_type(LabelType::Ip)) partial.push_back({ip});
        for (auto& h : partial) {
            initial_headers.push_back(h);
            for (const auto b : net.labels.of_type(LabelType::MplsBos)) {
                Header with_bos = h;
                with_bos.push_back(b);
                initial_headers.push_back(with_bos);
                Header grow = with_bos;
                while (grow.size() < max_depth) {
                    for (const auto m : net.labels.of_type(LabelType::Mpls)) {
                        Header next = grow;
                        next.push_back(m);
                        initial_headers.push_back(next);
                    }
                    grow.push_back(net.labels.of_type(LabelType::Mpls)[0]);
                }
            }
        }
    }
    auto accepts_header = [&](const nfa::Nfa& nfa, const Header& header) {
        std::vector<nfa::Symbol> word(header.rbegin(), header.rend()); // top first
        return nfa.accepts(word);
    };

    // Enumerate failure sets.
    const auto link_count = net.topology.link_count();
    std::vector<std::vector<LinkId>> failure_sets{{}};
    if (query.max_failures >= 1)
        for (LinkId e = 0; e < link_count; ++e) failure_sets.push_back({e});
    if (query.max_failures >= 2)
        for (LinkId e = 0; e < link_count; ++e)
            for (LinkId f = e + 1; f < link_count; ++f) failure_sets.push_back({e, f});

    for (const auto& failed_links : failure_sets) {
        std::set<LinkId> failed(failed_links.begin(), failed_links.end());
        struct State {
            LinkId link;
            Header header;
            std::set<nfa::Nfa::StateId> path_states;
            std::size_t steps;
            bool operator<(const State& other) const {
                return std::tie(link, header, path_states, steps) <
                       std::tie(other.link, other.header, other.path_states, other.steps);
            }
        };
        std::deque<State> queue;
        std::set<std::tuple<LinkId, Header, std::set<nfa::Nfa::StateId>>> seen;
        auto path_accepting = [&](const std::set<nfa::Nfa::StateId>& states) {
            for (const auto s : states)
                if (nfa_b.states()[s].accepting) return true;
            return false;
        };
        auto step_path = [&](const std::set<nfa::Nfa::StateId>& states, LinkId link) {
            std::set<nfa::Nfa::StateId> next;
            for (const auto s : states)
                for (const auto& edge : nfa_b.states()[s].edges)
                    if (edge.symbols.contains(link)) next.insert(edge.target);
            return next;
        };
        (void)domain;

        for (LinkId e1 = 0; e1 < link_count; ++e1) {
            if (failed.contains(e1)) continue;
            const auto q1 = step_path(
                {nfa_b.initial().begin(), nfa_b.initial().end()}, e1);
            if (q1.empty()) continue;
            for (const auto& h1 : initial_headers) {
                if (!accepts_header(nfa_a, h1)) continue;
                State state{e1, h1, q1, 0};
                if (seen.emplace(e1, h1, q1).second) queue.push_back(std::move(state));
            }
        }
        while (!queue.empty()) {
            auto state = queue.front();
            queue.pop_front();
            if (path_accepting(state.path_states) && accepts_header(nfa_c, state.header))
                return true;
            if (state.steps >= max_steps) continue;
            const auto* groups = net.routing.entry(state.link, state.header.back());
            if (groups == nullptr) continue;
            // First active group under F.
            for (const auto& group : *groups) {
                bool any_active = false;
                for (const auto& rule : group) {
                    if (failed.contains(rule.out_link)) continue;
                    any_active = true;
                    auto next_header = apply_ops(net.labels, state.header, rule.ops);
                    if (!next_header || next_header->size() > max_depth) continue;
                    const auto next_states = step_path(state.path_states, rule.out_link);
                    if (next_states.empty()) continue;
                    if (seen.emplace(rule.out_link, *next_header, next_states).second)
                        queue.push_back({rule.out_link, std::move(*next_header),
                                         next_states, state.steps + 1});
                }
                if (any_active) break; // only the first active group forwards
            }
        }
    }
    return false;
}

/// Exhaustive minimum (Problem 2 reference): enumerate every witness trace
/// (bounded steps/header depth) under every failure set |F| <= k, evaluate
/// the weight vector on each, and return the lexicographic minimum.
std::optional<std::vector<std::uint64_t>> reference_minimum(
    const Network& net, const query::Query& query, const WeightExpr& weights,
    std::size_t max_steps = 8, std::size_t max_depth = 4) {
    const auto nfa_a = nfa::Nfa::compile(query.initial_header);
    const auto nfa_b = nfa::Nfa::compile(query.path);
    const auto nfa_c = nfa::Nfa::compile(query.final_header);
    auto accepts_header = [&](const nfa::Nfa& nfa, const Header& header) {
        std::vector<nfa::Symbol> word(header.rbegin(), header.rend());
        return nfa.accepts(word);
    };

    std::vector<Header> initial_headers;
    for (const auto ip : net.labels.of_type(LabelType::Ip)) {
        initial_headers.push_back({ip});
        for (const auto b : net.labels.of_type(LabelType::MplsBos)) {
            Header h{ip, b};
            initial_headers.push_back(h);
            for (const auto m : net.labels.of_type(LabelType::Mpls)) {
                Header h2 = h;
                h2.push_back(m);
                initial_headers.push_back(h2);
            }
        }
    }

    const auto link_count = net.topology.link_count();
    std::vector<std::vector<LinkId>> failure_sets{{}};
    if (query.max_failures >= 1)
        for (LinkId e = 0; e < link_count; ++e) failure_sets.push_back({e});

    std::optional<std::vector<std::uint64_t>> best;
    auto consider = [&](const Trace& trace) {
        const auto value = evaluate(net, trace, weights);
        if (!best || value < *best) best = value;
    };

    // DFS over traces (not just states): weights depend on the whole trace.
    for (const auto& failed_links : failure_sets) {
        std::set<LinkId> failed(failed_links.begin(), failed_links.end());
        Simulator simulator(net, FailureSet(failed.begin(), failed.end()));
        std::function<void(Trace&, std::set<nfa::Nfa::StateId>)> extend =
            [&](Trace& trace, std::set<nfa::Nfa::StateId> states) {
                bool accepting = false;
                for (const auto s : states)
                    if (nfa_b.states()[s].accepting) accepting = true;
                if (accepting && accepts_header(nfa_c, trace.entries.back().header)) {
                    // A candidate witness; it must also be globally feasible.
                    if (check_feasibility(net, trace, query.max_failures).feasible)
                        consider(trace);
                }
                if (trace.size() >= max_steps) return;
                for (const auto& rule :
                     simulator.active_choices(trace.entries.back().link,
                                              trace.entries.back().header)) {
                    auto next = simulator.step(trace.entries.back(), rule);
                    if (!next || next->header.size() > max_depth) continue;
                    std::set<nfa::Nfa::StateId> next_states;
                    for (const auto s : states)
                        for (const auto& edge : nfa_b.states()[s].edges)
                            if (edge.symbols.contains(rule.out_link))
                                next_states.insert(edge.target);
                    if (next_states.empty()) continue;
                    trace.entries.push_back(std::move(*next));
                    extend(trace, std::move(next_states));
                    trace.entries.pop_back();
                }
            };
        for (LinkId e1 = 0; e1 < link_count; ++e1) {
            if (failed.contains(e1)) continue;
            std::set<nfa::Nfa::StateId> q1;
            for (const auto q0 : nfa_b.initial())
                for (const auto& edge : nfa_b.states()[q0].edges)
                    if (edge.symbols.contains(e1)) q1.insert(edge.target);
            if (q1.empty()) continue;
            for (const auto& h1 : initial_headers) {
                if (!accepts_header(nfa_a, h1)) continue;
                Trace trace{{{e1, h1}}};
                extend(trace, q1);
            }
        }
    }
    return best;
}

class EngineRandom : public ::testing::TestWithParam<int> {};

/// Problem 2: the weighted engine returns the lexicographic minimum over
/// all witnesses, matched against exhaustive enumeration.
TEST_P(EngineRandom, WeightedEngineFindsTheMinimumWitness) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7907 + 23);
    const auto net = random_network(rng, 4);
    const auto weights = parse_weight_expression("links, tunnels + 2*failures");

    const std::vector<std::string> shapes = {
        "<ip> .* <ip> K",
        "<smpls ip> .* <(mpls* smpls)? ip> K",
        "<ip> [.#r0] .* [.#r2] <ip> K",
    };
    for (const auto& shape : shapes) {
        for (const std::uint64_t k : {0, 1}) {
            auto text = shape;
            text.replace(text.find('K'), 1, std::to_string(k));
            const auto query = query::parse_query(text, net);
            const auto reference = reference_minimum(net, query, weights);
            if (!reference) continue; // no bounded witness: nothing to compare

            verify::VerifyOptions options;
            options.engine = verify::EngineKind::Weighted;
            options.weights = &weights;
            const auto result = verify::verify(net, query, options);
            ASSERT_EQ(result.answer, Answer::Yes)
                << "seed " << GetParam() << " query " << text;
            // The engine may know an even cheaper witness beyond the
            // enumeration bound, never a more expensive one.
            EXPECT_LE(result.weight, *reference)
                << "seed " << GetParam() << " query " << text;
            ASSERT_TRUE(result.trace.has_value());
            // And its witness must evaluate to exactly the reported weight.
            EXPECT_EQ(evaluate(net, *result.trace, weights), result.weight) << text;
        }
    }
}

TEST_P(EngineRandom, DualEngineAgreesWithExhaustiveReference) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
    const auto net = random_network(rng, 4 + rng() % 2);

    const std::vector<std::string> shapes = {
        "<ip> .* <ip> K",
        "<smpls ip> .* <smpls ip> K",
        "<ip> [.#r0] .* [.#r2] <ip> K",
        "<smpls? ip> .* <. smpls ip> K",
        "<ip> [.#r1] .* [.#r3] <(mpls* smpls)? ip> K",
    };
    for (const auto& shape : shapes) {
        for (const std::uint64_t k : {0, 1}) {
            auto text = shape;
            text.replace(text.find('K'), 1, std::to_string(k));
            const auto query = query::parse_query(text, net);
            const bool reference = reference_satisfiable(net, query);
            const auto result = verify(net, query, {});

            if (result.answer == Answer::No) {
                EXPECT_FALSE(reference)
                    << "seed " << GetParam() << ": engine says NO but reference "
                    << "found a witness for " << text;
            }
            if (reference) {
                EXPECT_NE(result.answer, Answer::No)
                    << "seed " << GetParam() << " query " << text;
            }
            if (result.answer == Answer::Yes) {
                ASSERT_TRUE(result.trace.has_value()) << text;
                const auto feasibility =
                    check_feasibility(net, *result.trace, query.max_failures);
                EXPECT_TRUE(feasibility.feasible)
                    << "seed " << GetParam() << " query " << text << ": "
                    << feasibility.reason;
                // The witness must also match the query's languages.
                const auto nfa_a = nfa::Nfa::compile(query.initial_header);
                const auto nfa_b = nfa::Nfa::compile(query.path);
                const auto nfa_c = nfa::Nfa::compile(query.final_header);
                std::vector<nfa::Symbol> links;
                for (const auto& entry : result.trace->entries)
                    links.push_back(entry.link);
                EXPECT_TRUE(nfa_b.accepts(links)) << text;
                const auto& first = result.trace->entries.front().header;
                const auto& last = result.trace->entries.back().header;
                EXPECT_TRUE(nfa_a.accepts(
                    std::vector<nfa::Symbol>(first.rbegin(), first.rend())))
                    << text;
                EXPECT_TRUE(nfa_c.accepts(
                    std::vector<nfa::Symbol>(last.rbegin(), last.rend())))
                    << text;
            }

            // Moped must reach the same conclusive verdicts.
            VerifyOptions moped;
            moped.engine = EngineKind::Moped;
            const auto moped_result = verify(net, query, moped);
            EXPECT_EQ(result.answer == Answer::No, moped_result.answer == Answer::No)
                << "seed " << GetParam() << " query " << text;
            if (result.answer == Answer::Yes && moped_result.answer == Answer::Yes &&
                moped_result.trace) {
                EXPECT_TRUE(
                    check_feasibility(net, *moped_result.trace, query.max_failures)
                        .feasible)
                    << text;
            }
        }
    }
}

/// The exact engine is conclusive and must dominate the bounded reference:
/// whatever the reference finds, exact confirms; whatever exact denies, the
/// reference must not find.
TEST_P(EngineRandom, ExactEngineMatchesExhaustiveReference) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
    const auto net = random_network(rng, 4);
    const std::vector<std::string> shapes = {
        "<ip> .* <ip> K",
        "<smpls ip> [.#r0] .* [.#r2] <(mpls* smpls)? ip> K",
    };
    for (const auto& shape : shapes) {
        for (const std::uint64_t k : {0, 1}) {
            auto text = shape;
            text.replace(text.find('K'), 1, std::to_string(k));
            const auto query = query::parse_query(text, net);
            const bool reference = reference_satisfiable(net, query);
            VerifyOptions options;
            options.engine = EngineKind::Exact;
            const auto exact = verify(net, query, options);
            ASSERT_NE(exact.answer, Answer::Inconclusive) << text;
            if (reference) {
                EXPECT_EQ(exact.answer, Answer::Yes)
                    << "seed " << GetParam() << " query " << text;
            }
            if (exact.answer == Answer::No) {
                EXPECT_FALSE(reference) << "seed " << GetParam() << " query " << text;
            }
            if (exact.answer == Answer::Yes) {
                ASSERT_TRUE(exact.trace.has_value()) << text;
                EXPECT_TRUE(
                    check_feasibility(net, *exact.trace, query.max_failures).feasible)
                    << text;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandom, ::testing::Range(0, 12));

} // namespace
} // namespace aalwines::verify
