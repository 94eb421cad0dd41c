// Property tests cross-validating the saturation solvers against a
// brute-force configuration-space explorer and against each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "pda_test_util.hpp"

namespace aalwines::pda {
namespace {

using testutil::any_stack;
using testutil::automaton_for_configs;
using testutil::brute_force_reachable;
using testutil::Config;
using testutil::exact_word;
using testutil::random_pda;

class PdaRandom : public ::testing::TestWithParam<int> {};

/// post* soundness & completeness (up to the brute-force bound): every
/// brute-force-reachable configuration is accepted, and the witness for any
/// accepted target configuration replays to that configuration.
TEST_P(PdaRandom, PostStarMatchesBruteForce) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 4, alphabet, 8, false);
    const std::vector<Config> initial{{0, {0, 1}}};

    auto aut = automaton_for_configs(pda, initial);
    post_star(aut);
    const auto reachable = brute_force_reachable(pda, initial, 48, 5);

    for (const auto& [state, stack] : reachable) {
        const StateId starts[] = {state};
        const auto accepted = find_accepted(aut, starts, exact_word(stack), alphabet);
        EXPECT_TRUE(accepted.has_value())
            << "seed " << GetParam() << ": post* misses a reachable config at state "
            << state << " stack depth " << stack.size();
        if (!accepted) continue;
        const auto witness = unroll_post_star(aut, *accepted);
        ASSERT_TRUE(witness.has_value()) << "seed " << GetParam();
        const auto replay = replay_witness(pda, *witness);
        ASSERT_TRUE(replay.has_value()) << "seed " << GetParam() << ": witness invalid";
        EXPECT_EQ(replay->back().first, state);
        EXPECT_EQ(replay->back().second, stack);
        // The witness must start from a declared initial configuration.
        const Config start{witness->initial_state, witness->initial_stack};
        EXPECT_TRUE(std::find(initial.begin(), initial.end(), start) != initial.end());
    }
}

/// pre* agrees with post* on satisfiability: post*(I) ∩ F ≠ ∅ iff
/// I ∩ pre*(F) ≠ ∅, for random instances and fixed target configs.
TEST_P(PdaRandom, PreStarAgreesWithPostStar) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 4, alphabet, 9, false);
    const std::vector<Config> initial{{0, {1, 0}}};

    auto fwd = automaton_for_configs(pda, initial);
    post_star(fwd);

    // Try a panel of target configurations.
    const std::vector<Config> targets{
        {1, {0}}, {2, {1, 0}}, {3, {2, 2, 0}}, {1, {2}}, {0, {0, 0}},
    };
    for (const auto& target : targets) {
        const StateId fwd_starts[] = {target.first};
        const bool post_sat =
            find_accepted(fwd, fwd_starts, exact_word(target.second), alphabet)
                .has_value();

        auto bwd = automaton_for_configs(pda, {target});
        pre_star(bwd);
        const StateId bwd_starts[] = {initial[0].first};
        const bool pre_sat =
            find_accepted(bwd, bwd_starts, exact_word(initial[0].second), alphabet)
                .has_value();
        EXPECT_EQ(post_sat, pre_sat)
            << "seed " << GetParam() << " target state " << target.first;
    }
}

/// Weighted post*: the reported minimum equals a Dijkstra over the concrete
/// (bounded) configuration graph when the optimum lies within the bound.
TEST_P(PdaRandom, WeightedPostStarFindsMinimum) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 1);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 4, alphabet, 8, true);
    const std::vector<Config> initial{{0, {0, 1}}};

    // Brute-force Dijkstra over configurations (stack depth <= 5).
    std::map<Config, std::uint64_t> dist;
    using Item = std::pair<std::uint64_t, Config>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[initial[0]] = 0;
    queue.push({0, initial[0]});
    while (!queue.empty()) {
        auto [d, config] = queue.top();
        queue.pop();
        if (dist.at(config) != d || config.second.empty()) continue;
        const auto top = config.second.front();
        pda.for_each_applicable(config.first, top, [&](RuleId rule_id,
                                                       const nfa::SymbolSet&) {
            const auto& rule = pda.rule(rule_id);
            Config next;
            next.first = rule.to;
            switch (rule.op) {
                case Rule::OpKind::Pop:
                    next.second.assign(config.second.begin() + 1, config.second.end());
                    break;
                case Rule::OpKind::Swap:
                    next.second = config.second;
                    next.second.front() = rule.label1;
                    break;
                case Rule::OpKind::Push: {
                    const auto below = rule.label2 == k_same_symbol ? top : rule.label2;
                    next.second = std::vector<Symbol>{rule.label1, below};
                    next.second.insert(next.second.end(), config.second.begin() + 1,
                                       config.second.end());
                    break;
                }
            }
            if (next.second.size() > 5) return;
            const auto nd = d + rule.weight.components().front();
            auto it = dist.find(next);
            if (it == dist.end() || nd < it->second) {
                dist[next] = nd;
                queue.push({nd, next});
            }
        });
    }

    auto aut = automaton_for_configs(pda, initial);
    post_star(aut);

    for (const auto& [config, d] : dist) {
        const StateId starts[] = {config.first};
        const auto accepted =
            find_accepted(aut, starts, exact_word(config.second), alphabet);
        ASSERT_TRUE(accepted.has_value()) << "seed " << GetParam();
        const std::uint64_t reported = accepted->weight.is_one()
                                           ? 0
                                           : accepted->weight.components().front();
        // post* explores unbounded stacks, so it may know a cheaper route
        // that the depth-bounded Dijkstra missed — never a more expensive one.
        EXPECT_LE(reported, d) << "seed " << GetParam();
        // And the witness must replay with exactly the reported weight.
        const auto witness = unroll_post_star(aut, *accepted);
        ASSERT_TRUE(witness.has_value());
        std::uint64_t replayed = 0;
        for (const auto rule_id : witness->rules) {
            const auto& w = pda.rule(rule_id).weight;
            replayed += w.is_one() ? 0 : w.components().front();
        }
        EXPECT_EQ(replayed, reported) << "seed " << GetParam();
    }
}

/// The direct (fully concrete) encoding accepts exactly the same
/// configurations as the symbolic PDA.
TEST_P(PdaRandom, ConcreteExpansionPreservesReachability) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 193939 + 7);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 4, alphabet, 8, false);
    const auto expanded = pda.expand_concrete();

    // Expansion eliminates every symbolic left-hand side and "same" push.
    for (const auto& rule : expanded.rules()) {
        EXPECT_EQ(rule.pre.kind, PreSpec::Kind::Concrete);
        EXPECT_NE(rule.label2, k_same_symbol);
    }

    const std::vector<Config> initial{{0, {0, 1}}};
    EXPECT_EQ(brute_force_reachable(pda, initial, 40, 5),
              brute_force_reachable(expanded, initial, 40, 5))
        << "seed " << GetParam();

    // And post* over both answers identically on a panel of targets.
    auto symbolic_aut = automaton_for_configs(pda, initial);
    post_star(symbolic_aut);
    auto concrete_aut = automaton_for_configs(expanded, initial);
    post_star(concrete_aut);
    const std::vector<Config> targets{{1, {0}}, {2, {1, 0}}, {3, {2, 2, 0}}, {0, {2}}};
    for (const auto& target : targets) {
        const StateId starts[] = {target.first};
        EXPECT_EQ(
            find_accepted(symbolic_aut, starts, exact_word(target.second), alphabet)
                .has_value(),
            find_accepted(concrete_aut, starts, exact_word(target.second), alphabet)
                .has_value())
            << "seed " << GetParam() << " target " << target.first;
    }
}

/// The bucket queue and the binary heap finalize items in the identical
/// (weight, insertion) order, so saturating with either worklist must yield
/// the same automaton shape, the same minimal weights, and the same
/// equal-weight enumeration order — for post* and pre* alike.
TEST_P(PdaRandom, BucketAndHeapWorklistsAgree) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 48611 + 3);
    const Symbol alphabet = 3;
    const auto pda = random_pda(rng, 4, alphabet, 9, true);
    ASSERT_TRUE(pda.all_weights_scalar());
    const std::vector<Config> initial{{0, {0, 1}}};

    const auto saturate = [&](Worklist worklist, bool pre) {
        auto aut = automaton_for_configs(pda, initial);
        SolverOptions options;
        options.worklist = worklist;
        const auto stats = pre ? pre_star(aut, options) : post_star(aut, options);
        return std::make_pair(std::move(aut), stats);
    };

    for (const bool pre : {false, true}) {
        auto [heap_aut, heap_stats] = saturate(Worklist::Heap, pre);
        auto [bucket_aut, bucket_stats] = saturate(Worklist::Auto, pre); // scalar: bucket
        EXPECT_FALSE(heap_stats.bucket_worklist);
        EXPECT_TRUE(bucket_stats.bucket_worklist) << "seed " << GetParam();
        EXPECT_EQ(heap_stats.iterations, bucket_stats.iterations)
            << "seed " << GetParam() << (pre ? " pre*" : " post*");
        EXPECT_EQ(heap_stats.transitions, bucket_stats.transitions);
        EXPECT_EQ(heap_stats.epsilons, bucket_stats.epsilons);

        for (StateId state = 0; state < 4; ++state) {
            const StateId starts[] = {state};
            const auto from_heap =
                find_accepted_n(heap_aut, starts, any_stack(), alphabet, 6);
            const auto from_bucket =
                find_accepted_n(bucket_aut, starts, any_stack(), alphabet, 6);
            ASSERT_EQ(from_heap.size(), from_bucket.size())
                << "seed " << GetParam() << " state " << state;
            for (std::size_t i = 0; i < from_heap.size(); ++i) {
                EXPECT_EQ(from_heap[i].weight, from_bucket[i].weight);
                EXPECT_EQ(from_heap[i].control_state, from_bucket[i].control_state);
                // Same spelled stack, symbol by symbol (transition ids may
                // differ between runs; the spelled configuration may not).
                ASSERT_EQ(from_heap[i].path.size(), from_bucket[i].path.size());
                for (std::size_t j = 0; j < from_heap[i].path.size(); ++j)
                    EXPECT_EQ(from_heap[i].path[j].second, from_bucket[i].path[j].second)
                        << "seed " << GetParam() << " state " << state;
            }
        }
    }
}

/// Replays an eagerly built PDA's rules per demanded label — the minimal
/// honest RuleProvider.  A class or any rule matches many labels, so the
/// provider remembers what it emitted (as the contract requires).
class ReplayProvider final : public RuleProvider {
public:
    explicit ReplayProvider(const Pda& source)
        : _source(&source), _emitted(source.rule_slot_count(), false) {}
    void materialize(Pda& pda, StateId state, const Demand& demand) override {
        for (RuleId id = 0; id < _source->rule_slot_count(); ++id) {
            const auto& rule = _source->rule(id);
            if (rule.from != state || _emitted[id] || !covers(demand, rule.pre)) continue;
            _emitted[id] = true;
            pda.add_rule(rule);
        }
    }

private:
    [[nodiscard]] bool covers(const Demand& demand, const PreSpec& pre) const {
        const auto matched = _source->pre_set(pre);
        switch (demand.kind) {
            case Demand::Kind::Concrete: return matched.contains(demand.symbol);
            case Demand::Kind::Set:
                return !nfa::SymbolSet::intersection(*demand.set, matched)
                            .is_empty_in(_source->alphabet_size());
            case Demand::Kind::All: return true;
        }
        return false;
    }

    const Pda* _source;
    std::vector<bool> _emitted;
};

/// The unit of demand is a (state, top symbol) pair: every rule a lazy PDA
/// holds after post* matches a top symbol that some finalized transition
/// out of its from-state read.
void expect_rules_demanded_by_reads(const Pda& lazy, const PAutomaton& aut, int seed) {
    for (RuleId id = 0; id < lazy.rule_slot_count(); ++id) {
        const auto& rule = lazy.rule(id);
        const auto matched = lazy.pre_set(rule.pre);
        const auto& from = aut.transitions_from(rule.from);
        const bool read = std::any_of(from.begin(), from.end(), [&](TransId tid) {
            const auto& trans = aut.transition(tid);
            return trans.finalized && trans.label.intersect(matched).has_value();
        });
        EXPECT_TRUE(read) << "seed " << seed << ": rule " << id << " from state "
                          << rule.from << " was materialized without a read";
    }
}

/// A rule-less twin of `source` that materializes through `provider`.
Pda lazy_twin(const Pda& source, ReplayProvider& provider) {
    Pda twin(source.alphabet_size());
    for (StateId s = 0; s < source.state_count(); ++s) twin.add_state();
    for (Symbol s = 0; s < source.alphabet_size(); ++s)
        if (source.class_of(s) != k_no_class) twin.set_symbol_class(s, source.class_of(s));
    twin.set_rule_provider(&provider, source.all_weights_scalar());
    return twin;
}

/// Demand-driven rule materialization is invisible to the solvers: a lazy
/// PDA saturates identically to its eager twin.  Per-(state, symbol) match
/// lists keep their relative order under lazy replay, so even the
/// saturation statistics must match exactly, not just the language.  pre*
/// exercises the materialize_all fallback (it consumes rules by target).
TEST_P(PdaRandom, LazyProviderMatchesEagerSaturation) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 75503 + 11);
    const Symbol alphabet = 3;
    for (const bool weighted : {false, true}) {
        const auto eager = random_pda(rng, 4, alphabet, 9, weighted);
        ReplayProvider provider(eager);
        const auto lazy = lazy_twin(eager, provider);
        ASSERT_TRUE(lazy.lazy());
        ASSERT_EQ(lazy.rule_count(), 0u);
        EXPECT_EQ(lazy.all_weights_scalar(), eager.all_weights_scalar());

        const std::vector<Config> initial{{0, {0, 1}}};
        EXPECT_EQ(brute_force_reachable(eager, initial, 40, 5),
                  brute_force_reachable(lazy, initial, 40, 5))
            << "seed " << GetParam();

        auto eager_aut = automaton_for_configs(eager, initial);
        const auto eager_stats = post_star(eager_aut);
        auto lazy_aut = automaton_for_configs(lazy, initial);
        const auto lazy_stats = post_star(lazy_aut);
        EXPECT_EQ(eager_stats.iterations, lazy_stats.iterations) << "seed " << GetParam();
        EXPECT_EQ(eager_stats.transitions, lazy_stats.transitions);
        EXPECT_EQ(eager_stats.epsilons, lazy_stats.epsilons);
        // post* only ever demanded rules; it must not have invented any.
        EXPECT_LE(lazy.rule_count(), eager.rule_count());
        expect_rules_demanded_by_reads(lazy, lazy_aut, GetParam());

        const std::vector<Config> targets{
            {1, {0}}, {2, {1, 0}}, {3, {2, 2, 0}}, {0, {2}}, {1, {2, 0}},
        };
        for (const auto& target : targets) {
            const StateId starts[] = {target.first};
            const auto from_eager =
                find_accepted(eager_aut, starts, exact_word(target.second), alphabet);
            const auto from_lazy =
                find_accepted(lazy_aut, starts, exact_word(target.second), alphabet);
            ASSERT_EQ(from_eager.has_value(), from_lazy.has_value())
                << "seed " << GetParam() << " target state " << target.first;
            if (from_eager && from_lazy) {
                EXPECT_EQ(from_eager->weight, from_lazy->weight) << "seed " << GetParam();
            }

            auto bwd_eager = automaton_for_configs(eager, {target});
            pre_star(bwd_eager);
            auto bwd_lazy = automaton_for_configs(lazy, {target});
            pre_star(bwd_lazy); // forces materialize_all via the target index
            const StateId bwd_starts[] = {initial[0].first};
            EXPECT_EQ(find_accepted(bwd_eager, bwd_starts, exact_word(initial[0].second),
                                    alphabet)
                          .has_value(),
                      find_accepted(bwd_lazy, bwd_starts, exact_word(initial[0].second),
                                    alphabet)
                          .has_value())
                << "seed " << GetParam() << " target state " << target.first;
        }
        EXPECT_TRUE(lazy.fully_materialized());
        EXPECT_EQ(lazy.rule_count(), eager.rule_count());
    }
}

/// A set-labelled pop visits a state's match lists in symbol order however
/// lazy demands created them: the order an eager build has, and the one a
/// re-armed state must reproduce for delta ≡ cold byte-identity.
TEST(PdaLazy, SetLabelledMatchOrderIsDemandIndependent) {
    Pda eager(4);
    eager.add_state();
    eager.add_state();
    for (Symbol s = 0; s < 4; ++s)
        eager.add_rule({0, 1, PreSpec::concrete(s), Rule::OpKind::Pop});
    ReplayProvider provider(eager);
    const auto lazy = lazy_twin(eager, provider);
    const auto ignore = [](RuleId, const nfa::SymbolSet&) {};
    lazy.for_each_applicable(0, Symbol{3}, ignore); // lists created out of order
    lazy.for_each_applicable(0, Symbol{1}, ignore);

    const auto visit_order = [](const Pda& pda) {
        std::vector<Symbol> order;
        pda.for_each_applicable(0, nfa::SymbolSet::any(), [&](RuleId id, const nfa::SymbolSet&) {
            order.push_back(pda.rule(id).pre.symbol);
        });
        return order;
    };
    EXPECT_EQ(visit_order(lazy), (std::vector<Symbol>{0, 1, 2, 3}));
    EXPECT_EQ(visit_order(lazy), visit_order(eager));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdaRandom, ::testing::Range(0, 40));

} // namespace
} // namespace aalwines::pda
