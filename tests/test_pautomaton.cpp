#include <gtest/gtest.h>

#include "pda/pautomaton.hpp"

namespace aalwines::pda {
namespace {

Pda two_state_pda() {
    Pda pda(4);
    pda.add_state();
    pda.add_state();
    return pda;
}

TEST(EdgeLabel, ConcreteAndSetBehaviour) {
    const auto concrete = EdgeLabel::of(3);
    EXPECT_TRUE(concrete.is_concrete());
    EXPECT_TRUE(concrete.contains(3));
    EXPECT_FALSE(concrete.contains(2));
    EXPECT_EQ(concrete.pick(8), 3u);
    EXPECT_FALSE(concrete.pick(2).has_value()); // outside the domain

    const auto set = EdgeLabel::of_set(nfa::SymbolSet::of({1, 2}));
    EXPECT_FALSE(set.is_concrete());
    EXPECT_TRUE(set.contains(1));
    EXPECT_EQ(set.pick(8), 1u);

    // Singleton include-sets collapse to the concrete representation.
    EXPECT_TRUE(EdgeLabel::of_set(nfa::SymbolSet::of({5})).is_concrete());
}

TEST(EdgeLabel, IntersectReturnsNulloptWhenEmpty) {
    const auto label = EdgeLabel::of_set(nfa::SymbolSet::of({1, 2}));
    EXPECT_FALSE(label.intersect(nfa::SymbolSet::of({3})).has_value());
    const auto inter = label.intersect(nfa::SymbolSet::of({2, 3}));
    ASSERT_TRUE(inter.has_value());
    EXPECT_TRUE(inter->is_concrete());
    EXPECT_EQ(inter->concrete, 2u);
    EXPECT_FALSE(EdgeLabel::of(1).intersect(nfa::SymbolSet::of({2})).has_value());
}

TEST(PAutomaton, ControlStatesMirrorThePda) {
    const auto pda = two_state_pda();
    PAutomaton aut(pda);
    EXPECT_EQ(aut.helper_count(), 0u);
    EXPECT_TRUE(aut.has_state(0));
    EXPECT_TRUE(aut.has_state(1));
    EXPECT_FALSE(aut.has_state(2));
    EXPECT_TRUE(aut.is_control_state(0));
    EXPECT_TRUE(aut.is_control_state(1));
    const auto extra = aut.add_state();
    EXPECT_EQ(extra, k_first_helper);
    EXPECT_EQ(aut.helper_count(), 1u);
    EXPECT_FALSE(aut.is_control_state(extra));
    EXPECT_FALSE(aut.is_final(extra));
    aut.set_final(extra);
    EXPECT_TRUE(aut.is_final(extra));
}

/// A lazy translation adds chain interiors to the PDA while an automaton
/// over it saturates.  The late state is a control state with working
/// tables, and it never collides with (or sorts after) a helper.
TEST(PAutomaton, PdaMayGainStatesAfterConstruction) {
    auto pda = two_state_pda();
    PAutomaton aut(pda);
    const auto q = aut.add_state();
    const auto late = pda.add_state();
    const auto q2 = aut.add_state();
    EXPECT_TRUE(aut.has_state(late));
    EXPECT_TRUE(aut.is_control_state(late));
    EXPECT_NE(q, late);
    EXPECT_NE(q2, late);
    EXPECT_NE(q, q2);
    EXPECT_FALSE(aut.is_final(late));
    EXPECT_TRUE(aut.transitions_from(late).empty());

    const auto [into, fresh_into] =
        aut.add_transition(0, EdgeLabel::of(1), late, Weight::one(), {});
    const auto [out, fresh_out] =
        aut.add_transition(late, EdgeLabel::of(2), q2, Weight::one(), {});
    const auto [eps, fresh_eps] = aut.add_epsilon(late, q, Weight::one(), {});
    EXPECT_TRUE(fresh_into && fresh_out && fresh_eps);
    EXPECT_EQ(aut.transition(into).to, late);
    EXPECT_EQ(aut.transitions_from(late), std::vector<TransId>{out});
    EXPECT_EQ(aut.epsilons_from(late), std::vector<std::uint32_t>{eps});
    EXPECT_EQ(aut.epsilons_into(q), std::vector<std::uint32_t>{eps});
    EXPECT_EQ(aut.transitions_from(0), std::vector<TransId>{into});

    const auto mid = aut.mid_state(late, 3);
    EXPECT_NE(mid, late);
    for (const auto helper : {q, q2, mid})
        for (StateId s = 0; s < pda.state_count(); ++s)
            EXPECT_GT(aut.canonical_state(helper), aut.canonical_state(s));
}

TEST(PAutomaton, ConcreteTransitionsDeduplicate) {
    const auto pda = two_state_pda();
    PAutomaton aut(pda);
    const auto q = aut.add_state();
    const auto [id1, fresh1] =
        aut.add_transition(0, EdgeLabel::of(1), q, Weight::scalar(5), {});
    EXPECT_TRUE(fresh1);
    // Worse weight: no change.
    const auto [id2, fresh2] =
        aut.add_transition(0, EdgeLabel::of(1), q, Weight::scalar(9), {});
    EXPECT_EQ(id1, id2);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(aut.transition(id1).weight, Weight::scalar(5));
    // Better weight: relaxed in place.
    const auto [id3, improved] =
        aut.add_transition(0, EdgeLabel::of(1), q, Weight::scalar(2), {});
    EXPECT_EQ(id1, id3);
    EXPECT_TRUE(improved);
    EXPECT_EQ(aut.transition(id1).weight, Weight::scalar(2));
    EXPECT_EQ(aut.transition_count(), 1u);
    EXPECT_EQ(aut.transitions_from(0).size(), 1u);
}

TEST(PAutomaton, SetTransitionsDeduplicateByContent) {
    const auto pda = two_state_pda();
    PAutomaton aut(pda);
    const auto q = aut.add_state();
    const auto set = nfa::SymbolSet::of({1, 2, 3});
    const auto [id1, f1] =
        aut.add_transition(0, EdgeLabel::of_set(set), q, Weight::one(), {});
    const auto [id2, f2] =
        aut.add_transition(0, EdgeLabel::of_set(nfa::SymbolSet::of({1, 2, 3})), q,
                           Weight::one(), {});
    EXPECT_EQ(id1, id2);
    EXPECT_TRUE(f1);
    EXPECT_FALSE(f2);
    // A different set on the same endpoints is a distinct transition.
    const auto [id3, f3] = aut.add_transition(
        0, EdgeLabel::of_set(nfa::SymbolSet::of({1, 2})), q, Weight::one(), {});
    EXPECT_NE(id1, id3);
    EXPECT_TRUE(f3);
}

TEST(PAutomaton, EpsilonDeduplicationAndIndexes) {
    const auto pda = two_state_pda();
    PAutomaton aut(pda);
    const auto q = aut.add_state();
    const auto [e1, f1] = aut.add_epsilon(0, q, Weight::scalar(4), {});
    EXPECT_TRUE(f1);
    const auto [e2, f2] = aut.add_epsilon(0, q, Weight::scalar(6), {});
    EXPECT_EQ(e1, e2);
    EXPECT_FALSE(f2);
    const auto [e3, improved] = aut.add_epsilon(0, q, Weight::scalar(1), {});
    EXPECT_EQ(e1, e3);
    EXPECT_TRUE(improved);
    EXPECT_EQ(aut.epsilon(e1).weight, Weight::scalar(1));
    ASSERT_EQ(aut.epsilons_into(q).size(), 1u);
    ASSERT_EQ(aut.epsilons_from(0).size(), 1u);
    EXPECT_EQ(aut.epsilons_into(q)[0], e1);
}

TEST(PAutomaton, MidStatesAreSharedPerTargetAndSymbol) {
    const auto pda = two_state_pda();
    PAutomaton aut(pda);
    const auto m1 = aut.mid_state(1, 2);
    const auto m2 = aut.mid_state(1, 2);
    const auto m3 = aut.mid_state(1, 3);
    const auto m4 = aut.mid_state(0, 2);
    EXPECT_EQ(m1, m2);
    EXPECT_NE(m1, m3);
    EXPECT_NE(m1, m4);
    EXPECT_FALSE(aut.is_control_state(m1));
}

} // namespace
} // namespace aalwines::pda
