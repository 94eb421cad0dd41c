#include <gtest/gtest.h>

#include <random>

#include "nfa/nfa.hpp"

namespace aalwines::nfa {
namespace {

Regex sym(Symbol s) { return Regex::atom(SymbolSet::single(s)); }

std::vector<Symbol> word(std::initializer_list<Symbol> symbols) { return symbols; }

TEST(Nfa, AcceptsSingleSymbol) {
    const auto nfa = Nfa::compile(sym(3));
    EXPECT_TRUE(nfa.accepts(word({3})));
    EXPECT_FALSE(nfa.accepts(word({2})));
    EXPECT_FALSE(nfa.accepts(word({})));
    EXPECT_FALSE(nfa.accepts(word({3, 3})));
}

TEST(Nfa, AcceptsConcat) {
    std::vector<Regex> children;
    children.push_back(sym(1));
    children.push_back(sym(2));
    const auto nfa = Nfa::compile(Regex::concat(std::move(children)));
    EXPECT_TRUE(nfa.accepts(word({1, 2})));
    EXPECT_FALSE(nfa.accepts(word({1})));
    EXPECT_FALSE(nfa.accepts(word({2, 1})));
}

TEST(Nfa, AcceptsAlternation) {
    std::vector<Regex> children;
    children.push_back(sym(1));
    children.push_back(sym(2));
    const auto nfa = Nfa::compile(Regex::alt(std::move(children)));
    EXPECT_TRUE(nfa.accepts(word({1})));
    EXPECT_TRUE(nfa.accepts(word({2})));
    EXPECT_FALSE(nfa.accepts(word({3})));
}

TEST(Nfa, StarAcceptsZeroOrMore) {
    const auto nfa = Nfa::compile(Regex::star(sym(5)));
    EXPECT_TRUE(nfa.accepts(word({})));
    EXPECT_TRUE(nfa.accepts(word({5})));
    EXPECT_TRUE(nfa.accepts(word({5, 5, 5})));
    EXPECT_FALSE(nfa.accepts(word({5, 4})));
    EXPECT_TRUE(nfa.accepts_epsilon());
}

TEST(Nfa, PlusRequiresOne) {
    const auto nfa = Nfa::compile(Regex::plus(sym(5)));
    EXPECT_FALSE(nfa.accepts(word({})));
    EXPECT_TRUE(nfa.accepts(word({5})));
    EXPECT_TRUE(nfa.accepts(word({5, 5})));
}

TEST(Nfa, OptAcceptsZeroOrOne) {
    const auto nfa = Nfa::compile(Regex::opt(sym(5)));
    EXPECT_TRUE(nfa.accepts(word({})));
    EXPECT_TRUE(nfa.accepts(word({5})));
    EXPECT_FALSE(nfa.accepts(word({5, 5})));
}

/// `regex` is `kind` applied directly to the atom sym(5): a fold left one
/// unary node over the original child.
::testing::AssertionResult is_unary_of_atom(const Regex& regex, Regex::Kind kind) {
    if (regex.kind() != kind) return ::testing::AssertionFailure() << "wrong outer kind";
    if (regex.children().size() != 1 || regex.children()[0].kind() != Regex::Kind::Atom)
        return ::testing::AssertionFailure() << "child is not the atom";
    return ::testing::AssertionSuccess();
}

TEST(Regex, StarFoldsPlus) { // (r+)* = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::star(Regex::plus(sym(5))), Regex::Kind::Star));
}

TEST(Regex, StarFoldsOpt) { // (r?)* = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::star(Regex::opt(sym(5))), Regex::Kind::Star));
}

TEST(Regex, StarFoldsStar) { // (r*)* = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::star(Regex::star(sym(5))), Regex::Kind::Star));
}

TEST(Regex, OptFoldsPlus) { // (r+)? = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::opt(Regex::plus(sym(5))), Regex::Kind::Star));
}

TEST(Regex, PlusFoldsOpt) { // (r?)+ = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::plus(Regex::opt(sym(5))), Regex::Kind::Star));
}

TEST(Regex, PlusFoldsPlus) { // (r+)+ = r+
    EXPECT_TRUE(is_unary_of_atom(Regex::plus(Regex::plus(sym(5))), Regex::Kind::Plus));
}

TEST(Regex, OptFoldsOpt) { // (r?)? = r?
    EXPECT_TRUE(is_unary_of_atom(Regex::opt(Regex::opt(sym(5))), Regex::Kind::Opt));
}

TEST(Regex, PlusFoldsStar) { // (r*)+ = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::plus(Regex::star(sym(5))), Regex::Kind::Star));
}

TEST(Regex, OptFoldsStar) { // (r*)? = r*
    EXPECT_TRUE(is_unary_of_atom(Regex::opt(Regex::star(sym(5))), Regex::Kind::Star));
}

TEST(Nfa, EmptyLanguageAcceptsNothing) {
    const auto nfa = Nfa::compile(Regex::empty());
    EXPECT_FALSE(nfa.accepts(word({})));
    EXPECT_FALSE(nfa.accepts(word({0})));
    EXPECT_TRUE(nfa.empty_language(8));
}

TEST(Nfa, EpsilonAcceptsOnlyEmptyWord) {
    const auto nfa = Nfa::compile(Regex::epsilon());
    EXPECT_TRUE(nfa.accepts(word({})));
    EXPECT_FALSE(nfa.accepts(word({0})));
}

TEST(Nfa, SetAtomsAndExclusion) {
    const auto nfa = Nfa::compile(Regex::atom(SymbolSet::excluding({2})));
    EXPECT_TRUE(nfa.accepts(word({0})));
    EXPECT_FALSE(nfa.accepts(word({2})));
}

TEST(Nfa, RepeatExpandsToExactCount) {
    std::vector<Regex> copies;
    for (int i = 0; i < 3; ++i) copies.push_back(sym(1));
    const auto nfa = Nfa::compile(Regex::concat(std::move(copies)));
    EXPECT_TRUE(nfa.accepts(word({1, 1, 1})));
    EXPECT_FALSE(nfa.accepts(word({1, 1})));
    EXPECT_FALSE(nfa.accepts(word({1, 1, 1, 1})));
}

TEST(Nfa, IntersectionOfOverlappingLanguages) {
    // (1|2)* ∩ (2|3)* = 2*
    std::vector<Regex> ab;
    ab.push_back(Regex::atom(SymbolSet::of({1, 2})));
    std::vector<Regex> bc;
    bc.push_back(Regex::atom(SymbolSet::of({2, 3})));
    const auto left = Nfa::compile(Regex::star(Regex::alt(std::move(ab))));
    const auto right = Nfa::compile(Regex::star(Regex::alt(std::move(bc))));
    const auto inter = Nfa::intersection(left, right);
    EXPECT_TRUE(inter.accepts(word({})));
    EXPECT_TRUE(inter.accepts(word({2, 2})));
    EXPECT_FALSE(inter.accepts(word({1})));
    EXPECT_FALSE(inter.accepts(word({3})));
}

TEST(Nfa, ExampleWordIsShortestAccepted) {
    // 1 1 (2 | 1 1)
    std::vector<Regex> tail;
    tail.push_back(sym(2));
    std::vector<Regex> two;
    two.push_back(sym(1));
    two.push_back(sym(1));
    tail.push_back(Regex::concat(std::move(two)));
    std::vector<Regex> all;
    all.push_back(sym(1));
    all.push_back(sym(1));
    all.push_back(Regex::alt(std::move(tail)));
    const auto nfa = Nfa::compile(Regex::concat(std::move(all)));
    const auto example = nfa.example_word(4);
    ASSERT_TRUE(example.has_value());
    EXPECT_EQ(*example, word({1, 1, 2}));
    EXPECT_FALSE(nfa.empty_language(4));
}

TEST(Nfa, EmptyLanguageDetectsUnsatisfiableDomain) {
    // atom over symbol 9, domain of size 4: no member.
    const auto nfa = Nfa::compile(sym(9));
    EXPECT_TRUE(nfa.empty_language(4));
    EXPECT_FALSE(nfa.empty_language(16));
}

/// Property: a randomly built regex and a direct recursive matcher agree.
class NfaRandomProperty : public ::testing::TestWithParam<int> {};

namespace matcher {
// Reference matcher by brute-force expansion (languages restricted to words
// up to length 4 over a 3-symbol domain).
bool matches(const Regex& regex, const std::vector<Symbol>& input, std::size_t from,
             std::size_t to);

bool match_concat(const std::vector<Regex>& children, std::size_t index,
                  const std::vector<Symbol>& input, std::size_t from, std::size_t to) {
    if (index == children.size()) return from == to;
    for (std::size_t mid = from; mid <= to; ++mid)
        if (matches(children[index], input, from, mid) &&
            match_concat(children, index + 1, input, mid, to))
            return true;
    return false;
}

bool matches(const Regex& regex, const std::vector<Symbol>& input, std::size_t from,
             std::size_t to) {
    switch (regex.kind()) {
        case Regex::Kind::Empty: return false;
        case Regex::Kind::Epsilon: return from == to;
        case Regex::Kind::Atom:
            return to == from + 1 && regex.symbols().contains(input[from]);
        case Regex::Kind::Concat:
            return match_concat(regex.children(), 0, input, from, to);
        case Regex::Kind::Alt:
            for (const auto& child : regex.children())
                if (matches(child, input, from, to)) return true;
            return false;
        case Regex::Kind::Star: {
            if (from == to) return true;
            for (std::size_t mid = from + 1; mid <= to; ++mid)
                if (matches(regex.children().front(), input, from, mid) &&
                    matches(regex, input, mid, to))
                    return true;
            return false;
        }
        case Regex::Kind::Plus: {
            // plus accepts ε exactly when its body does.
            if (from == to) return matches(regex.children().front(), input, from, to);
            for (std::size_t mid = from + 1; mid <= to; ++mid)
                if (matches(regex.children().front(), input, from, mid) &&
                    (mid == to || matches(regex, input, mid, to)))
                    return true;
            return false;
        }
        case Regex::Kind::Opt:
            return from == to || matches(regex.children().front(), input, from, to);
    }
    return false;
}
} // namespace matcher

Regex random_regex(std::mt19937_64& rng, int depth) {
    const int choice = depth <= 0 ? static_cast<int>(rng() % 2)
                                  : static_cast<int>(rng() % 7);
    switch (choice) {
        case 0: return Regex::atom(SymbolSet::single(static_cast<Symbol>(rng() % 3)));
        case 1: return Regex::atom(SymbolSet::of({static_cast<Symbol>(rng() % 3),
                                                  static_cast<Symbol>(rng() % 3)}));
        case 2: {
            std::vector<Regex> children;
            children.push_back(random_regex(rng, depth - 1));
            children.push_back(random_regex(rng, depth - 1));
            return Regex::concat(std::move(children));
        }
        case 3: {
            std::vector<Regex> children;
            children.push_back(random_regex(rng, depth - 1));
            children.push_back(random_regex(rng, depth - 1));
            return Regex::alt(std::move(children));
        }
        case 4: return Regex::star(random_regex(rng, depth - 1));
        case 5: return Regex::plus(random_regex(rng, depth - 1));
        default: return Regex::opt(random_regex(rng, depth - 1));
    }
}

TEST_P(NfaRandomProperty, CompiledNfaAgreesWithReferenceMatcher) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
    const auto regex = random_regex(rng, 3);
    const auto nfa = Nfa::compile(regex);
    // Enumerate all words over {0,1,2} up to length 4.
    std::vector<std::vector<Symbol>> words{{}};
    for (int len = 1; len <= 4; ++len) {
        const auto start = words.size();
        std::vector<std::vector<Symbol>> next;
        for (const auto& w : words)
            if (w.size() == static_cast<std::size_t>(len - 1))
                for (Symbol s = 0; s < 3; ++s) {
                    auto extended = w;
                    extended.push_back(s);
                    next.push_back(std::move(extended));
                }
        words.insert(words.end(), next.begin(), next.end());
        (void)start;
    }
    for (const auto& w : words) {
        EXPECT_EQ(nfa.accepts(w), matcher::matches(regex, w, 0, w.size()))
            << "seed " << GetParam() << " word size " << w.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NfaRandomProperty, ::testing::Range(0, 60));

} // namespace
} // namespace aalwines::nfa
