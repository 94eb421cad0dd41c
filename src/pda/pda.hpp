#pragma once
// Weighted pushdown system (paper §4.1).
//
// Rules are in the normal form  p γ → q w  with |w| ≤ 2:
//   Pop:   p γ → q ε
//   Swap:  p γ → q γ'
//   Push:  p γ → q γ₁γ₂   (γ₁ is the new top; γ₂ may be "same as matched")
//
// The left-hand symbol is a PreSpec: a concrete symbol, a *symbol class*
// (every symbol of one stratum — how the MPLS translation expresses "any
// label revealed by a pop, of the right kind"), or any symbol.  Classes keep
// the rule set polynomial instead of multiplying by the label alphabet.
//
// Every rule carries a Weight (see weight.hpp) and an opaque 32-bit tag the
// verification layer uses to map witness rule sequences back to forwarding
// decisions.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "nfa/symbol_set.hpp"
#include "pda/weight.hpp"
#include "util/flat_map.hpp"

namespace aalwines::pda {

using StateId = std::uint32_t;
using Symbol = nfa::Symbol;
using RuleId = std::uint32_t;

inline constexpr Symbol k_no_symbol = UINT32_MAX;
/// In a Push rule, label2 == k_same_symbol keeps the matched symbol below
/// the newly pushed top (a plain MPLS push on an unknown stack).
inline constexpr Symbol k_same_symbol = UINT32_MAX - 1;

using SymbolClass = std::uint8_t;
inline constexpr SymbolClass k_no_class = 0xFF;

/// Left-hand-side symbol specification of a rule.
struct PreSpec {
    enum class Kind : std::uint8_t { Concrete, Class, Any };
    Kind kind = Kind::Concrete;
    Symbol symbol = k_no_symbol;  ///< for Concrete
    SymbolClass cls = k_no_class; ///< for Class

    [[nodiscard]] static PreSpec concrete(Symbol s) { return {Kind::Concrete, s, k_no_class}; }
    [[nodiscard]] static PreSpec of_class(SymbolClass c) {
        return {Kind::Class, k_no_symbol, c};
    }
    [[nodiscard]] static PreSpec any() { return {Kind::Any, k_no_symbol, k_no_class}; }

    bool operator==(const PreSpec&) const = default;
};

struct Rule {
    StateId from = 0;
    StateId to = 0;
    PreSpec pre;
    enum class OpKind : std::uint8_t { Pop, Swap, Push };
    OpKind op = OpKind::Pop;
    Symbol label1 = k_no_symbol; ///< Swap: written symbol; Push: new top
    Symbol label2 = k_no_symbol; ///< Push: symbol below top (or k_same_symbol)
    Weight weight = Weight::one();
    std::uint32_t tag = UINT32_MAX; ///< caller-defined; UINT32_MAX = internal
    /// Position of this rule in its (from, precondition) match list,
    /// assigned when the rule is indexed (caller-supplied values are
    /// overwritten).  A provider emits each (state, symbol) slice in one
    /// go and in a fixed order, so the position is the same in an eager
    /// build, under any lazy demand order, and after rebase
    /// re-materialization — (from, precondition, ord) is a stable rule
    /// identity where the global RuleId is not (lazy materialization
    /// permutes id blocks between runs).  The solver's canonical witness
    /// tie-breaking keys on it.
    std::uint32_t ord = 0;
};

/// Run-independent rule identity, ordered (from, precondition, ord); see
/// Pda::rule_canonical_key.
struct RuleKey {
    StateId from = 0;
    std::uint64_t pre = 0; ///< PreSpec kind in the high word, symbol/class below
    std::uint32_t ord = 0;
    auto operator<=>(const RuleKey&) const = default;
};

class Pda;

/// One materialization request: the rules from a state that fire on one
/// top symbol, on some symbol of a set, or on any symbol ("all labels").
struct Demand {
    enum class Kind : std::uint8_t { Concrete, Set, All };
    Kind kind = Kind::All;
    Symbol symbol = k_no_symbol;         ///< Kind::Concrete
    const nfa::SymbolSet* set = nullptr; ///< Kind::Set; borrowed for the call
};

/// Demand-driven rule source (the lazy network→PDA translation).  A PDA with
/// a provider attached starts rule-less; `for_each_applicable` asks the
/// provider for the slice of a state's rules that the popped transition's
/// top symbol (or symbol set) can fire, and the provider emits it via
/// `Pda::add_rule`.  `materialize_all` issues the "all labels" demand per
/// state.  Contract:
///   - a Concrete demand arrives already claimed: the PDA records every
///     (state, symbol) it asks for — including symbols no rule matches —
///     and asks at most once per pair until `invalidate_states` re-arms
///     the state;
///   - Set and All demands may overlap earlier demands: the provider emits
///     only what it has not emitted yet, recording each symbol it emits
///     for a Set demand with `Pda::claim` and skipping `Pda::claimed`
///     symbols on an All demand (after which the state is complete);
///   - a symbol's slice is emitted in one go, in a fixed order, so every
///     match list (and hence Rule::ord) is independent of demand order.
///     A rule with a class or any precondition spans many symbols; a
///     provider that emits one from a lazily demanded state must track it
///     so it is emitted once (the translation emits those only from chain
///     interiors, which are complete from the start);
///   - the provider may add states while it emits (an op chain's interior
///     states are created together with the chain) and must mark them with
///     `Pda::mark_materialized` so they are not asked again.
class RuleProvider {
public:
    virtual ~RuleProvider() = default;
    /// Emit the not-yet-emitted rules from `state` that `demand` covers.
    virtual void materialize(Pda& pda, StateId state, const Demand& demand) = 0;
};

class Pda {
public:
    /// `alphabet_size` is the stack-symbol universe [0, alphabet_size).
    explicit Pda(Symbol alphabet_size) : _alphabet_size(alphabet_size) {}

    StateId add_state() {
        _match_by_state.emplace_back();
        if (_provider != nullptr) {
            // Keep the lazy bookkeeping in step (a provider adds states
            // mid-saturation — see RuleProvider).
            _coverage.push_back(Coverage::None);
            _generation.push_back(0);
            _swaps_into.emplace_back();
            _pushes_into.emplace_back();
        }
        return static_cast<StateId>(_match_by_state.size() - 1);
    }

    /// Capacity hints for bulk construction (the translation knows its
    /// control-state count exactly and its rule count approximately);
    /// purely an allocation-churn optimization.
    void reserve_states(std::size_t count) { _match_by_state.reserve(count); }
    void reserve_rules(std::size_t count) {
        _rules.reserve(count);
        _rule_lists.reserve(count);
        _concrete_lists.reserve(count);
    }

    /// Declare that `symbol` belongs to `cls` (default: no class).
    void set_symbol_class(Symbol symbol, SymbolClass cls);

    RuleId add_rule(Rule rule);

    [[nodiscard]] std::size_t state_count() const noexcept { return _match_by_state.size(); }
    /// Live rules (excludes slots tombstoned by invalidate_states).
    [[nodiscard]] std::size_t rule_count() const noexcept {
        return _rules.size() - _free_rule_slots.size();
    }
    /// Bound for whole-PDA id loops; slots in [0, rule_slot_count()) may be
    /// dead — check rule_dead(id) when iterating a PDA that has been through
    /// invalidate_states (eager PDAs never have dead slots).
    [[nodiscard]] std::size_t rule_slot_count() const noexcept { return _rules.size(); }
    [[nodiscard]] bool rule_dead(RuleId id) const noexcept { return _dead_rules[id]; }
    [[nodiscard]] Symbol alphabet_size() const noexcept { return _alphabet_size; }
    [[nodiscard]] const Rule& rule(RuleId id) const { return _rules[id]; }
    /// Raw slot array — includes stale data in dead slots (see rule_dead).
    [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return _rules; }

    /// Run-independent rule identity: (from state, precondition, position
    /// in the match list).  Equal-weight witness tie-breaks prefer the
    /// smallest key (see pautomaton.hpp).  A translation's control states
    /// match concrete labels only and emit label-ascending, so the order
    /// among one state's rules is their eager emission order.
    [[nodiscard]] RuleKey rule_canonical_key(RuleId id) const {
        const Rule& r = _rules[id];
        std::uint64_t operand = 0;
        if (r.pre.kind == PreSpec::Kind::Concrete) operand = r.pre.symbol;
        if (r.pre.kind == PreSpec::Kind::Class) operand = r.pre.cls;
        return {r.from, (static_cast<std::uint64_t>(r.pre.kind) << 32) | operand, r.ord};
    }

    [[nodiscard]] SymbolClass class_of(Symbol symbol) const {
        return symbol < _symbol_classes.size() ? _symbol_classes[symbol] : k_no_class;
    }

    /// All symbols of one class, as an include-set (built lazily, cached).
    [[nodiscard]] const nfa::SymbolSet& class_set(SymbolClass cls) const;

    /// The symbol set matched by a rule's PreSpec.
    [[nodiscard]] nfa::SymbolSet pre_set(const PreSpec& pre) const;

    /// Invoke `fn(rule_id, matched)` for every rule from `state` applicable
    /// to some symbol of `label`; `matched` is the (non-empty) subset of
    /// `label` the rule fires on.
    template <typename Fn>
    void for_each_applicable(StateId state, const nfa::SymbolSet& label, Fn&& fn) const;

    /// Overload for a concrete top symbol.
    template <typename Fn>
    void for_each_applicable(StateId state, Symbol symbol, Fn&& fn) const;

    /// Remove the rules whose ids appear in `discard` (sorted).  Used by the
    /// reduction pass; rebuilds the match indexes.  Tags are preserved.
    void remove_rules(const std::vector<RuleId>& discard);

    /// Un-materialize states of a lazy PDA: drop every rule leaving a state
    /// in `heads` — following chains, i.e. also dropping the rules of any
    /// state reached through a rule target for which `owned(target)` holds —
    /// and re-arm their demands: each dropped state's generation advances,
    /// which voids all its (state, symbol) claims at once, so the provider
    /// is asked again on next demand.  Cost is O(dropped rules), not O(all
    /// rules): dropped slots are tombstoned onto a free list (add_rule
    /// reuses them) and their match lists are emptied in place (list slots
    /// and (state, symbol) keys survive, so re-emission lands in the same
    /// lists at the same positions) — a provider that re-emits identical
    /// slices therefore reproduces the original Rule::ord values, which is
    /// what keeps incremental re-verification byte-identical to a cold run.
    /// Surviving rule ids are NOT renumbered.
    /// The scalar-weight hint declared at set_rule_provider is retained.
    /// The delta subsystem's frontier re-saturation is the only caller.
    void invalidate_states(const std::vector<StateId>& heads,
                           const std::function<bool(StateId)>& owned);

    /// Whether any of `state`'s rules were demanded — some may exist, and
    /// a change to them can change a saturation (always true when eager).
    [[nodiscard]] bool is_demanded(StateId state) const {
        return _provider == nullptr || _coverage[state] != Coverage::None;
    }

    /// Swap rules p γ → q γ' with q == `target`; built once per PDA (lazily,
    /// invalidated by add_rule/remove_rules) instead of per pre* call.  Not
    /// thread-safe on first use: saturate a shared PDA from one thread, or
    /// call `build_target_index()` up front.
    [[nodiscard]] const std::vector<RuleId>& swaps_into(StateId target) const {
        if (!_target_index_ready) build_target_index();
        return _swaps_into[target];
    }
    /// Push rules p γ → q γ₁γ₂ with q == `target` (same caching contract).
    [[nodiscard]] const std::vector<RuleId>& pushes_into(StateId target) const {
        if (!_target_index_ready) build_target_index();
        return _pushes_into[target];
    }
    void build_target_index() const;

    /// True while every rule weight is scalar (≤ 1 component, finite); the
    /// solver switches to the bucketed worklist only then.
    [[nodiscard]] bool all_weights_scalar() const noexcept { return _all_weights_scalar; }
    /// Largest scalar rule weight seen (0 when none/all 1̄).
    [[nodiscard]] std::uint64_t max_scalar_weight() const noexcept {
        return _max_scalar_weight;
    }

    /// The fully concrete ("direct") encoding of this PDA: every class/any
    /// rule is instantiated per matching symbol and "same as matched" push
    /// operands are resolved.  Tags are preserved on every instance.  This
    /// is the encoding a checker without symbolic wildcards (such as Moped)
    /// consumes; its size grows with the label alphabet.  A lazy PDA is
    /// fully materialized first.
    [[nodiscard]] Pda expand_concrete() const;

    /// Attach a demand-driven rule source and switch the PDA to lazy mode:
    /// `for_each_applicable` materializes the (state, top symbol) slices it
    /// reads on first use, and the per-target swap/push index is filled
    /// incrementally as rules arrive (so it is never rebuilt by a whole-PDA
    /// scan).  Must be called before any rule.
    /// `weights_scalar_hint` pre-seeds `all_weights_scalar()` — the
    /// bucketed-worklist decision is made before any rule has materialized,
    /// so the provider must declare whether every rule it will ever emit
    /// carries a scalar weight.
    void set_rule_provider(RuleProvider* provider, bool weights_scalar_hint = true);

    [[nodiscard]] bool lazy() const noexcept { return _provider != nullptr; }

    /// Mark `state` complete without invoking the provider — for states a
    /// provider fills as a side effect of another state's materialization
    /// (chain interiors).
    void mark_materialized(StateId state);

    /// Provider bookkeeping for Set demands: record that `symbol`'s slice of
    /// `state` is being emitted.  False when it already was (this
    /// generation), in which case the provider must not emit it again.
    bool claim(StateId state, Symbol symbol);
    /// Whether `symbol`'s slice of `state` was claimed this generation.
    [[nodiscard]] bool claimed(StateId state, Symbol symbol) const {
        return _claims.find(concrete_key(state, symbol)) == _generation[state];
    }

    /// Issue the "all labels" demand for every state not yet complete
    /// (no-op without a provider).  Logically const: materialization is
    /// memoized evaluation of the fixed rule set the provider denotes.  pre*
    /// and whole-PDA passes (expand_concrete, reduction, serialization) need
    /// this eager fallback.
    void materialize_all() const;

    /// States with at least one demand (== state_count() when eager).
    [[nodiscard]] std::size_t materialized_state_count() const noexcept {
        return _provider != nullptr ? _demanded_count : state_count();
    }
    /// Every state complete: the whole rule set exists.
    [[nodiscard]] bool fully_materialized() const noexcept {
        return _provider == nullptr || _complete_count == state_count();
    }

    /// Wall-clock seconds spent inside the provider so far (0 when eager);
    /// callers difference it around a saturation.
    [[nodiscard]] double materialize_seconds() const noexcept {
        return static_cast<double>(_materialize_ns) * 1e-9;
    }

private:
    /// Per-state view of the match index.  Point lookups go through the flat
    /// interned-key table `_concrete_lists` (one probe for (state, symbol));
    /// the vectors here only exist so set-labelled matching can enumerate a
    /// state's distinct symbols/classes without hash-map iteration.  They
    /// are key-ascending, so that order does not depend on demand order.
    struct StateMatch {
        std::vector<std::pair<Symbol, std::uint32_t>> concrete; ///< (symbol, list id)
        std::vector<std::pair<SymbolClass, std::uint32_t>> classes;
        std::uint32_t any_list = UINT32_MAX;
    };

    /// How much of a lazy state's rule set has been demanded.
    enum class Coverage : std::uint8_t { None, Some, All };

    [[nodiscard]] static std::uint64_t concrete_key(StateId state, Symbol symbol) noexcept {
        return (static_cast<std::uint64_t>(state) << 32) | symbol;
    }
    void index_rule(RuleId id);

    /// Lazy-mode fast paths: materialize the slice of `state` a popped
    /// transition reads on first demand.  Must run before any read of the
    /// state's match index.
    void demand(StateId state, Symbol symbol) const {
        if (_provider != nullptr && _coverage[state] != Coverage::All)
            demand_symbol(state, symbol);
    }
    void demand(StateId state, const nfa::SymbolSet& symbols) const {
        if (_provider != nullptr && _coverage[state] != Coverage::All)
            request(state, {Demand::Kind::Set, k_no_symbol, &symbols});
    }
    void demand_symbol(StateId state, Symbol symbol) const; ///< slow path
    /// Raise `state`'s coverage (never lowers it) and keep the counts.
    void cover(StateId state, Coverage coverage);
    /// Hand one demand to the provider (timed, counted).
    void request(StateId state, const Demand& demand) const;

    Symbol _alphabet_size;
    std::vector<Rule> _rules;
    std::vector<bool> _dead_rules; ///< aligned with _rules; true = tombstone
    std::vector<RuleId> _free_rule_slots; ///< dead slots awaiting reuse (LIFO)
    std::size_t _rules_added = 0; ///< monotone add_rule count (telemetry)
    std::vector<StateMatch> _match_by_state;
    util::FlatMap64 _concrete_lists; ///< (state, symbol) → id into _rule_lists
    std::vector<std::vector<RuleId>> _rule_lists;
    std::vector<SymbolClass> _symbol_classes;
    bool _all_weights_scalar = true;
    std::uint64_t _max_scalar_weight = 0;
    mutable std::array<std::optional<nfa::SymbolSet>, 256> _class_sets;
    mutable bool _target_index_ready = false;
    mutable std::vector<std::vector<RuleId>> _swaps_into;
    mutable std::vector<std::vector<RuleId>> _pushes_into;
    RuleProvider* _provider = nullptr;
    // Lazy mode only, per state unless noted.
    std::vector<Coverage> _coverage;
    /// Bumped by invalidate_states; a claim counts only at its state's
    /// current generation, so re-arming a state is O(1).
    std::vector<std::uint32_t> _generation;
    util::FlatMap64 _claims; ///< (state, symbol) → generation of the claim
    std::size_t _demanded_count = 0; ///< states with coverage != None
    std::size_t _complete_count = 0; ///< states with coverage == All
    std::uint64_t _materialize_ns = 0; ///< time inside the provider
};

template <typename Fn>
void Pda::for_each_applicable(StateId state, Symbol symbol, Fn&& fn) const {
    demand(state, symbol);
    const auto& match = _match_by_state[state];
    const bool has_class_rules = !match.classes.empty() && class_of(symbol) != k_no_class;
    const auto concrete_list = _concrete_lists.find(concrete_key(state, symbol));
    if (concrete_list == util::FlatMap64::k_npos && !has_class_rules &&
        match.any_list == UINT32_MAX)
        return; // common miss: no singleton set built
    const auto single = nfa::SymbolSet::single(symbol);
    if (concrete_list != util::FlatMap64::k_npos)
        for (const auto id : _rule_lists[concrete_list]) fn(id, single);
    if (has_class_rules) {
        const auto cls = class_of(symbol);
        for (const auto& [c, list] : match.classes)
            if (c == cls)
                for (const auto id : _rule_lists[list]) fn(id, single);
    }
    if (match.any_list != UINT32_MAX)
        for (const auto id : _rule_lists[match.any_list]) fn(id, single);
}

template <typename Fn>
void Pda::for_each_applicable(StateId state, const nfa::SymbolSet& label, Fn&& fn) const {
    demand(state, label);
    const auto& match = _match_by_state[state];
    using Mode = nfa::SymbolSet::Mode;
    // Concrete-pre rules.
    if (label.mode() == Mode::Include && label.symbols().size() <= match.concrete.size()) {
        for (const auto symbol : label.symbols())
            if (const auto list = _concrete_lists.find(concrete_key(state, symbol));
                list != util::FlatMap64::k_npos) {
                const auto single = nfa::SymbolSet::single(symbol);
                for (const auto id : _rule_lists[list]) fn(id, single);
            }
    } else {
        for (const auto& [symbol, list] : match.concrete)
            if (label.contains(symbol)) {
                const auto single = nfa::SymbolSet::single(symbol);
                for (const auto id : _rule_lists[list]) fn(id, single);
            }
    }
    // Class rules.
    for (const auto& [cls, list] : match.classes) {
        auto matched = nfa::SymbolSet::intersection(label, class_set(cls));
        if (matched.is_empty_set()) continue;
        for (const auto id : _rule_lists[list]) fn(id, matched);
    }
    // Any rules.
    if (!label.is_empty_set() && match.any_list != UINT32_MAX)
        for (const auto id : _rule_lists[match.any_list]) fn(id, label);
}

} // namespace aalwines::pda
