#pragma once
// P-automata: NFAs over the PDA stack alphabet whose states include every
// PDA control state.  A configuration (p, γ₁…γₙ) is accepted iff the word
// γ₁…γₙ (top first) is read from state p to a final state.
//
// Ids below k_first_helper are PDA states, so the PDA may gain states while
// an automaton over it saturates (a lazy translation creates op-chain
// interiors on demand); the automaton's own states — header-NFA copies and
// post* push mid-states — are numbered from k_first_helper upward.
//
// The `post*`/`pre*` saturation procedures (solver.hpp) grow a P-automaton
// in place; every transition carries the best weight found so far and a
// provenance record from which witness rule sequences are reconstructed.
//
// Edge labels are either a concrete symbol or a symbolic set (see
// nfa::SymbolSet) — initial automata compiled from header regexes use sets,
// saturation mostly adds concrete edges.

#include <cstdint>
#include <optional>
#include <vector>

#include "nfa/symbol_set.hpp"
#include "pda/pda.hpp"
#include "pda/weight.hpp"
#include "util/flat_map.hpp"

namespace aalwines::pda {

using TransId = std::uint32_t;
inline constexpr TransId k_no_trans = UINT32_MAX;

/// First id of a P-automaton's own (non-PDA) states.
inline constexpr StateId k_first_helper = StateId{1} << 31;

/// Label of a P-automaton edge: one symbol or a symbol set.
struct EdgeLabel {
    Symbol concrete = k_no_symbol; ///< valid when != k_no_symbol
    nfa::SymbolSet set;            ///< used when concrete == k_no_symbol

    [[nodiscard]] static EdgeLabel of(Symbol symbol) {
        EdgeLabel label;
        label.concrete = symbol;
        return label;
    }
    [[nodiscard]] static EdgeLabel of_set(nfa::SymbolSet symbols) {
        // Collapse singleton include-sets to the concrete representation.
        if (symbols.mode() == nfa::SymbolSet::Mode::Include && symbols.symbols().size() == 1)
            return of(symbols.symbols().front());
        EdgeLabel label;
        label.set = std::move(symbols);
        return label;
    }

    [[nodiscard]] bool is_concrete() const noexcept { return concrete != k_no_symbol; }
    [[nodiscard]] bool contains(Symbol symbol) const {
        return is_concrete() ? concrete == symbol : set.contains(symbol);
    }
    [[nodiscard]] nfa::SymbolSet as_set() const {
        return is_concrete() ? nfa::SymbolSet::single(concrete) : set;
    }
    /// Intersection with `other`, nullopt when definitely empty.
    [[nodiscard]] std::optional<EdgeLabel> intersect(const nfa::SymbolSet& other) const {
        if (is_concrete())
            return other.contains(concrete) ? std::optional(*this) : std::nullopt;
        auto inter = nfa::SymbolSet::intersection(set, other);
        if (inter.is_empty_set()) return std::nullopt;
        return of_set(std::move(inter));
    }
    [[nodiscard]] std::optional<Symbol> pick(Symbol domain) const {
        if (is_concrete())
            return concrete < domain ? std::optional(concrete) : std::nullopt;
        return set.pick(domain);
    }

    bool operator==(const EdgeLabel& other) const {
        if (is_concrete() != other.is_concrete()) return false;
        return is_concrete() ? concrete == other.concrete : set == other.set;
    }
};

/// Total, run-independent order on edge labels: concrete before symbolic,
/// concrete by symbol, sets by (mode, sorted payload).  Returns <0/0/>0.
[[nodiscard]] int canonical_compare(const EdgeLabel& a, const EdgeLabel& b);

/// How a transition came to exist; drives witness reconstruction.
struct Provenance {
    enum class Kind : std::uint8_t {
        Initial,     ///< part of the automaton before saturation
        PostSwap,    ///< post*: swap rule `rule` applied to transition `a`
        PostPushT1,  ///< post*: control → mid edge of push rule `rule`
        PostPushT2,  ///< post*: mid → q edge; rule `rule` applied to `a`
        PostEps,     ///< post*: pop rule `rule` applied to `a` (ε-transition)
        PostCombine, ///< post*: ε-transition `a` composed with transition `b`
        PrePop,      ///< pre*: pop rule `rule`
        PreSwap,     ///< pre*: swap rule `rule` over transition `a`
        PrePush,     ///< pre*: push rule `rule` over transitions `a`, `b`
    };
    Kind kind = Kind::Initial;
    RuleId rule = UINT32_MAX;
    std::uint32_t a = k_no_trans; ///< TransId, or ε-id for PostCombine
    std::uint32_t b = k_no_trans;
};

struct Transition {
    StateId from = 0;
    StateId to = 0;
    EdgeLabel label;
    Weight weight;
    Provenance prov;
    /// Next transition sharing this one's interned (from, symbol) key —
    /// intrusive chain headed by PAutomaton::_concrete_heads; k_no_trans ends
    /// it.  Chains stay short (distinct `to` states per (from, symbol)).
    TransId next_same_key = k_no_trans;
    bool finalized = false;
};

/// post* ε-transition p --ε--> q (always from a control state).
struct EpsTransition {
    StateId from = 0;
    StateId to = 0;
    Weight weight;
    Provenance prov;
    bool finalized = false;
};

class PAutomaton {
public:
    /// Every PDA state, present and future, is a state of the automaton; its
    /// per-state tables are allocated when a transition first touches it.
    explicit PAutomaton(const Pda& pda) : _pda(&pda) {}

    [[nodiscard]] const Pda& pda() const noexcept { return *_pda; }

    /// A fresh helper state (id k_first_helper + helper_count()).
    StateId add_state();
    void set_final(StateId state, bool final = true);
    [[nodiscard]] bool is_final(StateId state) const { return data(state).final; }
    [[nodiscard]] static bool is_control_state(StateId state) noexcept {
        return state < k_first_helper;
    }
    /// A PDA state, or a helper this automaton created.
    [[nodiscard]] bool has_state(StateId state) const noexcept {
        return is_control_state(state) ? state < _pda->state_count()
                                       : state - k_first_helper < _helpers.size();
    }
    [[nodiscard]] std::size_t helper_count() const noexcept { return _helpers.size(); }

    /// Allocate the tables of every state the PDA has now, so no later insert
    /// reallocates them.  pre* calls this once the PDA is whole; it holds
    /// references into the tables across inserts.
    void cover_pda_states();

    /// Insert or relax a transition.  Returns {id, improved}: `improved` is
    /// true when the transition is new or its weight strictly decreased
    /// (callers re-enqueue it then).
    std::pair<TransId, bool> add_transition(StateId from, EdgeLabel label, StateId to,
                                            Weight weight, Provenance prov);
    std::pair<std::uint32_t, bool> add_epsilon(StateId from, StateId to, Weight weight,
                                               Provenance prov);

    [[nodiscard]] Transition& transition(TransId id) { return _transitions[id]; }
    [[nodiscard]] const Transition& transition(TransId id) const { return _transitions[id]; }
    [[nodiscard]] EpsTransition& epsilon(std::uint32_t id) { return _epsilons[id]; }
    [[nodiscard]] const EpsTransition& epsilon(std::uint32_t id) const { return _epsilons[id]; }

    [[nodiscard]] std::size_t transition_count() const noexcept { return _transitions.size(); }
    [[nodiscard]] std::size_t epsilon_count() const noexcept { return _epsilons.size(); }

    [[nodiscard]] const std::vector<TransId>& transitions_from(StateId state) const {
        return data(state).trans_from;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& epsilons_into(StateId state) const {
        return data(state).eps_into;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& epsilons_from(StateId state) const {
        return data(state).eps_from;
    }

    /// The shared mid-state q_{p,γ} for post* push rules targeting (to, top).
    StateId mid_state(StateId to, Symbol top);

    // --- Canonical witness tie-breaking ------------------------------------
    //
    // Raw ids (StateId of mid-states, TransId, RuleId under lazy
    // materialization) depend on discovery order.  The keys below are pure
    // functions of *content* instead:
    //   state   → its id for a PDA state or a pre-saturation helper (those
    //             are deterministic, and helpers sort after PDA states), or
    //             for a saturation-created mid-state its (owner, symbol)
    //             identity;
    //   rule    → (from, precondition, match-list position), see
    //             Pda::rule_canonical_key;
    //   trans/ε → the (canonical from, canonical to, label) triple.
    // When `canonical_tiebreaks()` is on, equal-weight provenance updates keep
    // the candidate with the smallest canonical key, making the reconstructed
    // witness a pure function of the saturated automaton's content — i.e.
    // independent of discovery order.  The flag is enabled by the
    // translation layer for weighted runs (where the minimal weight level is
    // always fully saturated, see solver.cpp); unit-weight runs keep
    // first-arrival provenance, which the sequential worklist already makes
    // deterministic, so canonical selection there would cost hot-path
    // compares without buying stability.

    [[nodiscard]] bool canonical_tiebreaks() const noexcept { return _canonical_tiebreaks; }
    void set_canonical_tiebreaks(bool on) noexcept { _canonical_tiebreaks = on; }

    /// Stable content key of a state (see above); sortable, run-independent.
    [[nodiscard]] std::uint64_t canonical_state(StateId state) const noexcept {
        return is_control_state(state) ? state : _helpers[state - k_first_helper].key;
    }

    /// Total orders on transition/ε identities and provenance records.
    /// Return <0/0/>0; ids may be k_no_trans/UINT32_MAX sentinels (sorted
    /// first).  Only meaningful for comparing candidates of the *same*
    /// target (equal-weight tie-breaks).
    [[nodiscard]] int compare_trans_identity(std::uint32_t a, std::uint32_t b) const;
    [[nodiscard]] int compare_eps_identity(std::uint32_t a, std::uint32_t b) const;
    [[nodiscard]] int compare_provenance(const Provenance& a, const Provenance& b) const;

    /// True while every transition and ε weight is scalar; together with
    /// Pda::all_weights_scalar() this gates the bucketed worklist.
    [[nodiscard]] bool all_scalar_weights() const noexcept { return _all_weights_scalar; }
    /// Largest scalar transition/ε weight seen (sizes the bucket array).
    [[nodiscard]] std::uint64_t max_scalar_weight() const noexcept {
        return _max_scalar_weight;
    }

private:
    struct StateData {
        std::vector<TransId> trans_from;
        std::vector<std::uint32_t> eps_into;
        std::vector<std::uint32_t> eps_from;
        std::uint64_t key = 0; ///< helpers only, see canonical_state
        bool final = false;
    };

    [[nodiscard]] static std::uint64_t pack(StateId hi, std::uint32_t lo) noexcept {
        return (static_cast<std::uint64_t>(hi) << 32) | lo;
    }
    void note_weight(const Weight& weight) noexcept {
        if (const auto scalar = weight.as_scalar()) {
            if (*scalar > _max_scalar_weight) _max_scalar_weight = *scalar;
        } else {
            _all_weights_scalar = false;
        }
    }
    /// Read view: a PDA state no transition has touched yet has empty tables.
    [[nodiscard]] const StateData& data(StateId state) const {
        if (!is_control_state(state)) return _helpers[state - k_first_helper];
        return state < _control.size() ? _control[state] : k_untouched;
    }
    /// Write view; allocates a PDA state's tables on first touch, which may
    /// move every other PDA state's tables.
    [[nodiscard]] StateData& touch(StateId state) {
        if (!is_control_state(state)) return _helpers[state - k_first_helper];
        if (state >= _control.size()) _control.resize(state + 1);
        return _control[state];
    }

    static const StateData k_untouched;

    const Pda* _pda;
    std::vector<Transition> _transitions;
    std::vector<EpsTransition> _epsilons;
    std::vector<StateData> _control; ///< PDA states [0, size), grown on touch
    std::vector<StateData> _helpers; ///< ids k_first_helper + index
    util::FlatMap64 _concrete_heads; ///< (from,symbol) → head of next_same_key chain
    util::FlatMap64 _eps_index;      ///< (from,to) → ε id
    util::FlatMap64 _mid_states;     ///< (to,top) → state
    bool _all_weights_scalar = true;
    bool _canonical_tiebreaks = false;
    std::uint64_t _max_scalar_weight = 0;
};

} // namespace aalwines::pda
