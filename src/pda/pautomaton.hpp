#pragma once
// P-automata: NFAs over the PDA stack alphabet whose states include every
// PDA control state.  A configuration (p, γ₁…γₙ) is accepted iff the word
// γ₁…γₙ (top first) is read from state p to a final state.
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
    /// States [0, pda.state_count()) mirror the PDA control states.
    explicit PAutomaton(const Pda& pda);

    [[nodiscard]] const Pda& pda() const noexcept { return *_pda; }

    StateId add_state();
    void set_final(StateId state, bool final = true);
    [[nodiscard]] bool is_final(StateId state) const { return _final[state]; }
    [[nodiscard]] bool is_control_state(StateId state) const noexcept {
        return state < _control_count;
    }
    [[nodiscard]] std::size_t state_count() const noexcept { return _trans_from.size(); }

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
        return _trans_from[state];
    }
    [[nodiscard]] const std::vector<std::uint32_t>& epsilons_into(StateId state) const {
        return _eps_by_target[state];
    }
    [[nodiscard]] const std::vector<std::uint32_t>& epsilons_from(StateId state) const {
        return _eps_from[state];
    }

    /// The shared mid-state q_{p,γ} for post* push rules targeting (to, top).
    StateId mid_state(StateId to, Symbol top);

    // --- Canonical witness tie-breaking ------------------------------------
    //
    // Raw ids (StateId of mid-states, TransId, RuleId under lazy
    // materialization) depend on discovery order.  The keys below are pure
    // functions of *content* instead:
    //   state   → its pre-saturation id (those are deterministic), or for a
    //             saturation-created mid-state its (owner, symbol) identity;
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
        return _canonical_key[state];
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

    const Pda* _pda;
    std::size_t _control_count;
    std::vector<bool> _final;
    std::vector<Transition> _transitions;
    std::vector<EpsTransition> _epsilons;
    std::vector<std::vector<TransId>> _trans_from;
    std::vector<std::vector<std::uint32_t>> _eps_by_target;
    std::vector<std::vector<std::uint32_t>> _eps_from;
    util::FlatMap64 _concrete_heads; ///< (from,symbol) → head of next_same_key chain
    util::FlatMap64 _eps_index;      ///< (from,to) → ε id
    util::FlatMap64 _mid_states;     ///< (to,top) → state
    std::vector<std::uint64_t> _canonical_key; ///< per state, see canonical_state
    bool _all_weights_scalar = true;
    bool _canonical_tiebreaks = false;
    std::uint64_t _max_scalar_weight = 0;
};

} // namespace aalwines::pda
