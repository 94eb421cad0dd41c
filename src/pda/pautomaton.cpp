#include "pda/pautomaton.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aalwines::pda {

int canonical_compare(const EdgeLabel& a, const EdgeLabel& b) {
    if (a.is_concrete() != b.is_concrete()) return a.is_concrete() ? -1 : 1;
    if (a.is_concrete()) {
        if (a.concrete != b.concrete) return a.concrete < b.concrete ? -1 : 1;
        return 0;
    }
    if (a.set.mode() != b.set.mode())
        return static_cast<int>(a.set.mode()) < static_cast<int>(b.set.mode()) ? -1 : 1;
    const auto& as = a.set.symbols();
    const auto& bs = b.set.symbols();
    const std::size_t n = std::min(as.size(), bs.size());
    for (std::size_t i = 0; i < n; ++i)
        if (as[i] != bs[i]) return as[i] < bs[i] ? -1 : 1;
    if (as.size() != bs.size()) return as.size() < bs.size() ? -1 : 1;
    return 0;
}

namespace {
[[nodiscard]] int cmp_u64(std::uint64_t a, std::uint64_t b) {
    return a == b ? 0 : (a < b ? -1 : 1);
}
} // namespace

const PAutomaton::StateData PAutomaton::k_untouched{};

StateId PAutomaton::add_state() {
    const auto id = static_cast<StateId>(k_first_helper + _helpers.size());
    AALWINES_ASSERT(id >= k_first_helper, "P-automaton helper ids exhausted");
    // Pre-saturation helpers (NFA copies) are created in a deterministic
    // order, so their id doubles as the canonical key; mid_state() overrides
    // this for saturation-created states.
    _helpers.push_back({{}, {}, {}, id, false});
    return id;
}

void PAutomaton::set_final(StateId state, bool final) {
    AALWINES_ASSERT(has_state(state), "set_final on an unknown state");
    touch(state).final = final;
}

void PAutomaton::cover_pda_states() {
    if (_control.size() < _pda->state_count()) _control.resize(_pda->state_count());
}

int PAutomaton::compare_trans_identity(std::uint32_t a, std::uint32_t b) const {
    if (a == b) return 0;
    if (a == k_no_trans || b == k_no_trans) return a == k_no_trans ? -1 : 1;
    const Transition& ta = _transitions[a];
    const Transition& tb = _transitions[b];
    if (const int c = cmp_u64(canonical_state(ta.from), canonical_state(tb.from))) return c;
    if (const int c = cmp_u64(canonical_state(ta.to), canonical_state(tb.to))) return c;
    return canonical_compare(ta.label, tb.label);
}

int PAutomaton::compare_eps_identity(std::uint32_t a, std::uint32_t b) const {
    if (a == b) return 0;
    if (a == UINT32_MAX || b == UINT32_MAX) return a == UINT32_MAX ? -1 : 1;
    const EpsTransition& ea = _epsilons[a];
    const EpsTransition& eb = _epsilons[b];
    if (const int c = cmp_u64(canonical_state(ea.from), canonical_state(eb.from))) return c;
    return cmp_u64(canonical_state(ea.to), canonical_state(eb.to));
}

int PAutomaton::compare_provenance(const Provenance& a, const Provenance& b) const {
    if (a.kind != b.kind)
        return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
    if (a.rule != b.rule) {
        if (a.rule == UINT32_MAX || b.rule == UINT32_MAX)
            return a.rule == UINT32_MAX ? -1 : 1;
        const auto ka = _pda->rule_canonical_key(a.rule);
        const auto kb = _pda->rule_canonical_key(b.rule);
        if (ka != kb) return ka < kb ? -1 : 1;
    }
    // `a` is an ε id for PostCombine, a TransId everywhere else; `b` is
    // always a TransId (PostCombine's second component, PrePush's t2).
    if (a.kind == Provenance::Kind::PostCombine) {
        if (const int c = compare_eps_identity(a.a, b.a)) return c;
    } else {
        if (const int c = compare_trans_identity(a.a, b.a)) return c;
    }
    return compare_trans_identity(a.b, b.b);
}

std::pair<TransId, bool> PAutomaton::add_transition(StateId from, EdgeLabel label,
                                                    StateId to, Weight weight,
                                                    Provenance prov) {
    AALWINES_ASSERT(has_state(from) && has_state(to),
                    "transition endpoint is not an automaton state");
    if (label.is_concrete()) {
        note_weight(weight);
        const std::uint64_t key = pack(from, label.concrete);
        const TransId id = static_cast<TransId>(_transitions.size());
        const auto [head, inserted] = _concrete_heads.try_emplace(key, id);
        if (!inserted) {
            // Walk the (short) chain of transitions sharing (from, symbol).
            TransId last = head;
            for (TransId cur = head; cur != k_no_trans;
                 last = cur, cur = _transitions[cur].next_same_key) {
                if (_transitions[cur].to != to) continue;
                auto& existing = _transitions[cur];
                if (weight < existing.weight) {
                    // Monotone (Dijkstra) processing never improves a finalized
                    // transition; a relaxation can only hit pending ones.
                    AALWINES_ASSERT(!existing.finalized,
                                    "relaxation of a finalized transition");
                    existing.weight = std::move(weight);
                    existing.prov = prov;
                    return {cur, true};
                }
                // Equal-weight re-derivation: keep the canonically smallest
                // provenance so the witness does not depend on arrival order.
                if (_canonical_tiebreaks && weight == existing.weight &&
                    compare_provenance(prov, existing.prov) < 0)
                    existing.prov = prov;
                return {cur, false};
            }
            _transitions[last].next_same_key = id;
        }
        _transitions.push_back({from, to, label, std::move(weight), prov, k_no_trans, false});
        touch(from).trans_from.push_back(id);
        return {id, true};
    }
    // Set-labelled: linear scan over the (few) set edges out of `from`.
    for (const auto id : transitions_from(from)) {
        auto& existing = _transitions[id];
        if (existing.to != to || existing.label.is_concrete()) continue;
        if (!(existing.label == label)) continue;
        if (weight < existing.weight) {
            AALWINES_ASSERT(!existing.finalized, "relaxation of a finalized transition");
            existing.weight = std::move(weight);
            existing.prov = prov;
            return {id, true};
        }
        if (_canonical_tiebreaks && weight == existing.weight &&
            compare_provenance(prov, existing.prov) < 0)
            existing.prov = prov;
        return {id, false};
    }
    note_weight(weight);
    const TransId id = static_cast<TransId>(_transitions.size());
    _transitions.push_back({from, to, std::move(label), std::move(weight), prov, k_no_trans, false});
    touch(from).trans_from.push_back(id);
    return {id, true};
}

std::pair<std::uint32_t, bool> PAutomaton::add_epsilon(StateId from, StateId to,
                                                       Weight weight, Provenance prov) {
    const auto id = static_cast<std::uint32_t>(_epsilons.size());
    const auto [existing_id, inserted] = _eps_index.try_emplace(pack(from, to), id);
    if (!inserted) {
        auto& existing = _epsilons[existing_id];
        if (weight < existing.weight) {
            AALWINES_ASSERT(!existing.finalized, "relaxation of a finalized epsilon");
            existing.weight = std::move(weight);
            existing.prov = prov;
            return {existing_id, true};
        }
        if (_canonical_tiebreaks && weight == existing.weight &&
            compare_provenance(prov, existing.prov) < 0)
            existing.prov = prov;
        return {existing_id, false};
    }
    note_weight(weight);
    _epsilons.push_back({from, to, std::move(weight), prov, false});
    touch(to).eps_into.push_back(id);
    touch(from).eps_from.push_back(id);
    return {id, true};
}

StateId PAutomaton::mid_state(StateId to, Symbol top) {
    if (const auto found = _mid_states.find(pack(to, top)); found != util::FlatMap64::k_npos)
        return found;
    const auto state = add_state();
    _mid_states.try_emplace(pack(to, top), state);
    // Mid-states are the only helpers created *during* saturation; their raw
    // id depends on discovery order, but their (owner, pushed-symbol)
    // identity does not.  The high bit sorts them after every
    // pre-saturation state.
    _helpers[state - k_first_helper].key = (std::uint64_t{1} << 63) | pack(to, top);
    return state;
}

} // namespace aalwines::pda
