#include "pda/pda.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace aalwines::pda {

void Pda::set_symbol_class(Symbol symbol, SymbolClass cls) {
    AALWINES_ASSERT(symbol < _alphabet_size, "symbol outside the stack alphabet");
    if (_symbol_classes.size() <= symbol) _symbol_classes.resize(symbol + 1, k_no_class);
    const auto previous = _symbol_classes[symbol];
    if (previous == cls) return;
    _symbol_classes[symbol] = cls;
    // Only the two affected class sets change membership.
    _class_sets[previous].reset();
    _class_sets[cls].reset();
}

namespace {
/// Insert (key, list) keeping `lists` key-ascending, so set-labelled
/// matching visits a state's lists in the same order whatever order lazy
/// demand created them in (appending is the common, eager case).
template <typename Key>
void insert_sorted(std::vector<std::pair<Key, std::uint32_t>>& lists, Key key,
                   std::uint32_t list) {
    auto at = lists.end();
    if (!lists.empty() && key < lists.back().first)
        at = std::lower_bound(lists.begin(), lists.end(), key,
                              [](const auto& entry, Key k) { return entry.first < k; });
    lists.emplace(at, key, list);
}
} // namespace

void Pda::index_rule(RuleId id) {
    auto& rule = _rules[id];
    auto& match = _match_by_state[rule.from];
    auto list = static_cast<std::uint32_t>(_rule_lists.size()); // if a new one is needed
    switch (rule.pre.kind) {
        case PreSpec::Kind::Concrete: {
            const auto key = concrete_key(rule.from, rule.pre.symbol);
            const auto [found, inserted] = _concrete_lists.try_emplace(key, list);
            if (inserted) {
                _rule_lists.emplace_back();
                insert_sorted(match.concrete, rule.pre.symbol, list);
            }
            list = found;
            break;
        }
        case PreSpec::Kind::Class: {
            const auto it = std::find_if(match.classes.begin(), match.classes.end(),
                                         [&](const auto& c) { return c.first == rule.pre.cls; });
            if (it != match.classes.end()) {
                list = it->second;
            } else {
                _rule_lists.emplace_back();
                insert_sorted(match.classes, rule.pre.cls, list);
            }
            break;
        }
        case PreSpec::Kind::Any: {
            if (match.any_list == UINT32_MAX) {
                match.any_list = list;
                _rule_lists.emplace_back();
            }
            list = match.any_list;
            break;
        }
    }
    rule.ord = static_cast<std::uint32_t>(_rule_lists[list].size());
    _rule_lists[list].push_back(id);
}

RuleId Pda::add_rule(Rule rule) {
    AALWINES_ASSERT(rule.from < _match_by_state.size(), "rule.from is not a PDA state");
    AALWINES_ASSERT(rule.to < _match_by_state.size(), "rule.to is not a PDA state");
    AALWINES_ASSERT(rule.op != Rule::OpKind::Swap || rule.label1 < _alphabet_size,
                    "swap rule writes a symbol outside the stack alphabet");
    AALWINES_ASSERT(rule.op != Rule::OpKind::Push ||
                        (rule.label1 < _alphabet_size &&
                         (rule.label2 < _alphabet_size || rule.label2 == k_same_symbol)),
                    "push rule operand outside the stack alphabet");
    AALWINES_ASSERT(rule.pre.kind != PreSpec::Kind::Concrete ||
                        rule.pre.symbol < _alphabet_size,
                    "rule precondition symbol outside the stack alphabet");
    // Reuse a tombstoned slot when one exists (lazy rebase churn), else grow.
    RuleId id;
    if (!_free_rule_slots.empty()) {
        id = _free_rule_slots.back();
        _free_rule_slots.pop_back();
        _dead_rules[id] = false;
    } else {
        id = static_cast<RuleId>(_rules.size());
    }
    ++_rules_added;
    if (const auto scalar = rule.weight.as_scalar()) {
        _max_scalar_weight = std::max(_max_scalar_weight, *scalar);
    } else {
        AALWINES_ASSERT(_provider == nullptr || !_all_weights_scalar,
                        "lazy provider declared scalar weights but emitted a vector one");
        _all_weights_scalar = false;
    }
    if (_provider != nullptr) {
        // Lazy mode: the per-target index is live from the start and filled
        // on demand, rule by rule, instead of by a whole-PDA rebuild.
        switch (rule.op) {
            case Rule::OpKind::Swap: _swaps_into[rule.to].push_back(id); break;
            case Rule::OpKind::Push: _pushes_into[rule.to].push_back(id); break;
            case Rule::OpKind::Pop: break;
        }
    } else {
        _target_index_ready = false;
    }
    if (id < _rules.size()) {
        _rules[id] = std::move(rule);
    } else {
        _rules.push_back(std::move(rule));
        _dead_rules.push_back(false);
    }
    index_rule(id);
    return id;
}

const nfa::SymbolSet& Pda::class_set(SymbolClass cls) const {
    auto& cached = _class_sets[cls];
    if (cached) return *cached;
    std::vector<Symbol> members;
    for (Symbol s = 0; s < _symbol_classes.size(); ++s)
        if (_symbol_classes[s] == cls) members.push_back(s);
    cached = nfa::SymbolSet::of(std::move(members));
    return *cached;
}

nfa::SymbolSet Pda::pre_set(const PreSpec& pre) const {
    switch (pre.kind) {
        case PreSpec::Kind::Concrete: return nfa::SymbolSet::single(pre.symbol);
        case PreSpec::Kind::Class: return class_set(pre.cls);
        case PreSpec::Kind::Any: return nfa::SymbolSet::any();
    }
    return nfa::SymbolSet::none();
}

void Pda::set_rule_provider(RuleProvider* provider, bool weights_scalar_hint) {
    AALWINES_ASSERT(provider != nullptr, "null rule provider");
    AALWINES_ASSERT(_provider == nullptr, "rule provider already attached");
    AALWINES_ASSERT(_rules.empty(), "the provider must be attached before any rule");
    _provider = provider;
    _coverage.assign(state_count(), Coverage::None);
    _generation.assign(state_count(), 0);
    _all_weights_scalar = weights_scalar_hint;
    // The per-target index is filled incrementally by add_rule from now on.
    _swaps_into.assign(state_count(), {});
    _pushes_into.assign(state_count(), {});
    _target_index_ready = true;
}

void Pda::cover(StateId state, Coverage coverage) {
    auto& current = _coverage[state];
    if (current >= coverage) return;
    if (current == Coverage::None) {
        ++_demanded_count;
        telemetry::count(telemetry::Counter::pda_states_materialized);
    }
    if (coverage == Coverage::All) ++_complete_count;
    current = coverage;
}

void Pda::mark_materialized(StateId state) {
    AALWINES_ASSERT(_provider != nullptr, "mark_materialized needs a rule provider");
    cover(state, Coverage::All);
}

bool Pda::claim(StateId state, Symbol symbol) {
    AALWINES_ASSERT(_provider != nullptr, "claims need a rule provider");
    const auto generation = _generation[state];
    const auto key = concrete_key(state, symbol);
    const auto [stored, inserted] = _claims.try_emplace(key, generation);
    if (!inserted) {
        if (stored == generation) return false;
        _claims.insert_or_assign(key, generation); // a claim voided by invalidate_states
    }
    cover(state, Coverage::Some);
    return true;
}

void Pda::demand_symbol(StateId state, Symbol symbol) const {
    // Logically const: filling the memoized rule cache for one slice.
    auto* self = const_cast<Pda*>(this); // NOLINT(cppcoreguidelines-pro-type-const-cast)
    if (self->claim(state, symbol)) request(state, {Demand::Kind::Concrete, symbol, nullptr});
}

void Pda::request(StateId state, const Demand& demand) const {
    auto* self = const_cast<Pda*>(this); // NOLINT(cppcoreguidelines-pro-type-const-cast)
    // A Set demand may match nothing yet still depends on the state's rule
    // set; count the state as demanded either way.
    self->cover(state, demand.kind == Demand::Kind::All ? Coverage::All : Coverage::Some);
    // _rules_added, not _rules.size(): add_rule may be filling reused slots.
    const auto before = _rules_added;
    const auto start = std::chrono::steady_clock::now();
    _provider->materialize(*self, state, demand);
    self->_materialize_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    telemetry::count(telemetry::Counter::pda_rules_materialized, _rules_added - before);
}

void Pda::materialize_all() const {
    if (_provider == nullptr) return;
    // The loop re-reads state_count(): the provider creates chain interiors
    // as it emits, complete at birth, so they are skipped.  Interiors a
    // rebase invalidated are no-op demands.
    for (StateId s = 0; s < state_count(); ++s)
        if (_coverage[s] != Coverage::All) request(s, {});
}

void Pda::build_target_index() const {
    if (_provider != nullptr) {
        // Lazy mode keeps the index live incrementally; a caller that wants
        // the *complete* index (pre*) needs the whole rule set.
        materialize_all();
        return;
    }
    if (_target_index_ready) return;
    _swaps_into.assign(state_count(), {});
    _pushes_into.assign(state_count(), {});
    for (RuleId id = 0; id < _rules.size(); ++id) {
        const auto& rule = _rules[id];
        switch (rule.op) {
            case Rule::OpKind::Swap: _swaps_into[rule.to].push_back(id); break;
            case Rule::OpKind::Push: _pushes_into[rule.to].push_back(id); break;
            case Rule::OpKind::Pop: break; // pre* handles pops at initialization
        }
    }
    _target_index_ready = true;
}

void Pda::remove_rules(const std::vector<RuleId>& discard) {
    AALWINES_ASSERT(_provider == nullptr,
                    "cannot remove rules from a lazy PDA (reduction runs eagerly)");
    if (discard.empty()) return;
    std::vector<Rule> kept;
    kept.reserve(_rules.size() - discard.size());
    std::size_t di = 0;
    for (RuleId id = 0; id < _rules.size(); ++id) {
        if (di < discard.size() && discard[di] == id) {
            ++di;
            continue;
        }
        kept.push_back(std::move(_rules[id]));
    }
    AALWINES_ASSERT(di == discard.size(), "discard list must be sorted and unique");
    _rules = std::move(kept);
    _dead_rules.assign(_rules.size(), false); // eager PDAs never have tombstones
    // Rebuild the match indexes with the new rule ids.
    for (auto& match : _match_by_state) match = StateMatch{};
    _concrete_lists.clear();
    _rule_lists.clear();
    _all_weights_scalar = true;
    _max_scalar_weight = 0;
    for (RuleId id = 0; id < _rules.size(); ++id) {
        index_rule(id);
        if (const auto scalar = _rules[id].weight.as_scalar())
            _max_scalar_weight = std::max(_max_scalar_weight, *scalar);
        else
            _all_weights_scalar = false;
    }
    _target_index_ready = false;
}

void Pda::invalidate_states(const std::vector<StateId>& heads,
                            const std::function<bool(StateId)>& owned) {
    AALWINES_ASSERT(_provider != nullptr,
                    "invalidate_states is the lazy-PDA re-saturation path");
    if (heads.empty()) return;
    // O(dropped rules), never O(all rules): every rule is indexed under its
    // from-state, so a dropped state's match lists enumerate exactly the
    // rules to kill — the chain closure is a plain worklist over them.
    std::vector<bool> drop(state_count(), false);
    std::vector<StateId> dropped;
    dropped.reserve(heads.size());
    const auto push_state = [&](StateId s) {
        AALWINES_ASSERT(s < state_count(), "invalidated state out of range");
        if (drop[s]) return;
        drop[s] = true;
        dropped.push_back(s);
    };
    for (const auto s : heads) push_state(s);
    std::vector<RuleId> dead;
    std::vector<StateId> touched_targets;
    for (std::size_t i = 0; i < dropped.size(); ++i) { // grows during the loop
        auto& match = _match_by_state[dropped[i]];
        // Empty the lists in place: the list slots, the StateMatch entries,
        // and the (state, symbol) keys in _concrete_lists all survive, so a
        // provider re-emitting the identical slices lands in the same lists
        // at the same positions — Rule::ord is reproduced, the canonical-
        // tie-break contract.
        const auto drain = [&](std::uint32_t list) {
            for (const auto id : _rule_lists[list]) {
                const auto& rule = _rules[id];
                dead.push_back(id);
                if (!drop[rule.to] && owned(rule.to)) push_state(rule.to);
                if (rule.op != Rule::OpKind::Pop) touched_targets.push_back(rule.to);
            }
            _rule_lists[list].clear();
        };
        for (const auto& [symbol, list] : match.concrete) drain(list);
        for (const auto& [cls, list] : match.classes) drain(list);
        if (match.any_list != UINT32_MAX) drain(match.any_list);
    }
    std::size_t cleared = 0;
    for (const auto s : dropped) {
        ++_generation[s]; // voids every claim of the state at once
        if (_coverage[s] == Coverage::None) continue;
        if (_coverage[s] == Coverage::All) --_complete_count;
        --_demanded_count;
        _coverage[s] = Coverage::None;
        ++cleared;
    }
    // Tombstone the dead slots for reuse, then strip them from the touched
    // per-target lists — one order-preserving pass per distinct target.  The
    // scalar flag stays the provider's declared hint and _max_scalar_weight
    // a monotone upper bound (it only sizes worklist buckets).
    for (const auto id : dead) {
        _dead_rules[id] = true;
        _free_rule_slots.push_back(id);
    }
    std::sort(touched_targets.begin(), touched_targets.end());
    touched_targets.erase(std::unique(touched_targets.begin(), touched_targets.end()),
                          touched_targets.end());
    for (const auto t : touched_targets) {
        const auto strip = [&](std::vector<RuleId>& list) {
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [&](RuleId id) { return _dead_rules[id]; }),
                       list.end());
        };
        strip(_swaps_into[t]);
        strip(_pushes_into[t]);
    }
    telemetry::count(telemetry::Counter::delta_states_invalidated, cleared);
}

Pda Pda::expand_concrete() const {
    materialize_all(); // the concrete copy is a whole-PDA pass
    Pda out(_alphabet_size);
    for (StateId s = 0; s < state_count(); ++s) out.add_state();
    for (Symbol s = 0; s < _symbol_classes.size(); ++s)
        if (_symbol_classes[s] != k_no_class) out.set_symbol_class(s, _symbol_classes[s]);
    for (RuleId id = 0; id < _rules.size(); ++id) {
        if (_dead_rules[id]) continue;
        const auto& rule = _rules[id];
        if (rule.pre.kind == PreSpec::Kind::Concrete) {
            auto concrete = rule;
            if (concrete.op == Rule::OpKind::Push && concrete.label2 == k_same_symbol)
                concrete.label2 = concrete.pre.symbol;
            out.add_rule(std::move(concrete));
            continue;
        }
        for (const auto symbol : pre_set(rule.pre).materialize(_alphabet_size)) {
            auto concrete = rule;
            concrete.pre = PreSpec::concrete(symbol);
            if (concrete.op == Rule::OpKind::Push && concrete.label2 == k_same_symbol)
                concrete.label2 = symbol;
            out.add_rule(std::move(concrete));
        }
    }
    return out;
}

} // namespace aalwines::pda
