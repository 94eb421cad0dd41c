#include "verify/translation.hpp"

#include <algorithm>
#include <set>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace aalwines::verify {

using nfa::Regex;
using nfa::SymbolSet;

nfa::Regex valid_header_regex(const LabelTable& labels) {
    // Top-first: mpls* smpls ip | ip.
    auto mpls = Regex::atom(SymbolSet::of(labels.of_type(LabelType::Mpls)));
    auto smpls = Regex::atom(SymbolSet::of(labels.of_type(LabelType::MplsBos)));
    auto ip = Regex::atom(SymbolSet::of(labels.of_type(LabelType::Ip)));
    std::vector<Regex> tunnel;
    tunnel.push_back(Regex::star(std::move(mpls)));
    tunnel.push_back(std::move(smpls));
    tunnel.push_back(ip);
    std::vector<Regex> branches;
    branches.push_back(Regex::concat(std::move(tunnel)));
    branches.push_back(std::move(ip));
    return Regex::alt(std::move(branches));
}

namespace {
/// Possible strata of an unknown top-of-stack symbol during a chain.
struct TopDescriptor {
    Label known = k_invalid_label; ///< concrete symbol, if known
    bool mpls = false, bos = false, ip = false;

    [[nodiscard]] static TopDescriptor of(Label label) {
        TopDescriptor d;
        d.known = label;
        return d;
    }
    [[nodiscard]] bool is_known() const { return known != k_invalid_label; }
};

/// Strata that may lie directly below a label of type `type` in a valid
/// header: below mpls is mpls|smpls, below smpls is ip, below ip nothing.
TopDescriptor below_of(LabelType type) {
    TopDescriptor d;
    switch (type) {
        case LabelType::Mpls: d.mpls = d.bos = true; break;
        case LabelType::MplsBos: d.ip = true; break;
        case LabelType::Ip: break;
    }
    return d;
}

pda::SymbolClass class_id(LabelType type) { return static_cast<pda::SymbolClass>(type); }
} // namespace

CompiledNfas compile_query_nfas(const Network& network, const query::Query& query) {
    AALWINES_SPAN("compile_query_nfas");
    CompiledNfas nfas;
    nfas.path = nfa::Nfa::compile(query.path);
    const auto header_nfa = nfa::Nfa::compile(valid_header_regex(network.labels));
    nfas.initial_header =
        nfa::Nfa::intersection(nfa::Nfa::compile(query.initial_header), header_nfa);
    nfas.final_header =
        nfa::Nfa::intersection(nfa::Nfa::compile(query.final_header), header_nfa);
    return nfas;
}

Translation::Translation(const Network& network, const query::Query& query,
                         const TranslationOptions& options)
    : _network(&network), _query(&query), _options(options) {
    AALWINES_SPAN("translate");
    if (options.nfas != nullptr) {
        _nfa_b = options.nfas->path;
        _nfa_a = options.nfas->initial_header;
        _nfa_c = options.nfas->final_header;
    } else {
        auto nfas = compile_query_nfas(network, query);
        _nfa_b = std::move(nfas.path);
        _nfa_a = std::move(nfas.initial_header);
        _nfa_c = std::move(nfas.final_header);
    }
    _failure_slots = _options.approximation == Approximation::Under
                         ? static_cast<std::uint32_t>(query.max_failures) + 1
                         : 1;
    if (_options.approximation == Approximation::Exact && _options.failed_links == nullptr)
        throw model_error("exact translation requires a concrete failure set");

    _pda = std::make_unique<pda::Pda>(static_cast<pda::Symbol>(network.labels.size()));
    for (Label label = 0; label < network.labels.size(); ++label)
        _pda->set_symbol_class(label, class_id(network.labels.type_of(label)));

    build_control_states();
    build_move_index();
    if (_options.lazy) {
        _lazy = true;
        build_lazy_index();
        // The bucketed-worklist decision is made before any rule exists, so
        // declare up front whether every step weight will be scalar: the
        // weight vector's arity is fixed by the expression (≤ 1 component ⇒
        // scalar, matching what the eager translation would report).
        const bool scalar_weights =
            _options.weights == nullptr || _options.weights->size() <= 1;
        _pda->set_rule_provider(this, scalar_weights);
    } else {
        build_rules();
        _total_rules = _pda->rule_count();
        telemetry::count(telemetry::Counter::pda_rules_emitted, _pda->rule_count());
    }
    // Lazily, chain interiors are counted as materialize() creates them.
    telemetry::count(telemetry::Counter::pda_states_interned, _pda->state_count());
    telemetry::count(telemetry::Counter::pda_rules_total, _total_rules);
}

pda::StateId Translation::control_state(LinkId link, std::uint32_t nfa_state,
                                        std::uint32_t failures) const {
    const auto n_links = static_cast<std::uint32_t>(_network->topology.link_count());
    const auto n_q = static_cast<std::uint32_t>(_nfa_b.size());
    AALWINES_ASSERT(link < n_links && nfa_state < n_q && failures < _failure_slots,
                    "control state components out of range");
    return (failures * n_q + nfa_state) * n_links + link;
}

void Translation::build_control_states() {
    const auto n_links = _network->topology.link_count();
    const auto n_control = _failure_slots * _nfa_b.size() * n_links;
    _pda->reserve_states(n_control);
    _control_info.reserve(n_control);
    for (std::uint32_t f = 0; f < _failure_slots; ++f) {
        for (std::uint32_t q = 0; q < _nfa_b.size(); ++q) {
            for (std::uint32_t e = 0; e < n_links; ++e) {
                const auto state = _pda->add_state();
                AALWINES_ASSERT(state == control_state(e, q, f),
                                "control state numbering out of sync");
                (void)state;
                _control_info.push_back({static_cast<LinkId>(e), q, f, false});
                if (_nfa_b.states()[q].accepting)
                    _accepting_states.push_back(control_state(e, q, f));
            }
        }
    }
    compute_initial_states();
}

void Translation::compute_initial_states() {
    // Initial configurations: the packet has just traversed any link e₁ the
    // path NFA can start with; no failures consumed yet.  Administratively
    // down links never start a trace (they are failed in every scenario).
    std::set<pda::StateId> initial;
    const auto domain = static_cast<nfa::Symbol>(_network->topology.link_count());
    for (const auto q0 : _nfa_b.initial()) {
        for (const auto& edge : _nfa_b.states()[q0].edges) {
            for (const auto link : edge.symbols.materialize(domain)) {
                if (!_network->topology.link_up(link)) continue;
                if (_options.approximation == Approximation::Exact &&
                    _options.failed_links->contains(link))
                    continue; // a trace cannot start on a failed link
                initial.insert(control_state(link, edge.target, 0));
            }
        }
    }
    _initial_states.assign(initial.begin(), initial.end());
}

pda::Weight Translation::make_step_weight(const ForwardingRule& rule,
                                          std::uint64_t local_failures) const {
    if (_options.weights == nullptr || _options.weights->empty()) return pda::Weight::one();
    std::vector<std::uint64_t> components;
    components.reserve(_options.weights->size());
    for (const auto& expr : _options.weights->priorities)
        components.push_back(
            step_weight(*_network, expr, rule.out_link, rule.ops, local_failures));
    return pda::Weight::of(std::move(components));
}

pda::Weight Translation::make_initial_weight(LinkId first_link) const {
    if (_options.weights == nullptr || _options.weights->empty()) return pda::Weight::one();
    std::vector<std::uint64_t> components;
    components.reserve(_options.weights->size());
    for (const auto& expr : _options.weights->priorities)
        components.push_back(initial_weight(*_network, expr, first_link));
    return pda::Weight::of(std::move(components));
}

void Translation::build_move_index() {
    // Invert the path NFA once: the (q --link--> q') moves grouped by link,
    // in the same (q, edge) order the per-rule scan used to visit them.
    const auto n_links = _network->topology.link_count();
    _moves_by_link.assign(n_links, {});
    const auto domain = static_cast<nfa::Symbol>(n_links);
    for (std::uint32_t q = 0; q < _nfa_b.size(); ++q)
        for (const auto& edge : _nfa_b.states()[q].edges)
            for (const auto link : edge.symbols.materialize(domain))
                _moves_by_link[link].emplace_back(q, edge.target);
}

/// Counting sink for walk_chain: tallies the rules a chain would emit
/// without touching the PDA — the lazy eager-equivalent rule total.
struct Translation::CountSink {
    std::size_t rules = 0;
    void step(std::size_t /*index*/, bool /*last*/) {}
    void rule(pda::PreSpec /*pre*/, pda::Rule::OpKind /*op*/, pda::Symbol /*l1*/,
              pda::Symbol /*l2*/) {
        ++rules;
    }
};

/// Emitting sink for walk_chain: creates interior states and adds the
/// rules.  The step weight and trace tag ride on the first rule of the
/// chain only.
struct Translation::EmitSink {
    Translation& t;
    pda::StateId from;
    pda::StateId target;
    pda::Weight weight;
    std::uint32_t tag;
    pda::StateId to = 0;
    std::size_t index = 0;

    void step(std::size_t i, bool last) {
        index = i;
        if (i > 0) from = to;
        to = last ? target : t.new_chain_state();
    }
    void rule(pda::PreSpec pre, pda::Rule::OpKind op, pda::Symbol l1, pda::Symbol l2) {
        t._pda->add_rule({from, to, pre, op, l1, l2,
                          index == 0 ? weight : pda::Weight::one(),
                          index == 0 ? tag : UINT32_MAX});
    }
};

template <typename Sink>
void Translation::walk_chain(Label top, const std::vector<Op>& ops, Sink& sink) const {
    const auto& labels = _network->labels;

    // Pre-check the statically-known prefix so we do not emit half a chain.
    {
        TopDescriptor d = TopDescriptor::of(top);
        for (const auto& op : ops) {
            if (!d.is_known()) break; // runtime class branching takes over
            if (!op_applicable(labels, d.known, op)) return; // chain can never fire
            switch (op.kind) {
                case Op::Kind::Swap: d = TopDescriptor::of(op.label); break;
                case Op::Kind::Push: d = TopDescriptor::of(op.label); break;
                case Op::Kind::Pop: d = below_of(labels.type_of(d.known)); break;
            }
        }
    }

    if (ops.empty()) {
        // Plain forwarding: keep the top label, move to the target state.
        sink.step(0, /*last=*/true);
        sink.rule(pda::PreSpec::concrete(top), pda::Rule::OpKind::Swap, top,
                  pda::k_no_symbol);
        return;
    }

    TopDescriptor desc = TopDescriptor::of(top);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto& op = ops[i];
        // The interior state (when not last) is created before the
        // applicability check, matching the historical emission order —
        // chains that die mid-walk still create their interiors.
        sink.step(i, i + 1 == ops.size());

        if (desc.is_known()) {
            const Label s = desc.known;
            if (!op_applicable(labels, s, op)) return; // dead chain (unknown-path)
            switch (op.kind) {
                case Op::Kind::Swap:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Swap, op.label,
                              pda::k_no_symbol);
                    desc = TopDescriptor::of(op.label);
                    break;
                case Op::Kind::Push:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Push, op.label,
                              s);
                    desc = TopDescriptor::of(op.label);
                    break;
                case Op::Kind::Pop:
                    sink.rule(pda::PreSpec::concrete(s), pda::Rule::OpKind::Pop,
                              pda::k_no_symbol, pda::k_no_symbol);
                    desc = below_of(labels.type_of(s));
                    break;
            }
        } else {
            // Unknown top: emit one class-guarded rule per possible stratum
            // on which the operation is defined.
            TopDescriptor next_desc; // union over branches
            bool emitted = false;
            const LabelType strata[] = {LabelType::Mpls, LabelType::MplsBos, LabelType::Ip};
            const bool allowed[] = {desc.mpls, desc.bos, desc.ip};
            for (int b = 0; b < 3; ++b) {
                if (!allowed[b]) continue;
                const auto stratum = strata[b];
                // A representative check: op applicability depends only on
                // the stratum of the top symbol.
                bool applicable = false;
                switch (op.kind) {
                    case Op::Kind::Swap:
                        applicable = labels.type_of(op.label) == stratum;
                        break;
                    case Op::Kind::Pop:
                        applicable = stratum != LabelType::Ip;
                        break;
                    case Op::Kind::Push: {
                        const auto pushed = labels.type_of(op.label);
                        applicable = (pushed == LabelType::Mpls &&
                                      stratum != LabelType::Ip) ||
                                     (pushed == LabelType::MplsBos &&
                                      stratum == LabelType::Ip);
                        break;
                    }
                }
                if (!applicable) continue;
                emitted = true;
                const auto pre = pda::PreSpec::of_class(class_id(stratum));
                switch (op.kind) {
                    case Op::Kind::Swap:
                        sink.rule(pre, pda::Rule::OpKind::Swap, op.label, pda::k_no_symbol);
                        next_desc = TopDescriptor::of(op.label);
                        break;
                    case Op::Kind::Push:
                        sink.rule(pre, pda::Rule::OpKind::Push, op.label,
                                  pda::k_same_symbol);
                        next_desc = TopDescriptor::of(op.label);
                        break;
                    case Op::Kind::Pop: {
                        sink.rule(pre, pda::Rule::OpKind::Pop, pda::k_no_symbol,
                                  pda::k_no_symbol);
                        const auto branch_below = below_of(stratum);
                        next_desc.mpls = next_desc.mpls || branch_below.mpls;
                        next_desc.bos = next_desc.bos || branch_below.bos;
                        next_desc.ip = next_desc.ip || branch_below.ip;
                        next_desc.known = k_invalid_label;
                        break;
                    }
                }
            }
            if (!emitted) return; // no stratum admits this op: dead chain
            desc = next_desc;
        }
    }
}

pda::StateId Translation::new_chain_state() {
    const auto state = _pda->add_state();
    _control_info.push_back({k_invalid_id, 0, 0, true});
    if (_lazy) _pda->mark_materialized(state); // never demanded on its own
    return state;
}

void Translation::build_rules() {
    // Upper-bound the rule count (ignores failure-budget pruning and dead
    // chains) so the rule vector and its match indexes allocate once.
    std::size_t estimated_rules = 0;
    _network->routing.for_each([&](LinkId, Label, const RoutingEntry& groups) {
        for (const auto& group : groups)
            for (const auto& rule : group)
                estimated_rules += _moves_by_link[rule.out_link].size() *
                                   std::max<std::size_t>(rule.ops.size(), 1);
    });
    _pda->reserve_rules(estimated_rules * _failure_slots);

    _network->routing.for_each([this](LinkId in_link, Label label, const RoutingEntry& groups) {
        add_entry_rules(in_link, label, groups);
    });
}

void Translation::build_entry_index() {
    const auto n_links = _network->topology.link_count();
    _links_into.clear();
    _entries_by_link.assign(n_links, {});
    _network->routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        _entries_by_link[in_link].emplace_back(label, &groups);
    });
}

std::size_t Translation::count_link(LinkId in_link) const {
    const auto k = _query->max_failures;
    std::size_t rules = 0;
    for (const auto& [label, entry] : _entries_by_link[in_link]) {
        for_entry_rules(in_link, *entry,
                        [&](const ForwardingRule& rule, std::uint64_t local_failures) {
            // One rule-free chain walk per (entry, forwarding rule): the
            // chain's shape depends only on (top label, ops), so its count
            // multiplies across the path-NFA moves and failure slots.
            CountSink counts;
            walk_chain(label, rule.ops, counts);
            std::size_t slots = 1;
            if (_options.approximation == Approximation::Under)
                slots = static_cast<std::size_t>(k - local_failures) + 1;
            rules += counts.rules * _moves_by_link[rule.out_link].size() * slots;
        });
    }
    return rules;
}

void Translation::build_lazy_index() {
    AALWINES_SPAN("build_lazy_index");
    build_entry_index();
    const auto n_links = _network->topology.link_count();
    _link_rules.assign(n_links, 0);
    for (LinkId l = 0; l < n_links; ++l) {
        _link_rules[l] = count_link(l);
        _total_rules += _link_rules[l];
    }
}

template <typename RuleFn>
void Translation::for_entry_rules(LinkId in_link, const RoutingEntry& groups,
                                  RuleFn&& fn) const {
    // Administratively-down links are failed for free in every scenario:
    // packets never arrive on one, rules never forward over one, and a
    // fully-down group is skipped without charging the failure budget.
    const auto& topology = _network->topology;
    if (!topology.link_up(in_link)) return;
    if (_options.approximation == Approximation::Exact) {
        const auto& failed = *_options.failed_links;
        if (failed.contains(in_link)) return; // packets never arrive here
        // Definition 4, exactly: the first TE group with an active link
        // forwards; higher-priority groups are fully failed (down links for
        // free, up links charged through the scenario's failure set F).
        std::set<LinkId> higher_priority_links;
        for (const auto& group : groups) {
            std::vector<const ForwardingRule*> active;
            for (const auto& rule : group)
                if (!failed.contains(rule.out_link) && topology.link_up(rule.out_link))
                    active.push_back(&rule);
            if (active.empty()) {
                for (const auto& rule : group)
                    if (topology.link_up(rule.out_link))
                        higher_priority_links.insert(rule.out_link);
                continue;
            }
            const auto local_failures =
                static_cast<std::uint64_t>(higher_priority_links.size());
            for (const auto* rule : active) fn(*rule, local_failures);
            return; // only the first active group forwards
        }
        return;
    }
    const auto k = _query->max_failures;
    std::set<LinkId> higher_priority_links;
    for (const auto& group : groups) {
        const auto local_failures = static_cast<std::uint64_t>(higher_priority_links.size());
        if (local_failures <= k)
            for (const auto& rule : group)
                if (topology.link_up(rule.out_link)) fn(rule, local_failures);
        for (const auto& rule : group)
            if (topology.link_up(rule.out_link))
                higher_priority_links.insert(rule.out_link);
    }
}

void Translation::add_entry_rules(LinkId in_link, Label label, const RoutingEntry& groups,
                                  std::uint32_t only_q, std::uint32_t only_f) {
    const auto k = _query->max_failures;
    for_entry_rules(in_link, groups,
                    [&](const ForwardingRule& rule, std::uint64_t local_failures) {
        // A rule fires for every path-NFA move that consumes its out-link,
        // from every (in_link, q [, f]) control state — or just the
        // (only_q, only_f) slice when one state is materialized on demand.
        for (const auto& [q, q_next] : _moves_by_link[rule.out_link]) {
            if (only_q != k_any && q != only_q) continue;
            for (std::uint32_t f = 0; f < _failure_slots; ++f) {
                if (only_f != k_any && f != only_f) continue;
                std::uint32_t f_next = f;
                if (_options.approximation == Approximation::Under) {
                    if (f + local_failures > k) continue;
                    f_next = f + static_cast<std::uint32_t>(local_failures);
                }
                const auto from = control_state(in_link, q, f);
                const auto to = control_state(rule.out_link, q_next, f_next);
                const auto tag = static_cast<std::uint32_t>(_steps.size());
                _steps.push_back(
                    {rule.out_link, static_cast<std::uint32_t>(local_failures)});
                add_chain(from, label, rule, to,
                          make_step_weight(rule, local_failures), tag);
            }
        }
    });
}

void Translation::materialize(pda::Pda& pda, pda::StateId state, const pda::Demand& demand) {
    AALWINES_ASSERT(&pda == _pda.get(), "provider bound to a different PDA");
    // A copy: emitting chains appends interiors to _control_info.
    const auto info = _control_info[state];
    if (info.chain) return; // interiors were emitted with their owning chain
    const auto& bucket = _entries_by_link[info.link];
    const auto states_before = pda.state_count();
    const auto emit = [&](Label label, const RoutingEntry& entry) {
        add_entry_rules(info.link, label, entry, info.nfa_state, info.failures);
    };
    switch (demand.kind) {
        case pda::Demand::Kind::Concrete: {
            // Claimed by the PDA already, even when no entry exists.
            const auto it = std::lower_bound(
                bucket.begin(), bucket.end(), demand.symbol,
                [](const auto& entry, Label label) { return entry.first < label; });
            if (it != bucket.end() && it->first == demand.symbol) emit(it->first, *it->second);
            break;
        }
        case pda::Demand::Kind::Set:
            for (const auto& [label, entry] : bucket)
                if (demand.set->contains(label) && pda.claim(state, label)) emit(label, *entry);
            break;
        case pda::Demand::Kind::All:
            for (const auto& [label, entry] : bucket)
                if (!pda.claimed(state, label)) emit(label, *entry);
            break;
    }
    telemetry::count(telemetry::Counter::pda_states_interned,
                     pda.state_count() - states_before);
}

void Translation::add_chain(pda::StateId from, Label top, const ForwardingRule& rule,
                            pda::StateId target, pda::Weight weight, std::uint32_t tag) {
    EmitSink sink{*this, from, target, std::move(weight), tag};
    walk_chain(top, rule.ops, sink);
}

std::vector<char> Translation::affected_links(
    const std::vector<bool>& dirty, const std::vector<bool>& behavior_dirty) const {
    const auto n_links = _network->topology.link_count();
    const auto dirty_at = [](const std::vector<bool>& bits, LinkId l) {
        return l < bits.size() && bits[l];
    };
    std::vector<char> affected(n_links, 0);
    // The into-scan is only needed when some out-link *behavior* changed;
    // the common delta (a routing-entry edit) leaves behavior_dirty empty
    // and the affected set is just the dirty set.
    const bool scan_out_links =
        std::find(behavior_dirty.begin(), behavior_dirty.end(), true) !=
        behavior_dirty.end();
    for (LinkId l = 0; l < n_links; ++l)
        if (dirty_at(dirty, l)) affected[l] = 1;
    if (!scan_out_links) return affected;
    if (_links_into.empty()) {
        // Invert the out-link relation once; later queries are O(|dirty| +
        // |result|) instead of a full table scan per call.  The index stays
        // valid until a rebase replaces an affected entry list.
        _links_into.assign(n_links, {});
        for (LinkId l = 0; l < n_links; ++l) {
            for (const auto& [label, entry] : _entries_by_link[l]) {
                (void)label;
                for (const auto& group : *entry)
                    for (const auto& rule : group)
                        _links_into[rule.out_link].push_back(l);
            }
        }
        for (auto& into : _links_into) {
            std::sort(into.begin(), into.end());
            into.erase(std::unique(into.begin(), into.end()), into.end());
        }
    }
    for (LinkId out = 0; out < n_links; ++out)
        if (dirty_at(behavior_dirty, out))
            for (const auto l : _links_into[out]) affected[l] = 1;
    return affected;
}

void Translation::add_to_footprint(LinkFootprint& fp) const {
    AALWINES_ASSERT(_lazy, "footprint snapshots need a demand-driven translation");
    const auto n_links = _network->topology.link_count();
    if (fp.materialized.size() < n_links) fp.materialized.resize(n_links, false);
    if (fp.out_links.size() < n_links) fp.out_links.resize(n_links, false);
    if (fp.initial.size() < n_links) fp.initial.resize(n_links, false);
    const auto n_control = _failure_slots * _nfa_b.size() * n_links;
    for (pda::StateId s = 0; s < n_control; ++s)
        if (_pda->is_demanded(s)) fp.materialized[_control_info[s].link] = true;
    // Only a materialized link's rules can be invalidated by an out-link
    // flip (the affected_links into-scan restricted to where it matters).
    for (LinkId l = 0; l < n_links; ++l) {
        if (!fp.materialized[l]) continue;
        for (const auto& [label, entry] : _entries_by_link[l]) {
            (void)label;
            for (const auto& group : *entry)
                for (const auto& rule : group) fp.out_links[rule.out_link] = true;
        }
    }
    const auto domain = static_cast<nfa::Symbol>(n_links);
    for (const auto q0 : _nfa_b.initial())
        for (const auto& edge : _nfa_b.states()[q0].edges)
            for (const auto link : edge.symbols.materialize(domain))
                fp.initial[link] = true;
}

void Translation::rebase(const Network& network, const std::vector<bool>& dirty,
                         const std::vector<bool>& behavior_dirty) {
    AALWINES_SPAN("rebase");
    AALWINES_ASSERT(_lazy, "rebase needs a demand-driven translation");
    AALWINES_ASSERT(network.topology.link_count() == _network->topology.link_count(),
                    "rebase cannot change the link set");
    AALWINES_ASSERT(network.labels.size() == _network->labels.size(),
                    "rebase cannot mint labels (cold rebuild required)");

    // The affected set can be computed against either table view: for an
    // unaffected link both generations hold identical entries.  Use the old
    // index before any of its RoutingEntry pointers can dangle.
    const auto affected = affected_links(dirty, behavior_dirty);
    const auto n_control =
        _failure_slots * _nfa_b.size() * _network->topology.link_count();
    std::vector<pda::StateId> heads;
    for (pda::StateId s = 0; s < n_control; ++s)
        if (_pda->is_demanded(s) && affected[_control_info[s].link])
            heads.push_back(s);

    _network = &network;
    // Re-bucket only the affected links against the patched table.  An
    // unaffected link's bucket stays valid verbatim: entries are shared_ptr-
    // shared across copy-on-write generations, so the new table holds the
    // very objects the old pointers reference (and every generation in the
    // chain keeps them alive).  The into-index survives unless an affected
    // bucket actually changed — a pure link-state flip never replaces one.
    bool entries_changed = false;
    for (LinkId l = 0; l < affected.size(); ++l) {
        if (!affected[l]) continue;
        std::vector<std::pair<Label, const RoutingEntry*>> fresh;
        _network->routing.for_each_of(l, [&](Label label, const RoutingEntry& groups) {
            fresh.emplace_back(label, &groups);
        });
        if (fresh != _entries_by_link[l]) {
            entries_changed = true;
            _entries_by_link[l] = std::move(fresh);
        }
    }
    if (entries_changed) _links_into.clear();

    _pda->invalidate_states(
        heads, [this](pda::StateId s) { return _control_info[s].chain; });

    // Recount the affected links against the new table.
    for (LinkId l = 0; l < affected.size(); ++l) {
        if (!affected[l]) continue;
        _total_rules -= _link_rules[l];
        _link_rules[l] = count_link(l);
        _total_rules += _link_rules[l];
    }

    compute_initial_states();
    _reduced = false; // refresh the (lazy no-op) reduction stats next verify
}

void Translation::attach_header_nfa(pda::PAutomaton& aut, const nfa::Nfa& header_nfa,
                                    const std::vector<pda::StateId>& sources,
                                    bool weighted_entry, bool concrete_edges) const {
    const auto domain = static_cast<nfa::Symbol>(_network->labels.size());
    auto add_edge = [&](pda::StateId from, const nfa::SymbolSet& symbols,
                        pda::StateId to, const pda::Weight& weight) {
        if (!concrete_edges) {
            aut.add_transition(from, pda::EdgeLabel::of_set(symbols), to, weight, {});
            return;
        }
        for (const auto symbol : symbols.materialize(domain))
            aut.add_transition(from, pda::EdgeLabel::of(symbol), to, weight, {});
    };

    std::vector<pda::StateId> copy(header_nfa.size());
    for (std::size_t i = 0; i < header_nfa.size(); ++i) {
        copy[i] = aut.add_state();
        if (header_nfa.states()[i].accepting) aut.set_final(copy[i]);
    }
    for (std::size_t i = 0; i < header_nfa.size(); ++i)
        for (const auto& edge : header_nfa.states()[i].edges)
            add_edge(copy[i], edge.symbols, copy[edge.target], pda::Weight::one());
    for (const auto source : sources) {
        const auto entry_weight = weighted_entry
                                      ? make_initial_weight(_control_info[source].link)
                                      : pda::Weight::one();
        for (const auto q0 : header_nfa.initial())
            for (const auto& edge : header_nfa.states()[q0].edges)
                add_edge(source, edge.symbols, copy[edge.target], entry_weight);
    }
}

pda::PAutomaton Translation::make_initial_automaton() const {
    return make_initial_automaton(*_pda);
}

pda::PAutomaton Translation::make_final_automaton() const {
    return make_final_automaton(*_pda);
}

pda::PAutomaton Translation::make_initial_automaton(const pda::Pda& backend,
                                                    bool concrete_edges) const {
    pda::PAutomaton aut(backend);
    attach_header_nfa(aut, _nfa_a, _initial_states, /*weighted_entry=*/true,
                      concrete_edges);
    return aut;
}

pda::PAutomaton Translation::make_final_automaton(const pda::Pda& backend,
                                                  bool concrete_edges) const {
    pda::PAutomaton aut(backend);
    attach_header_nfa(aut, _nfa_c, _accepting_states, /*weighted_entry=*/false,
                      concrete_edges);
    return aut;
}

pda::ReductionStats Translation::reduce(int level) {
    if (_reduced) return _reduce_stats; // shared translations reduce once
    if (_lazy) {
        // Demand-driven construction subsumes the reduction pass: the match
        // index filters rule application on the exact reachable tops per
        // state, so the rules the abstract pass would prune can never fire.
        // Running it would force full materialization, defeating laziness.
        _reduce_stats.rules_before = _total_rules;
        _reduce_stats.rules_after = _total_rules;
        _reduced = true;
        return _reduce_stats;
    }
    AALWINES_SPAN("reduce");
    // Seed the analysis with the stack languages of the initial configs.
    SymbolSet top_set, second_set, deep_set;
    for (const auto q0 : _nfa_a.initial()) {
        for (const auto& edge : _nfa_a.states()[q0].edges) {
            top_set = SymbolSet::set_union(top_set, edge.symbols);
            for (const auto& second_edge : _nfa_a.states()[edge.target].edges)
                second_set = SymbolSet::set_union(second_set, second_edge.symbols);
        }
    }
    for (const auto& state : _nfa_a.states())
        for (const auto& edge : state.edges)
            deep_set = SymbolSet::set_union(deep_set, edge.symbols);

    std::vector<pda::TosSeed> seeds;
    seeds.reserve(_initial_states.size());
    for (const auto state : _initial_states) seeds.push_back({state, top_set, second_set});
    _reduce_stats = pda::reduce(*_pda, seeds, deep_set, level);
    _reduced = true;
    return _reduce_stats;
}

TranslationCache::TranslationCache(const Network& network, const query::Query& query,
                                   const WeightExpr* weights, bool lazy)
    : _network(&network), _query(&query), _weights(weights), _lazy(lazy),
      _nfas(compile_query_nfas(network, query)) {}

TranslationCache::TranslationCache(const Network& network, const query::Query& query,
                                   const WeightExpr* weights, bool lazy,
                                   std::shared_ptr<const CompiledNfas> nfas)
    : _network(&network), _query(&query), _weights(weights), _lazy(lazy),
      _shared_nfas(std::move(nfas)) {
    AALWINES_ASSERT(_shared_nfas != nullptr, "shared-NFA cache without NFAs");
}

void TranslationCache::rebase(const Network& network, const std::vector<bool>& dirty,
                              const std::vector<bool>& behavior_dirty) {
    _network = &network;
    if (_over) _over->rebase(network, dirty, behavior_dirty);
    if (_under) _under->rebase(network, dirty, behavior_dirty); // distinct from _over by construction
}

Translation& TranslationCache::translation(Approximation approximation) {
    AALWINES_ASSERT(approximation != Approximation::Exact,
                    "exact scenarios are not cacheable (each failure set differs)");
    // With a zero failure budget both approximations have a single failure
    // slot and every entry's local-failure guard behaves identically, so the
    // emitted PDAs coincide rule for rule: reuse the Over translation.
    if (approximation == Approximation::Under && _query->max_failures == 0)
        approximation = Approximation::Over;
    auto& slot = approximation == Approximation::Under ? _under : _over;
    if (!slot) {
        TranslationOptions topts;
        topts.approximation = approximation;
        topts.weights = _weights;
        topts.nfas = &nfas();
        topts.lazy = _lazy;
        slot = std::make_unique<Translation>(*_network, *_query, topts);
    }
    return *slot;
}

std::optional<Trace> Translation::witness_to_trace(const pda::PdaWitness& witness) const {
    return witness_to_trace(witness, *_pda);
}

std::optional<Trace> Translation::witness_to_trace(const pda::PdaWitness& witness,
                                                   const pda::Pda& backend) const {
    AALWINES_SPAN("witness_to_trace");
    const auto replay = pda::replay_witness(backend, witness);
    if (!replay) return std::nullopt;
    const auto& configs = *replay;

    auto header_of = [](const std::vector<pda::Symbol>& top_first) {
        Header header(top_first.rbegin(), top_first.rend());
        return header;
    };

    if (witness.initial_state >= _control_info.size() ||
        _control_info[witness.initial_state].chain)
        return std::nullopt;

    Trace trace;
    trace.entries.push_back(
        {_control_info[witness.initial_state].link, header_of(configs.front().second)});

    // Chain boundaries: the first rule of each forwarding chain carries a
    // tag; the chain's effect is complete right before the next tagged rule.
    std::vector<std::pair<std::size_t, const StepInfo*>> forwards;
    for (std::size_t i = 0; i < witness.rules.size(); ++i) {
        const auto tag = backend.rule(witness.rules[i]).tag;
        if (tag != UINT32_MAX) forwards.emplace_back(i, &_steps[tag]);
    }
    for (std::size_t i = 0; i < forwards.size(); ++i) {
        const std::size_t end =
            i + 1 < forwards.size() ? forwards[i + 1].first : witness.rules.size();
        trace.entries.push_back({forwards[i].second->out_link, header_of(configs[end].second)});
    }
    telemetry::count(telemetry::Counter::traces_reconstructed);
    return trace;
}

} // namespace aalwines::verify
