#include "validate/validate.hpp"

#include <unordered_set>

namespace aalwines::validate {

std::string_view to_string(Severity severity) {
    switch (severity) {
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

void Report::error(std::string_view component, std::string message) {
    _issues.push_back({Severity::Error, std::string(component), std::move(message)});
    ++_errors;
}

void Report::warning(std::string_view component, std::string message) {
    _issues.push_back({Severity::Warning, std::string(component), std::move(message)});
}

void Report::merge(const Report& other) {
    for (const auto& issue : other._issues) _issues.push_back(issue);
    _errors += other._errors;
}

std::string Report::to_string() const {
    std::string out;
    for (const auto& issue : _issues) {
        out += validate::to_string(issue.severity);
        out += "(";
        out += issue.component;
        out += "): ";
        out += issue.message;
        out += "\n";
    }
    return out;
}

void check_topology(const Topology& topology, Report& report) {
    const auto routers = topology.router_count();
    const auto links = topology.link_count();
    const auto interfaces = topology.interface_count();

    for (InterfaceId i = 0; i < interfaces; ++i) {
        const auto& iface = topology.interface(i);
        if (iface.router >= routers)
            report.error("topology", "interface " + std::to_string(i) +
                                         " ('" + iface.name +
                                         "') belongs to unknown router id " +
                                         std::to_string(iface.router));
    }

    for (LinkId id = 0; id < links; ++id) {
        const auto& link = topology.link(id);
        const auto where = "link " + std::to_string(id);
        if (link.id != id)
            report.error("topology", where + " stores mismatched id " +
                                         std::to_string(link.id));
        if (link.source >= routers || link.target >= routers) {
            report.error("topology", where + " references unknown router");
            continue;
        }
        if (link.source_interface >= interfaces || link.target_interface >= interfaces) {
            report.error("topology", where + " references unknown interface");
            continue;
        }
        // Interface/link symmetry: s(e)'s outgoing interface must sit on
        // s(e), t(e)'s incoming interface on t(e).
        if (topology.interface(link.source_interface).router != link.source)
            report.error("topology",
                         where + ": source interface does not belong to source router '" +
                             topology.router_name(link.source) + "'");
        if (topology.interface(link.target_interface).router != link.target)
            report.error("topology",
                         where + ": target interface does not belong to target router '" +
                             topology.router_name(link.target) + "'");
    }

    // Adjacency indexes: out_links/in_links must list every link exactly
    // once, under its source/target router respectively.
    std::size_t listed_out = 0;
    std::size_t listed_in = 0;
    std::unordered_set<LinkId> seen;
    for (RouterId r = 0; r < routers; ++r) {
        seen.clear();
        for (const auto id : topology.out_links(r)) {
            ++listed_out;
            if (id >= links) {
                report.error("topology", "out-link index of router '" +
                                             topology.router_name(r) +
                                             "' lists unknown link id " + std::to_string(id));
                continue;
            }
            if (!seen.insert(id).second)
                report.error("topology", "out-link index of router '" +
                                             topology.router_name(r) + "' lists link " +
                                             std::to_string(id) + " twice");
            if (topology.link(id).source != r)
                report.error("topology", "link " + std::to_string(id) +
                                             " is indexed under router '" +
                                             topology.router_name(r) +
                                             "' but does not leave it");
        }
        seen.clear();
        for (const auto id : topology.in_links(r)) {
            ++listed_in;
            if (id >= links) {
                report.error("topology", "in-link index of router '" +
                                             topology.router_name(r) +
                                             "' lists unknown link id " + std::to_string(id));
                continue;
            }
            if (!seen.insert(id).second)
                report.error("topology", "in-link index of router '" +
                                             topology.router_name(r) + "' lists link " +
                                             std::to_string(id) + " twice");
            if (topology.link(id).target != r)
                report.error("topology", "link " + std::to_string(id) +
                                             " is indexed under router '" +
                                             topology.router_name(r) +
                                             "' but does not enter it");
        }
    }
    if (listed_out != links)
        report.error("topology", "out-link indexes list " + std::to_string(listed_out) +
                                     " links, topology has " + std::to_string(links));
    if (listed_in != links)
        report.error("topology", "in-link indexes list " + std::to_string(listed_in) +
                                     " links, topology has " + std::to_string(links));

    // Router names resolve back to their own id.
    for (RouterId r = 0; r < routers; ++r) {
        const auto found = topology.find_router(topology.router_name(r));
        if (!found || *found != r)
            report.error("topology", "router name '" + topology.router_name(r) +
                                         "' does not resolve back to id " +
                                         std::to_string(r));
    }
}

void check_labels(const LabelTable& labels, Report& report) {
    for (Label label = 0; label < labels.size(); ++label) {
        const auto type = labels.type_of(label);
        if (type != LabelType::Mpls && type != LabelType::MplsBos && type != LabelType::Ip) {
            report.error("labels", "label " + std::to_string(label) +
                                       " has an invalid stratum tag");
            continue;
        }
        // Interning round-trip: (type, name) must map back to this id —
        // catches duplicated or aliased entries in the dense id space.
        const auto found = labels.find(type, labels.name_of(label));
        if (!found || *found != label)
            report.error("labels", "label '" + labels.display(label) +
                                       "' does not intern back to id " +
                                       std::to_string(label));
    }
}

void check_routing(const Network& network, Report& report) {
    const auto& topology = network.topology;
    const auto& labels = network.labels;
    const auto links = topology.link_count();

    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        const auto where = "entry (link " + std::to_string(in_link) + ", label " +
                           std::to_string(label) + ")";
        if (in_link >= links) {
            report.error("routing", where + ": unknown in-link");
            return;
        }
        if (label >= labels.size()) {
            report.error("routing", where + ": label outside the alphabet");
            return;
        }
        const auto at_router = topology.link(in_link).target;

        std::size_t rules_total = 0;
        std::size_t last_nonempty = 0;
        for (std::size_t priority = 0; priority < groups.size(); ++priority) {
            if (!groups[priority].empty()) last_nonempty = priority + 1;
            rules_total += groups[priority].size();
            for (const auto& rule : groups[priority]) {
                const auto rule_where =
                    where + " group " + std::to_string(priority + 1);
                if (rule.out_link >= links) {
                    report.error("routing", rule_where + ": unknown out-link id " +
                                                std::to_string(rule.out_link));
                    continue;
                }
                if (topology.link(rule.out_link).source != at_router)
                    report.error("routing",
                                 rule_where + ": out-link " +
                                     topology.describe_link(rule.out_link) +
                                     " does not leave router '" +
                                     topology.router_name(at_router) + "'");
                for (const auto& op : rule.ops) {
                    if (op.kind == Op::Kind::Pop) continue;
                    if (op.label >= labels.size()) {
                        report.error("routing", rule_where +
                                                    ": operation label outside the alphabet");
                        continue;
                    }
                    // An IP label can never be pushed onto a valid header
                    // (H = L_IP ∪ L_M* L_M⊥ L_IP) — such a rule is dead.
                    if (op.kind == Op::Kind::Push &&
                        labels.type_of(op.label) == LabelType::Ip)
                        report.error("routing", rule_where + ": pushes IP label '" +
                                                    labels.display(op.label) +
                                                    "', which no valid header admits");
                }
            }
        }
        if (rules_total == 0)
            report.warning("routing", where + " has no forwarding rules");
        else if (last_nonempty < groups.size())
            report.warning("routing", where + " has trailing empty TE groups");
    });
}

Report check_network(const Network& network) {
    Report report;
    check_topology(network.topology, report);
    check_labels(network.labels, report);
    check_routing(network, report);
    return report;
}

void check_pda_rules(const std::vector<pda::Rule>& rules, std::size_t state_count,
                     pda::Symbol alphabet_size, Report& report) {
    using pda::PreSpec;
    using pda::Rule;
    for (std::size_t id = 0; id < rules.size(); ++id) {
        const auto& rule = rules[id];
        const auto where = "rule " + std::to_string(id);
        if (rule.from >= state_count)
            report.error("pda", where + ": dangling from-state " +
                                    std::to_string(rule.from));
        if (rule.to >= state_count)
            report.error("pda", where + ": dangling to-state " + std::to_string(rule.to));
        switch (rule.pre.kind) {
            case PreSpec::Kind::Concrete:
                if (rule.pre.symbol >= alphabet_size)
                    report.error("pda", where + ": precondition symbol " +
                                            std::to_string(rule.pre.symbol) +
                                            " outside the alphabet");
                break;
            case PreSpec::Kind::Class:
                if (rule.pre.cls == pda::k_no_class)
                    report.error("pda", where + ": class precondition without a class");
                break;
            case PreSpec::Kind::Any: break;
        }
        switch (rule.op) {
            case Rule::OpKind::Pop: break;
            case Rule::OpKind::Swap:
                if (rule.label1 >= alphabet_size)
                    report.error("pda", where + ": swap writes symbol " +
                                            std::to_string(rule.label1) +
                                            " outside the alphabet");
                break;
            case Rule::OpKind::Push:
                if (rule.label1 >= alphabet_size)
                    report.error("pda", where + ": push top symbol " +
                                            std::to_string(rule.label1) +
                                            " outside the alphabet");
                if (rule.label2 >= alphabet_size && rule.label2 != pda::k_same_symbol)
                    report.error("pda", where + ": push below-top symbol " +
                                            std::to_string(rule.label2) +
                                            " outside the alphabet");
                break;
        }
    }
}

Report check_pda(const pda::Pda& pda) {
    Report report;
    pda.materialize_all(); // a lazy PDA's structural checks must cover every rule
    check_pda_rules(pda.rules(), pda.state_count(), pda.alphabet_size(), report);
    return report;
}

Report check_pautomaton(const pda::PAutomaton& automaton) {
    Report report;
    const auto rule_count = automaton.pda().rule_count();
    const auto trans_count = automaton.transition_count();
    const auto eps_count = automaton.epsilon_count();

    auto check_prov = [&](const pda::Provenance& prov, const std::string& where) {
        using Kind = pda::Provenance::Kind;
        if (prov.kind == Kind::Initial) return;
        if (prov.rule != UINT32_MAX && prov.rule >= rule_count)
            report.error("pautomaton",
                         where + ": provenance references unknown rule " +
                             std::to_string(prov.rule));
        // `a` is an ε-id for PostCombine, a transition id otherwise.
        const auto a_limit =
            prov.kind == Kind::PostCombine ? eps_count : trans_count;
        if (prov.a != pda::k_no_trans && prov.a >= a_limit)
            report.error("pautomaton",
                         where + ": provenance references unknown predecessor " +
                             std::to_string(prov.a));
        if (prov.b != pda::k_no_trans && prov.b >= trans_count)
            report.error("pautomaton",
                         where + ": provenance references unknown predecessor " +
                             std::to_string(prov.b));
    };

    for (pda::TransId id = 0; id < trans_count; ++id) {
        const auto& trans = automaton.transition(id);
        const auto where = "transition " + std::to_string(id);
        if (!automaton.has_state(trans.from) || !automaton.has_state(trans.to)) {
            report.error("pautomaton", where + ": dangling endpoint");
            continue;
        }
        if (!trans.label.is_concrete() && trans.label.set.is_empty_set())
            report.error("pautomaton", where + ": definitely-empty edge label");
        if (trans.weight.is_infinite())
            report.error("pautomaton", where + ": infinite weight on a kept transition");
        check_prov(trans.prov, where);
    }

    for (std::uint32_t id = 0; id < eps_count; ++id) {
        const auto& eps = automaton.epsilon(id);
        const auto where = "epsilon " + std::to_string(id);
        if (!automaton.has_state(eps.from) || !automaton.has_state(eps.to)) {
            report.error("pautomaton", where + ": dangling endpoint");
            continue;
        }
        // post* ε-transitions always leave a control state and never enter
        // one (solver.hpp); anything else breaks witness reconstruction.
        if (!automaton.is_control_state(eps.from))
            report.error("pautomaton", where + ": leaves a non-control state");
        if (automaton.is_control_state(eps.to))
            report.error("pautomaton", where + ": enters a control state");
        check_prov(eps.prov, where);
    }

    // The per-state transition index must partition the transition set.
    std::size_t listed = 0;
    const auto check_index = [&](pda::StateId state) {
        for (const auto id : automaton.transitions_from(state)) {
            ++listed;
            if (id >= trans_count) {
                report.error("pautomaton", "state " + std::to_string(state) +
                                               " indexes unknown transition " +
                                               std::to_string(id));
                continue;
            }
            if (automaton.transition(id).from != state)
                report.error("pautomaton", "transition " + std::to_string(id) +
                                               " is indexed under state " +
                                               std::to_string(state) +
                                               " but leaves state " +
                                               std::to_string(automaton.transition(id).from));
        }
    };
    for (pda::StateId state = 0; state < automaton.pda().state_count(); ++state)
        check_index(state);
    for (std::size_t i = 0; i < automaton.helper_count(); ++i)
        check_index(static_cast<pda::StateId>(pda::k_first_helper + i));
    if (listed != trans_count)
        report.error("pautomaton", "state indexes list " + std::to_string(listed) +
                                       " transitions, automaton has " +
                                       std::to_string(trans_count));
    return report;
}

void check_nfa(const nfa::Nfa& nfa, std::string_view component, Report& report) {
    const auto size = nfa.size();
    if (nfa.initial().empty())
        report.error(component, "NFA has no initial state");
    for (const auto initial : nfa.initial())
        if (initial >= size)
            report.error(component,
                         "initial state " + std::to_string(initial) + " out of range");
    for (std::size_t state = 0; state < size; ++state) {
        for (const auto& edge : nfa.states()[state].edges) {
            if (edge.target >= size)
                report.error(component, "state " + std::to_string(state) +
                                            " has an edge to unknown state " +
                                            std::to_string(edge.target));
            if (edge.symbols.is_empty_set())
                report.error(component, "state " + std::to_string(state) +
                                            " has a definitely-empty edge set");
        }
    }
}

} // namespace aalwines::validate
