#include "query/query.hpp"

#include <algorithm>

#include "query/lexer.hpp"
#include "telemetry/telemetry.hpp"

namespace aalwines::query {

std::string_view to_string(Mode mode) {
    switch (mode) {
        case Mode::Dual: return "DUAL";
        case Mode::Over: return "OVER";
        case Mode::Under: return "UNDER";
    }
    return "?";
}

namespace {

using nfa::Regex;
using nfa::SymbolSet;

/// Resolve one label-atom name to a symbol set (paper §2.5 abbreviations).
SymbolSet resolve_label_name(const Network& network, const std::string& name) {
    const auto& labels = network.labels;
    if (name == "ip") return SymbolSet::of(labels.of_type(LabelType::Ip));
    if (name == "mpls") return SymbolSet::of(labels.of_type(LabelType::Mpls));
    if (name == "smpls") return SymbolSet::of(labels.of_type(LabelType::MplsBos));
    std::vector<nfa::Symbol> ids;
    for (const auto label : labels.find_by_name(name)) ids.push_back(label);
    // Paper convention: bottom-of-stack labels are written with an `s`
    // prefix, so `s40` also matches the MplsBos label named "40".
    if (name.size() > 1 && name.front() == 's')
        if (auto label = labels.find(LabelType::MplsBos, std::string_view(name).substr(1)))
            ids.push_back(*label);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return SymbolSet::of(std::move(ids)); // may be empty: atom matches nothing
}

/// The atoms of `regex`, one per occurrence: what a copy of it adds to a
/// repetition's expansion.
std::size_t atom_count(const Regex& regex) {
    std::size_t atoms = regex.kind() == Regex::Kind::Atom ? 1 : 0;
    for (const auto& child : regex.children()) atoms += atom_count(child);
    return atoms;
}

struct Endpoint {
    bool wildcard = false;
    RouterId router = k_invalid_id;
    std::string interface; ///< empty = any interface
};

class Parser {
public:
    Parser(std::string_view text, const Network& network)
        : _cur(text), _network(network) {}

    Query parse() {
        Query query;
        query.text = std::string(_cur_text_backup);
        _cur.expect('<');
        query.initial_header = parse_alt(Context::Label);
        _cur.expect('>');
        query.path = parse_alt(Context::Link);
        _cur.expect('<');
        query.final_header = parse_alt(Context::Label);
        _cur.expect('>');
        query.max_failures = _cur.number();
        if (_cur.at_name()) {
            const auto mode = _cur.name();
            if (mode == "OVER" || mode == "over") query.mode = Mode::Over;
            else if (mode == "UNDER" || mode == "under") query.mode = Mode::Under;
            else if (mode == "DUAL" || mode == "dual") query.mode = Mode::Dual;
            else _cur.fail("unknown query mode '" + mode + "'");
        }
        _cur.skip_ws();
        if (!_cur.at_end()) _cur.fail("trailing content after query");
        return query;
    }

    void remember_text(std::string_view text) { _cur_text_backup = text; }

private:
    enum class Context { Label, Link };

    Cursor _cur;
    const Network& _network;
    std::string_view _cur_text_backup;
    unsigned _depth = 0; ///< groups open around the current position
    std::size_t _repeat_atoms = 0; ///< atoms the repetitions so far expanded to

    Regex parse_alt(Context context) {
        std::vector<Regex> branches;
        branches.push_back(parse_concat(context));
        while (_cur.try_consume('|')) branches.push_back(parse_concat(context));
        return Regex::alt(std::move(branches));
    }

    Regex parse_concat(Context context) {
        std::vector<Regex> factors;
        for (;;) {
            const char c = _cur.lookahead();
            const bool at_factor = c == '.' || c == '(' || c == '[' ||
                                   (context == Context::Label && _cur.at_name());
            if (!at_factor) break;
            factors.push_back(parse_repeat(context));
        }
        return Regex::concat(std::move(factors));
    }

    Regex parse_repeat(Context context) {
        Regex atom = parse_atom(context);
        for (;;) {
            if (_cur.try_consume('*')) atom = Regex::star(std::move(atom));
            else if (_cur.try_consume('+')) atom = Regex::plus(std::move(atom));
            else if (_cur.try_consume('?')) atom = Regex::opt(std::move(atom));
            else if (_cur.try_consume('{')) atom = parse_bounds(std::move(atom));
            else return atom;
        }
    }

    /// Bounded repetition r{n}, r{n,} and r{n,m} (language extension), as
    /// one concatenation: n copies of r, then r* or m - n copies of r?.  All
    /// of a query's repetitions together expand to at most
    /// k_max_repeat_atoms atoms; every copy counts at least one, so
    /// repeating ε or ∅ is bounded too.
    Regex parse_bounds(Regex atom) {
        const auto low = _cur.number();
        std::optional<std::uint64_t> high; ///< none: open-ended
        if (_cur.try_consume(',')) {
            if (_cur.lookahead() != '}') high = _cur.number();
        } else {
            high = low;
        }
        _cur.expect('}');
        if (high && *high < low) _cur.fail("repetition bound {n,m} requires n <= m");
        const auto width = std::max<std::size_t>(atom_count(atom), 1);
        std::vector<Regex> parts;
        const auto append = [&](Regex part) {
            _repeat_atoms += width;
            if (_repeat_atoms > k_max_repeat_atoms)
                _cur.fail("repetitions expand past " + std::to_string(k_max_repeat_atoms) +
                          " atoms");
            parts.push_back(std::move(part));
        };
        for (std::uint64_t i = 0; i < low; ++i) append(atom);
        for (std::uint64_t i = low; high && i < *high; ++i) append(Regex::opt(atom));
        if (!high) append(Regex::star(std::move(atom)));
        return Regex::concat(std::move(parts));
    }

    Regex parse_atom(Context context) {
        if (_cur.try_consume('.')) return Regex::atom(SymbolSet::any());
        if (_cur.try_consume('(')) {
            const NestingLevel level(_depth,
                                     [this](const auto& message) { _cur.fail(message); });
            Regex inner = parse_alt(context);
            _cur.expect(')');
            return inner;
        }
        if (_cur.try_consume('[')) {
            const bool complement = _cur.try_consume('^');
            SymbolSet set = context == Context::Label ? parse_label_set() : parse_link_set();
            _cur.expect(']');
            if (complement) {
                // Atom-set complement (the paper's `^`): everything except
                // the listed symbols.
                return Regex::atom(SymbolSet::excluding(
                    set.materialize(static_cast<nfa::Symbol>(domain(context)))));
            }
            return Regex::atom(std::move(set));
        }
        if (context == Context::Label && _cur.at_name())
            return Regex::atom(resolve_label_name(_network, _cur.name()));
        _cur.fail("expected an atom");
    }

    [[nodiscard]] std::size_t domain(Context context) const {
        return context == Context::Label ? _network.labels.size()
                                         : _network.topology.link_count();
    }

    SymbolSet parse_label_set() {
        SymbolSet set = resolve_label_name(_network, _cur.name());
        while (_cur.try_consume(','))
            set = SymbolSet::set_union(set, resolve_label_name(_network, _cur.name()));
        return set;
    }

    SymbolSet parse_link_set() {
        std::vector<nfa::Symbol> links = parse_side_spec();
        while (_cur.try_consume(',')) {
            auto more = parse_side_spec();
            links.insert(links.end(), more.begin(), more.end());
        }
        return SymbolSet::of(std::move(links));
    }

    Endpoint parse_endpoint() {
        Endpoint endpoint;
        if (_cur.try_consume('.')) {
            endpoint.wildcard = true;
            return endpoint;
        }
        const std::string name = _cur.name();
        if (auto router = _network.topology.find_router(name)) {
            endpoint.router = *router;
            return endpoint;
        }
        // Split router.interface at the first dot.
        const auto dot = name.find('.');
        if (dot != std::string::npos) {
            const auto router_part = name.substr(0, dot);
            if (auto router = _network.topology.find_router(router_part)) {
                endpoint.router = *router;
                endpoint.interface = name.substr(dot + 1);
                if (!_network.topology.find_interface(endpoint.router, endpoint.interface))
                    _cur.fail("unknown interface '" + endpoint.interface + "' on router '" +
                              router_part + "'");
                return endpoint;
            }
        }
        _cur.fail("unknown router '" + name + "'");
    }

    std::vector<nfa::Symbol> parse_side_spec() {
        const Endpoint source = parse_endpoint();
        _cur.expect('#');
        const Endpoint target = parse_endpoint();
        std::vector<nfa::Symbol> out;
        const auto& topology = _network.topology;
        for (const auto& link : topology.links()) {
            if (!source.wildcard) {
                if (link.source != source.router) continue;
                if (!source.interface.empty() &&
                    topology.interface(link.source_interface).name != source.interface)
                    continue;
            }
            if (!target.wildcard) {
                if (link.target != target.router) continue;
                if (!target.interface.empty() &&
                    topology.interface(link.target_interface).name != target.interface)
                    continue;
            }
            out.push_back(link.id);
        }
        return out;
    }
};

} // namespace

Query parse_query(std::string_view text, const Network& network) {
    AALWINES_SPAN("parse_query");
    Parser parser(text, network);
    parser.remember_text(text);
    auto query = parser.parse();
    telemetry::count(telemetry::Counter::queries_parsed);
    return query;
}

} // namespace aalwines::query
