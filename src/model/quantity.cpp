#include "model/quantity.hpp"

#include <cctype>

#include "util/errors.hpp"

namespace aalwines {

std::string_view to_string(Quantity quantity) {
    switch (quantity) {
        case Quantity::Links: return "links";
        case Quantity::Hops: return "hops";
        case Quantity::Distance: return "distance";
        case Quantity::Failures: return "failures";
        case Quantity::Tunnels: return "tunnels";
    }
    return "?";
}

WeightExpr weight_of(Quantity quantity) {
    WeightExpr expr;
    expr.priorities.push_back({{{1, quantity}}});
    return expr;
}

std::uint64_t evaluate_atomic(const Network& network, const Trace& trace,
                              Quantity quantity) {
    const auto& topology = network.topology;
    switch (quantity) {
        case Quantity::Links:
            return trace.size();
        case Quantity::Hops: {
            // Counted per step (self-loops excluded); additive so it can be
            // carried on PDA rules, matching the paper's example values.
            std::uint64_t hops = 0;
            for (const auto& entry : trace.entries) {
                const auto& link = topology.link(entry.link);
                if (link.source != link.target) ++hops;
            }
            return hops;
        }
        case Quantity::Distance: {
            std::uint64_t distance = 0;
            for (const auto& entry : trace.entries)
                distance += topology.link(entry.link).distance;
            return distance;
        }
        case Quantity::Failures:
            // Budget "infinite": we only want Failures(σ), not the check.
            return check_feasibility(network, trace, UINT64_MAX).failures_total;
        case Quantity::Tunnels: {
            std::uint64_t tunnels = 0;
            for (std::size_t i = 0; i + 1 < trace.entries.size(); ++i) {
                const auto current = trace.entries[i].header.size();
                const auto next = trace.entries[i + 1].header.size();
                if (next > current) tunnels += next - current;
            }
            return tunnels;
        }
    }
    return 0;
}

std::uint64_t evaluate(const Network& network, const Trace& trace, const LinearExpr& expr) {
    std::uint64_t total = 0;
    for (const auto& term : expr.terms)
        total += term.coefficient * evaluate_atomic(network, trace, term.quantity);
    return total;
}

std::vector<std::uint64_t> evaluate(const Network& network, const Trace& trace,
                                    const WeightExpr& expr) {
    std::vector<std::uint64_t> out;
    out.reserve(expr.size());
    for (const auto& linear : expr.priorities)
        out.push_back(evaluate(network, trace, linear));
    return out;
}

namespace {
std::uint64_t atomic_step_weight(const Network& network, Quantity quantity,
                                 LinkId out_link, const std::vector<Op>& ops,
                                 std::uint64_t local_failures) {
    const auto& link = network.topology.link(out_link);
    switch (quantity) {
        case Quantity::Links: return 1;
        case Quantity::Hops: return link.source != link.target ? 1 : 0;
        case Quantity::Distance: return link.distance;
        case Quantity::Failures: return local_failures;
        case Quantity::Tunnels: return tunnels_opened(ops);
    }
    return 0;
}
} // namespace

std::uint64_t step_weight(const Network& network, const LinearExpr& expr, LinkId out_link,
                          const std::vector<Op>& ops, std::uint64_t local_failures) {
    std::uint64_t total = 0;
    for (const auto& term : expr.terms)
        total += term.coefficient *
                 atomic_step_weight(network, term.quantity, out_link, ops, local_failures);
    return total;
}

std::uint64_t initial_weight(const Network& network, const LinearExpr& expr,
                             LinkId first_link) {
    // The first trace entry contributes to Links/Hops/Distance but involves
    // no forwarding decision, hence no Failures or Tunnels.
    std::uint64_t total = 0;
    const auto& link = network.topology.link(first_link);
    for (const auto& term : expr.terms) {
        switch (term.quantity) {
            case Quantity::Links: total += term.coefficient; break;
            case Quantity::Hops:
                if (link.source != link.target) total += term.coefficient;
                break;
            case Quantity::Distance: total += term.coefficient * link.distance; break;
            case Quantity::Failures:
            case Quantity::Tunnels: break;
        }
    }
    return total;
}

namespace {

class WeightParser {
public:
    explicit WeightParser(std::string_view text) : _text(text) {}

    WeightExpr parse() {
        WeightExpr expr;
        skip_ws();
        if (at_end()) throw parse_error("empty weight expression");
        expr.priorities.push_back(parse_linear());
        while (!at_end()) {
            expect(',');
            if (expr.priorities.size() == k_max_weight_priorities)
                throw parse_error("weight expression lists more than " +
                                  std::to_string(k_max_weight_priorities) + " priorities");
            expr.priorities.push_back(parse_linear());
        }
        return expr;
    }

private:
    std::string_view _text;
    std::size_t _pos = 0;

    [[nodiscard]] bool at_end() const { return _pos >= _text.size(); }
    [[nodiscard]] char peek() const { return _text[_pos]; }

    void skip_ws() {
        while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) ++_pos;
    }

    void expect(char c) {
        skip_ws();
        if (at_end() || peek() != c)
            throw parse_error(std::string("expected '") + c + "' in weight expression");
        ++_pos;
    }

    LinearExpr parse_linear() {
        LinearExpr expr;
        expr.terms.push_back(parse_term());
        for (;;) {
            skip_ws();
            if (at_end() || peek() != '+') return expr;
            ++_pos;
            expr.terms.push_back(parse_term());
        }
    }

    LinearTerm parse_term() {
        skip_ws();
        LinearTerm term;
        if (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
            term.coefficient = parse_number();
            expect('*');
        }
        term.quantity = parse_quantity();
        skip_ws();
        if (!at_end() && peek() == '*') {
            ++_pos;
            skip_ws();
            term.coefficient *= parse_number();
        }
        return term;
    }

    std::uint64_t parse_number() {
        skip_ws();
        if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
            throw parse_error("expected a number in weight expression");
        std::uint64_t value = 0;
        while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
            value = value * 10 + static_cast<std::uint64_t>(peek() - '0');
            ++_pos;
        }
        return value;
    }

    Quantity parse_quantity() {
        skip_ws();
        std::string word;
        while (!at_end() && std::isalpha(static_cast<unsigned char>(peek()))) {
            word.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(peek()))));
            ++_pos;
        }
        if (word == "links") return Quantity::Links;
        if (word == "hops") return Quantity::Hops;
        if (word == "distance" || word == "latency") return Quantity::Distance;
        if (word == "failures") return Quantity::Failures;
        if (word == "tunnels") return Quantity::Tunnels;
        throw parse_error("unknown quantity '" + word + "'");
    }
};

} // namespace

WeightExpr parse_weight_expression(std::string_view text) {
    return WeightParser(text).parse();
}

std::string to_string(const WeightExpr& expr) {
    std::string out;
    for (const auto& linear : expr.priorities) {
        if (!out.empty()) out += ", ";
        bool first = true;
        for (const auto& term : linear.terms) {
            if (!first) out += " + ";
            first = false;
            if (term.coefficient != 1) out += std::to_string(term.coefficient) + "*";
            out += to_string(term.quantity);
        }
    }
    return out;
}

} // namespace aalwines
