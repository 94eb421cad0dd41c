#include <cctype>
#include <sstream>
#include <charconv>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "io/formats.hpp"

namespace aalwines::io {

namespace {

// GML (Graph Modelling Language) as used by the Internet Topology Zoo:
// nested `key [ ... ]` records with string/number scalars.

struct GmlValue;
using GmlRecord = std::vector<std::pair<std::string, GmlValue>>;

struct GmlValue {
    std::string scalar;             // raw text of a scalar value
    std::unique_ptr<GmlRecord> record; // set for [ ... ] blocks

    [[nodiscard]] const GmlValue* find(std::string_view key) const {
        if (!record) return nullptr;
        for (const auto& [k, v] : *record)
            if (k == key) return &v;
        return nullptr;
    }
};

class GmlParser {
public:
    explicit GmlParser(std::string_view text) : _text(text) {}

    GmlRecord parse() {
        GmlRecord top;
        skip_ws();
        while (!at_end()) {
            auto key = word();
            skip_ws();
            top.emplace_back(std::move(key), value());
            skip_ws();
        }
        return top;
    }

private:
    std::string_view _text;
    std::size_t _pos = 0;
    unsigned _line = 1;
    unsigned _depth = 0; ///< blocks open around the current position

    [[nodiscard]] bool at_end() const { return _pos >= _text.size(); }
    [[nodiscard]] char peek() const { return _text[_pos]; }

    void skip_ws() {
        for (;;) {
            while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) {
                if (peek() == '\n') ++_line;
                ++_pos;
            }
            if (!at_end() && peek() == '#') { // comment to end of line
                while (!at_end() && peek() != '\n') ++_pos;
                continue;
            }
            return;
        }
    }

    std::string word() {
        skip_ws();
        std::string out;
        while (!at_end() && !std::isspace(static_cast<unsigned char>(peek())) &&
               peek() != '[' && peek() != ']')
            out.push_back(_text[_pos++]);
        if (out.empty()) throw parse_error("GML: expected a key", {_line, 0});
        return out;
    }

    GmlValue value() {
        skip_ws();
        GmlValue out;
        if (at_end()) throw parse_error("GML: expected a value", {_line, 0});
        if (peek() == '[') {
            const NestingLevel level(_depth, [this](const auto& message) {
                throw parse_error("GML: " + message, {_line, 0});
            });
            ++_pos;
            out.record = std::make_unique<GmlRecord>();
            skip_ws();
            while (!at_end() && peek() != ']') {
                auto key = word();
                out.record->emplace_back(std::move(key), value());
                skip_ws();
            }
            if (at_end()) throw parse_error("GML: unterminated block", {_line, 0});
            ++_pos; // ']'
            return out;
        }
        if (peek() == '"') {
            ++_pos;
            while (!at_end() && peek() != '"') out.scalar.push_back(_text[_pos++]);
            if (at_end()) throw parse_error("GML: unterminated string", {_line, 0});
            ++_pos;
            return out;
        }
        while (!at_end() && !std::isspace(static_cast<unsigned char>(peek())) &&
               peek() != ']')
            out.scalar.push_back(_text[_pos++]);
        return out;
    }
};

std::optional<double> as_double(const GmlValue* value) {
    if (value == nullptr || value->scalar.empty()) return std::nullopt;
    try {
        return std::stod(value->scalar);
    } catch (...) {
        return std::nullopt;
    }
}

std::optional<long> as_long(const GmlValue* value) {
    if (value == nullptr) return std::nullopt;
    long out = 0;
    const auto& s = value->scalar;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return out;
}

} // namespace

Topology read_gml(std::string_view document, std::string* name) {
    GmlParser parser(document);
    const auto top = parser.parse();

    const GmlRecord* graph = nullptr;
    for (const auto& [key, value] : top)
        if (key == "graph" && value.record) graph = value.record.get();
    if (graph == nullptr) throw model_error("GML: no 'graph' block");

    Topology topology;
    std::map<long, RouterId> routers;
    std::map<RouterId, unsigned> interface_counters;
    if (name != nullptr) name->clear();

    for (const auto& [key, value] : *graph) {
        if (key == "label" && name != nullptr && name->empty()) *name = value.scalar;
        if (key == "node" && value.record) {
            const auto id = as_long(value.find("id"));
            if (!id) throw model_error("GML: node without id");
            std::string router_name;
            if (const auto* label = value.find("label"); label && !label->scalar.empty())
                router_name = label->scalar;
            else
                router_name = "N" + std::to_string(*id);
            // Zoo files occasionally repeat labels; make names unique.
            if (topology.find_router(router_name))
                router_name += "_" + std::to_string(*id);
            const auto router = topology.add_router(router_name);
            routers.emplace(*id, router);
            const auto lat = as_double(value.find("Latitude"));
            const auto lng = as_double(value.find("Longitude"));
            if (lat && lng) topology.set_coordinate(router, {*lat, *lng});
        }
    }
    for (const auto& [key, value] : *graph) {
        if (key != "edge" || !value.record) continue;
        const auto source = as_long(value.find("source"));
        const auto target = as_long(value.find("target"));
        if (!source || !target) throw model_error("GML: edge without source/target");
        const auto source_it = routers.find(*source);
        const auto target_it = routers.find(*target);
        if (source_it == routers.end() || target_it == routers.end())
            throw model_error("GML: edge references unknown node");
        const auto a = source_it->second;
        const auto b = target_it->second;
        const auto if_a = "i" + std::to_string(interface_counters[a]++);
        const auto if_b = "i" + std::to_string(interface_counters[b]++);
        topology.add_duplex(a, if_a, b, if_b);
    }
    topology.distances_from_coordinates();
    return topology;
}

std::string write_gml(const Topology& topology, std::string_view name) {
    std::ostringstream out;
    out << "graph [\n";
    if (!name.empty()) out << "  label \"" << name << "\"\n";
    for (RouterId r = 0; r < topology.router_count(); ++r) {
        out << "  node [\n    id " << r << "\n    label \""
            << topology.router_name(r) << "\"\n";
        if (const auto coord = topology.coordinate(r)) {
            out << "    Latitude " << coord->latitude << "\n";
            out << "    Longitude " << coord->longitude << "\n";
        }
        out << "  ]\n";
    }
    // Emit each duplex pair once (the canonical direction has the smaller
    // id among the two opposite links over the same interfaces).
    for (const auto& link : topology.links()) {
        bool is_canonical = true;
        for (const auto& other : topology.links()) {
            if (other.source_interface == link.target_interface &&
                other.target_interface == link.source_interface && other.id < link.id)
                is_canonical = false;
        }
        if (!is_canonical) continue;
        out << "  edge [\n    source " << link.source << "\n    target "
            << link.target << "\n  ]\n";
    }
    out << "]\n";
    return out.str();
}

} // namespace aalwines::io
