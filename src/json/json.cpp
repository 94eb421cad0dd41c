#include "json/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace aalwines::json {

std::int64_t Value::as_int() const {
    if (is_int()) return std::get<std::int64_t>(_data);
    return static_cast<std::int64_t>(std::get<double>(_data));
}

double Value::as_double() const {
    if (is_double()) return std::get<double>(_data);
    return static_cast<double>(std::get<std::int64_t>(_data));
}

const Value& Value::at(const std::string& key) const {
    if (!is_object()) throw model_error("JSON value is not an object (looking up '" + key + "')");
    const auto& object = as_object();
    auto it = object.find(key);
    if (it == object.end()) throw model_error("JSON object has no member '" + key + "'");
    return it->second;
}

const Value* Value::find(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto& object = as_object();
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view input) : _in(input) {}

    Value parse_document() {
        Value value = parse_value();
        skip_ws();
        if (_pos != _in.size()) fail("trailing content after JSON value");
        return value;
    }

private:
    std::string_view _in;
    std::size_t _pos = 0;
    unsigned _line = 1;
    unsigned _col = 1;
    unsigned _depth = 0; ///< containers open around the current position

    [[noreturn]] void fail(const std::string& message) const {
        detail::fail_parse(message, {_line, _col});
    }

    [[nodiscard]] bool at_end() const { return _pos >= _in.size(); }
    [[nodiscard]] char peek() const { return _in[_pos]; }

    char advance() {
        const char c = _in[_pos++];
        if (c == '\n') {
            ++_line;
            _col = 1;
        } else {
            ++_col;
        }
        return c;
    }

    void skip_ws() {
        while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r'))
            advance();
    }

    void expect(char c) {
        if (at_end() || peek() != c) fail(std::string("expected '") + c + "'");
        advance();
    }

    bool consume_literal(std::string_view literal) {
        if (_in.substr(_pos, literal.size()) != literal) return false;
        for (std::size_t i = 0; i < literal.size(); ++i) advance();
        return true;
    }

    Value parse_value() {
        skip_ws();
        if (at_end()) fail("unexpected end of input");
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Value(parse_string());
            case 't':
                if (consume_literal("true")) return Value(true);
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return Value(false);
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return Value(nullptr);
                fail("invalid literal");
            default: return parse_number();
        }
    }

    Value parse_object() {
        const NestingLevel level(_depth, [this](const auto& message) { fail(message); });
        expect('{');
        Object object;
        skip_ws();
        if (!at_end() && peek() == '}') {
            advance();
            return Value(std::move(object));
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            object.insert_or_assign(std::move(key), parse_value());
            skip_ws();
            if (at_end()) fail("unterminated object");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}');
            return Value(std::move(object));
        }
    }

    Value parse_array() {
        const NestingLevel level(_depth, [this](const auto& message) { fail(message); });
        expect('[');
        Array array;
        skip_ws();
        if (!at_end() && peek() == ']') {
            advance();
            return Value(std::move(array));
        }
        for (;;) {
            array.push_back(parse_value());
            skip_ws();
            if (at_end()) fail("unterminated array");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']');
            return Value(std::move(array));
        }
    }

    std::string parse_string() {
        if (at_end() || peek() != '"') fail("expected string");
        advance();
        std::string out;
        for (;;) {
            if (at_end()) fail("unterminated string");
            const char c = advance();
            if (c == '"') return out;
            if (c == '\\') {
                if (at_end()) fail("unterminated escape");
                const char esc = advance();
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'n': out.push_back('\n'); break;
                    case 'r': out.push_back('\r'); break;
                    case 't': out.push_back('\t'); break;
                    case 'u': parse_unicode_escape(out); break;
                    default: fail("invalid escape sequence");
                }
            } else {
                out.push_back(c);
            }
        }
    }

    unsigned parse_hex4() {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            if (at_end()) fail("unterminated \\u escape");
            const char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
            else fail("invalid \\u escape");
        }
        return code;
    }

    void parse_unicode_escape(std::string& out) {
        unsigned code = parse_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            // surrogate pair
            if (_in.substr(_pos, 2) != "\\u") fail("unpaired surrogate");
            advance();
            advance();
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, code);
    }

    static void append_utf8(std::string& out, unsigned code) {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    Value parse_number() {
        const std::size_t start = _pos;
        if (!at_end() && peek() == '-') advance();
        bool is_floating = false;
        while (!at_end()) {
            const char c = peek();
            if (std::isdigit(static_cast<unsigned char>(c))) {
                advance();
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_floating = true;
                advance();
            } else {
                break;
            }
        }
        const std::string_view token = _in.substr(start, _pos - start);
        if (token.empty() || token == "-") fail("invalid number");
        if (!is_floating) {
            std::int64_t integer = 0;
            auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), integer);
            if (ec == std::errc{} && ptr == token.data() + token.size()) return Value(integer);
        }
        double value = 0;
        auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec != std::errc{} || ptr != token.data() + token.size()) fail("invalid number");
        return Value(value);
    }
};

void write_value(std::string& out, const Value& value, int indent, int depth);

void write_string(std::string& out, const std::string& text) {
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    std::array<char, 8> buf{};
                    std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
                    out += buf.data();
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void write_newline_indent(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

void write_value(std::string& out, const Value& value, int indent, int depth) {
    if (value.is_null()) {
        out += "null";
    } else if (value.is_bool()) {
        out += value.as_bool() ? "true" : "false";
    } else if (value.is_int()) {
        out += std::to_string(value.as_int());
    } else if (value.is_double()) {
        const double d = value.as_double();
        if (std::isfinite(d)) {
            std::array<char, 32> buf{};
            auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
            out.append(buf.data(), ptr);
        } else {
            out += "null"; // JSON has no Inf/NaN
        }
    } else if (value.is_string()) {
        write_string(out, value.as_string());
    } else if (value.is_array()) {
        const auto& array = value.as_array();
        if (array.empty()) {
            out += "[]";
            return;
        }
        out.push_back('[');
        bool first = true;
        for (const auto& element : array) {
            if (!first) out.push_back(',');
            first = false;
            write_newline_indent(out, indent, depth + 1);
            write_value(out, element, indent, depth + 1);
        }
        write_newline_indent(out, indent, depth);
        out.push_back(']');
    } else {
        const auto& object = value.as_object();
        if (object.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        bool first = true;
        for (const auto& [key, member] : object) {
            if (!first) out.push_back(',');
            first = false;
            write_newline_indent(out, indent, depth + 1);
            write_string(out, key);
            out.push_back(':');
            if (indent > 0) out.push_back(' ');
            write_value(out, member, indent, depth + 1);
        }
        write_newline_indent(out, indent, depth);
        out.push_back('}');
    }
}

} // namespace

Value parse(std::string_view input) {
    return Parser(input).parse_document();
}

std::string write(const Value& value, int indent) {
    std::string out;
    write_value(out, value, indent, 0);
    return out;
}

} // namespace aalwines::json
