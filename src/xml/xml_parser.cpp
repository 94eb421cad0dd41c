#include "xml/xml.hpp"

#include <cctype>
#include <charconv>

namespace aalwines::xml {

namespace {

class Parser {
public:
    explicit Parser(std::string_view input) : _in(input) {}

    Element parse_document() {
        skip_prolog();
        Element root = parse_element();
        skip_misc();
        if (!at_end())
            fail("trailing content after root element");
        return root;
    }

private:
    std::string_view _in;
    std::size_t _pos = 0;
    unsigned _line = 1;
    unsigned _col = 1;
    unsigned _depth = 0; ///< elements open around the current position

    [[nodiscard]] bool at_end() const { return _pos >= _in.size(); }
    [[nodiscard]] char peek() const { return _in[_pos]; }
    [[nodiscard]] bool looking_at(std::string_view s) const {
        return _in.substr(_pos, s.size()) == s;
    }

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

    void advance_n(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) advance();
    }

    [[noreturn]] void fail(const std::string& message) const {
        detail::fail_parse(message, {_line, _col});
    }

    void skip_ws() {
        while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
    }

    void expect(char c) {
        if (at_end() || peek() != c)
            fail(std::string("expected '") + c + "'");
        advance();
    }

    void skip_comment() {
        // precondition: looking_at("<!--")
        advance_n(4);
        while (!looking_at("-->")) {
            if (at_end()) fail("unterminated comment");
            advance();
        }
        advance_n(3);
    }

    void skip_pi() {
        // precondition: looking_at("<?")
        advance_n(2);
        while (!looking_at("?>")) {
            if (at_end()) fail("unterminated processing instruction");
            advance();
        }
        advance_n(2);
    }

    void skip_doctype() {
        // precondition: looking_at("<!DOCTYPE"); skip to matching '>'
        int depth = 0;
        while (!at_end()) {
            const char c = advance();
            if (c == '<') ++depth;
            if (c == '>') {
                if (depth == 0) return;
                --depth;
            }
        }
        fail("unterminated DOCTYPE");
    }

    void skip_prolog() {
        skip_misc();
    }

    void skip_misc() {
        for (;;) {
            skip_ws();
            if (looking_at("<?")) {
                skip_pi();
            } else if (looking_at("<!--")) {
                skip_comment();
            } else if (looking_at("<!DOCTYPE")) {
                advance_n(9);
                skip_doctype();
            } else {
                return;
            }
        }
    }

    [[nodiscard]] static bool is_name_start(char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
    }

    [[nodiscard]] static bool is_name_char(char c) {
        return is_name_start(c) || std::isdigit(static_cast<unsigned char>(c)) ||
               c == '-' || c == '.';
    }

    std::string parse_name() {
        if (at_end() || !is_name_start(peek()))
            fail("expected a name");
        std::string name;
        while (!at_end() && is_name_char(peek()))
            name.push_back(advance());
        return name;
    }

    void append_entity(std::string& out) {
        // precondition: peek() == '&'
        advance();
        std::string ent;
        while (!at_end() && peek() != ';') {
            ent.push_back(advance());
            if (ent.size() > 10) fail("unterminated entity reference");
        }
        if (at_end()) fail("unterminated entity reference");
        advance(); // ';'
        if (ent == "lt") out.push_back('<');
        else if (ent == "gt") out.push_back('>');
        else if (ent == "amp") out.push_back('&');
        else if (ent == "quot") out.push_back('"');
        else if (ent == "apos") out.push_back('\'');
        else if (!ent.empty() && ent[0] == '#') {
            int base = 10;
            std::string_view digits(ent);
            digits.remove_prefix(1);
            if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
                base = 16;
                digits.remove_prefix(1);
            }
            unsigned code = 0;
            auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), code, base);
            if (ec != std::errc{} || ptr != digits.data() + digits.size())
                fail("invalid character reference &" + ent + ";");
            append_utf8(out, code);
        } else {
            fail("unknown entity &" + ent + ";");
        }
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

    std::string parse_attr_value() {
        if (at_end() || (peek() != '"' && peek() != '\''))
            fail("expected quoted attribute value");
        const char quote = advance();
        std::string value;
        while (!at_end() && peek() != quote) {
            if (peek() == '&') append_entity(value);
            else if (peek() == '<') fail("'<' not allowed in attribute value");
            else value.push_back(advance());
        }
        if (at_end()) fail("unterminated attribute value");
        advance(); // closing quote
        return value;
    }

    Element parse_element() {
        const NestingLevel level(_depth, [this](const auto& message) { fail(message); });
        expect('<');
        Element element;
        element.name = parse_name();
        // attributes
        for (;;) {
            skip_ws();
            if (at_end()) fail("unterminated start tag");
            if (peek() == '>' || looking_at("/>")) break;
            std::string attr_name = parse_name();
            skip_ws();
            expect('=');
            skip_ws();
            element.attributes.emplace_back(std::move(attr_name), parse_attr_value());
        }
        if (looking_at("/>")) {
            advance_n(2);
            return element;
        }
        expect('>');
        parse_content(element);
        return element;
    }

    void parse_content(Element& element) {
        for (;;) {
            if (at_end()) fail("unterminated element <" + element.name + ">");
            if (looking_at("<![CDATA[")) {
                advance_n(9);
                while (!looking_at("]]>")) {
                    if (at_end()) fail("unterminated CDATA section");
                    element.text.push_back(advance());
                }
                advance_n(3);
            } else if (looking_at("<!--")) {
                skip_comment();
            } else if (looking_at("<?")) {
                skip_pi();
            } else if (looking_at("</")) {
                advance_n(2);
                std::string close = parse_name();
                if (close != element.name)
                    fail("mismatched close tag </" + close + "> for <" + element.name + ">");
                skip_ws();
                expect('>');
                return;
            } else if (peek() == '<') {
                element.children.push_back(parse_element());
            } else if (peek() == '&') {
                append_entity(element.text);
            } else {
                element.text.push_back(advance());
            }
        }
    }
};

} // namespace

std::optional<std::string_view> Element::attr(std::string_view attr_name) const {
    for (const auto& [name_, value] : attributes)
        if (name_ == attr_name) return std::string_view(value);
    return std::nullopt;
}

std::string_view Element::required_attr(std::string_view attr_name) const {
    if (auto value = attr(attr_name)) return *value;
    throw model_error("<" + name + "> is missing required attribute '" +
                      std::string(attr_name) + "'");
}

const Element* Element::first_child(std::string_view child_name) const {
    for (const auto& child : children)
        if (child.name == child_name) return &child;
    return nullptr;
}

std::vector<const Element*> Element::children_named(std::string_view child_name) const {
    std::vector<const Element*> out;
    for (const auto& child : children)
        if (child.name == child_name) out.push_back(&child);
    return out;
}

Element parse(std::string_view input) {
    return Parser(input).parse_document();
}

} // namespace aalwines::xml
