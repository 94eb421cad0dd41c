#include "query/lexer.hpp"

#include <cctype>
#include <limits>

namespace aalwines::query {

namespace {
bool is_name_start(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}
bool is_name_core(char c) { return is_name_start(c); }
bool is_name_joiner(char c) { return c == '.' || c == '-' || c == '/'; }
} // namespace

char Cursor::advance() {
    const char c = _text[_pos++];
    if (c == '\n') {
        ++_line;
        _col = 1;
    } else {
        ++_col;
    }
    return c;
}

void Cursor::skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
}

void Cursor::expect(char c) {
    skip_ws();
    if (at_end() || peek() != c) fail(std::string("expected '") + c + "'");
    advance();
}

bool Cursor::try_consume(char c) {
    skip_ws();
    if (!at_end() && peek() == c) {
        advance();
        return true;
    }
    return false;
}

char Cursor::lookahead() {
    skip_ws();
    return peek();
}

bool Cursor::at_name() {
    skip_ws();
    return !at_end() && (is_name_start(peek()) || peek() == '\'');
}

std::string Cursor::name() {
    skip_ws();
    if (at_end()) fail("expected a name");
    std::string out;
    if (peek() == '\'') {
        advance();
        while (!at_end() && peek() != '\'') out.push_back(advance());
        if (at_end()) fail("unterminated quoted name");
        advance();
        return out;
    }
    if (!is_name_start(peek())) fail("expected a name");
    while (!at_end()) {
        const char c = peek();
        if (is_name_core(c)) {
            out.push_back(advance());
        } else if (is_name_joiner(c) && is_name_core(peek_at(1))) {
            out.push_back(advance());
        } else {
            break;
        }
    }
    return out;
}

std::uint64_t Cursor::number() {
    skip_ws();
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("expected a number");
    constexpr auto max = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        const auto digit = static_cast<std::uint64_t>(peek() - '0');
        if (value > (max - digit) / 10) fail("number out of range");
        advance();
        value = value * 10 + digit;
    }
    return value;
}

void Cursor::fail(const std::string& message) const {
    detail::fail_parse("query: " + message, {_line, _col});
}

} // namespace aalwines::query
