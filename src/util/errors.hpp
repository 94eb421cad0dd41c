#pragma once
// Error types shared across the AalWiNes library.
//
// The library reports malformed input (XML, GML, JSON, query text) through
// `parse_error`, which carries a 1-based line/column position, and internal
// contract violations through `logic_error`-derived types.  Verification
// itself never throws for "query not satisfied" -- that is a regular result.

#include <cstddef>
#include <stdexcept>
#include <string>

namespace aalwines {

/// Position in a textual input, 1-based.  line == 0 means "unknown".
struct SourcePos {
    unsigned line = 0;
    unsigned column = 0;
};

/// Thrown when a textual input (XML, GML, JSON, query) is malformed.
class parse_error : public std::runtime_error {
public:
    parse_error(std::string message, SourcePos pos);
    explicit parse_error(std::string message);

    /// Position of the offending token; line 0 when unknown.
    [[nodiscard]] SourcePos where() const noexcept { return _pos; }

private:
    SourcePos _pos;
};

/// Thrown when input is well-formed but semantically inconsistent with the
/// network model (e.g. a route referencing an unknown interface).
class model_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown by AALWINES_ASSERT (util/check.hpp) when an internal invariant is
/// violated: a bug in the library or a corrupted data structure, never bad
/// user input.  Derives from logic_error; the what() string carries the
/// failed expression and its source location.
class invariant_error : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] void fail_parse(const std::string& message, SourcePos pos);
} // namespace detail

/// The deepest nesting the recursive-descent parsers (JSON, XML, GML and
/// query groups) accept.  They recurse once per level, so without a bound a
/// single deep document exhausts the stack; real documents nest about a
/// dozen levels deep.
inline constexpr unsigned k_max_nesting = 256;

/// The most atoms a query's bounded repetitions r{n,m} may expand to, all
/// together: each adds its copies of r times the atoms of r.  Expansions are
/// built eagerly, so without a bound `.{0,100000}`, `.` with a few dozen
/// stacked `{2}`, or a few thousand `.{1000}` exhaust time or memory.
inline constexpr std::size_t k_max_repeat_atoms = 1024;

/// Scope guard for one nesting level of a recursive-descent parser: counts
/// the level in `depth` while it lives.  Past k_max_nesting levels it calls
/// `fail` (which throws the parser's parse_error) instead.
class NestingLevel {
public:
    template <class Fail>
    NestingLevel(unsigned& depth, Fail&& fail) : _depth(depth) {
        if (++_depth > k_max_nesting)
            fail("nesting deeper than " + std::to_string(k_max_nesting) + " levels");
    }
    ~NestingLevel() { --_depth; }
    NestingLevel(const NestingLevel&) = delete;
    NestingLevel& operator=(const NestingLevel&) = delete;

private:
    unsigned& _depth;
};

} // namespace aalwines
