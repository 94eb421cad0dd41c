#pragma once
// Regular-expression ASTs over SymbolSet atoms.
//
// The query language (paper §2.5) uses regular expressions both over labels
// (the `a` and `c` parts) and over links (the `b` part).  Both compile to the
// same AST; atoms are symbol sets, so character-class complement (`[^v#u]`)
// is represented directly without a full language complement.

#include <memory>
#include <vector>

#include "nfa/symbol_set.hpp"

namespace aalwines::nfa {

class Regex {
public:
    enum class Kind : std::uint8_t {
        Empty,   ///< the empty language
        Epsilon, ///< the language { ε }
        Atom,    ///< one symbol drawn from a SymbolSet
        Concat,  ///< children in sequence
        Alt,     ///< union of children
        Star,    ///< zero or more of the single child
        Plus,    ///< one or more of the single child
        Opt,     ///< zero or one of the single child
    };

    [[nodiscard]] static Regex empty() { return Regex(Kind::Empty); }
    [[nodiscard]] static Regex epsilon() { return Regex(Kind::Epsilon); }
    [[nodiscard]] static Regex atom(SymbolSet symbols);
    [[nodiscard]] static Regex concat(std::vector<Regex> children);
    [[nodiscard]] static Regex alt(std::vector<Regex> children);
    [[nodiscard]] static Regex star(Regex child);
    [[nodiscard]] static Regex plus(Regex child);
    [[nodiscard]] static Regex opt(Regex child);

    [[nodiscard]] Kind kind() const noexcept { return _kind; }
    [[nodiscard]] const SymbolSet& symbols() const { return _symbols; }
    [[nodiscard]] const std::vector<Regex>& children() const { return _children; }

    /// True when ε is in the language (syntactic nullability check).
    [[nodiscard]] bool nullable() const;

private:
    explicit Regex(Kind kind) : _kind(kind) {}

    Kind _kind;
    SymbolSet _symbols;         // for Atom
    std::vector<Regex> _children; // for composite nodes
};

} // namespace aalwines::nfa
