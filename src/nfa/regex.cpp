#include "nfa/regex.hpp"

namespace aalwines::nfa {

Regex Regex::atom(SymbolSet symbols) {
    if (symbols.is_empty_set()) return empty();
    Regex r(Kind::Atom);
    r._symbols = std::move(symbols);
    return r;
}

Regex Regex::concat(std::vector<Regex> children) {
    // Flatten, drop ε factors, collapse to Empty if any factor is Empty.
    std::vector<Regex> flat;
    for (auto& child : children) {
        if (child.kind() == Kind::Empty) return empty();
        if (child.kind() == Kind::Epsilon) continue;
        if (child.kind() == Kind::Concat) {
            for (auto& grandchild : child._children)
                flat.push_back(std::move(grandchild));
        } else {
            flat.push_back(std::move(child));
        }
    }
    if (flat.empty()) return epsilon();
    if (flat.size() == 1) return std::move(flat.front());
    Regex r(Kind::Concat);
    r._children = std::move(flat);
    return r;
}

Regex Regex::alt(std::vector<Regex> children) {
    std::vector<Regex> flat;
    for (auto& child : children) {
        if (child.kind() == Kind::Empty) continue;
        if (child.kind() == Kind::Alt) {
            for (auto& grandchild : child._children)
                flat.push_back(std::move(grandchild));
        } else {
            flat.push_back(std::move(child));
        }
    }
    if (flat.empty()) return empty();
    if (flat.size() == 1) return std::move(flat.front());
    Regex r(Kind::Alt);
    r._children = std::move(flat);
    return r;
}

// star, plus and opt fold a unary child, so stacked postfix operators nest
// one level however many there are.

Regex Regex::star(Regex child) {
    if (child.kind() == Kind::Empty || child.kind() == Kind::Epsilon) return epsilon();
    // (r*)* = (r+)* = (r?)* = r*
    if (child.kind() == Kind::Star || child.kind() == Kind::Plus || child.kind() == Kind::Opt)
        return star(std::move(child._children.front()));
    Regex r(Kind::Star);
    r._children.push_back(std::move(child));
    return r;
}

Regex Regex::plus(Regex child) {
    if (child.kind() == Kind::Empty) return empty();
    if (child.kind() == Kind::Epsilon) return epsilon();
    // (r+)+ = r+, (r*)+ = r*, (r?)+ = r*
    if (child.kind() == Kind::Plus || child.kind() == Kind::Star) return child;
    if (child.kind() == Kind::Opt) return star(std::move(child._children.front()));
    Regex r(Kind::Plus);
    r._children.push_back(std::move(child));
    return r;
}

Regex Regex::opt(Regex child) {
    if (child.kind() == Kind::Empty || child.kind() == Kind::Epsilon) return epsilon();
    // (r?)? = r?, (r*)? = r*, (r+)? = r*
    if (child.kind() == Kind::Opt || child.kind() == Kind::Star) return child;
    if (child.kind() == Kind::Plus) return star(std::move(child._children.front()));
    Regex r(Kind::Opt);
    r._children.push_back(std::move(child));
    return r;
}

bool Regex::nullable() const {
    switch (_kind) {
        case Kind::Empty: return false;
        case Kind::Epsilon: return true;
        case Kind::Atom: return false;
        case Kind::Star:
        case Kind::Opt: return true;
        case Kind::Plus: return _children.front().nullable();
        case Kind::Concat:
            for (const auto& child : _children)
                if (!child.nullable()) return false;
            return true;
        case Kind::Alt:
            for (const auto& child : _children)
                if (child.nullable()) return true;
            return false;
    }
    return false;
}

} // namespace aalwines::nfa
