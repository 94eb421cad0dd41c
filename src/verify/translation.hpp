#pragma once
// Translation of (MPLS network, query) into a weighted pushdown system
// (paper §4.2): control states are (last traversed link, path-NFA state)
// pairs — extended with an accumulated failure counter for the
// under-approximation — and the stack is the label stack.
//
// Over-approximation: a TE group whose activation requires c locally failed
// links contributes rules whenever c ≤ k; the total across routers may
// exceed k, hence over-approximation.  Under-approximation: the counter in
// the control state bounds the *sum* of local failures along the trace,
// which may double-count a link revisited in a loop, hence
// under-approximation (paper §4.2).

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "model/quantity.hpp"
#include "model/trace.hpp"
#include "nfa/nfa.hpp"
#include "pda/pautomaton.hpp"
#include "pda/reduction.hpp"
#include "pda/solver.hpp"
#include "query/query.hpp"

namespace aalwines::verify {

enum class Approximation : std::uint8_t { Over, Under, Exact };

/// The three query NFAs every translation needs: compiling them (regex →
/// Thompson → ε-elimination, plus two intersections with the valid-header
/// language H) is independent of the approximation, so one verify() call
/// compiles them once and shares them across the over/under dual passes —
/// and across every scenario of the exact engine.
struct CompiledNfas {
    nfa::Nfa path;           ///< B, over links
    nfa::Nfa initial_header; ///< L(a) ∩ H, over labels
    nfa::Nfa final_header;   ///< L(c) ∩ H, over labels
};

[[nodiscard]] CompiledNfas compile_query_nfas(const Network& network,
                                              const query::Query& query);

/// A frozen image of a saturation's link footprint, taken right after it
/// (Translation::add_to_footprint) so the carry-over test outlives the live
/// translation, which may rebase away afterwards.  The test reads the two
/// bitmaps of Translation::rebase, measured from the snapshot the footprint
/// was taken on: `out_links` holds that snapshot's out-link relation.
struct LinkFootprint {
    std::vector<bool> materialized; ///< link carries a demanded control state
    std::vector<bool> out_links;    ///< out-link of some materialized link's rule
    std::vector<bool> initial;      ///< path-NFA start candidate links

    /// Whether a rebase over the bitmaps could change the frozen saturation
    /// (a dirty link carries a demanded state, or a behavior-dirty link is
    /// an out-link of one or an initial candidate).  False means the frozen
    /// result provably carries over.
    [[nodiscard]] bool touches(const std::vector<bool>& dirty,
                               const std::vector<bool>& behavior_dirty) const {
        const auto any_in = [](const std::vector<bool>& changed,
                               const std::vector<bool>& footprint) {
            for (std::size_t l = 0; l < changed.size() && l < footprint.size(); ++l)
                if (changed[l] && footprint[l]) return true;
            return false;
        };
        return any_in(dirty, materialized) || any_in(behavior_dirty, out_links) ||
               any_in(behavior_dirty, initial);
    }
};

struct TranslationOptions {
    Approximation approximation = Approximation::Over;
    /// Weight vector for the minimum-witness problem; nullptr = unweighted.
    const WeightExpr* weights = nullptr;
    /// For Approximation::Exact: the concrete failure scenario.  The PDA
    /// then encodes Definition 4 exactly — only active links, only the
    /// first active TE group per entry (deciding the query requires
    /// enumerating every such scenario, which is exponential in k; this is
    /// what the over/under pair avoids).
    const std::set<LinkId>* failed_links = nullptr;
    /// Pre-compiled query NFAs (see CompiledNfas); nullptr = compile here.
    const CompiledNfas* nfas = nullptr;
    /// Demand-driven rule materialization: construction emits *no* rules and
    /// registers the translation as the PDA's RuleProvider instead; a control
    /// state's rules for one top label — its slice of routing entry (link,
    /// label): TE-group expansion × path-NFA moves × failure slots,
    /// including the op chains — are generated when post* first pops a
    /// transition out of that state reading that label (pre* demands all
    /// labels up front).  A chain's interior states are created when the
    /// chain materializes, so the PDA starts with its control states only;
    /// the P-automaton numbers its own states apart (pda::k_first_helper).
    /// reduce() becomes a no-op: the demand filter subsumes the top-of-stack
    /// pass (see reduction.cpp).
    bool lazy = false;
};

class Translation : public pda::RuleProvider {
public:
    Translation(const Network& network, const query::Query& query,
                const TranslationOptions& options);
    /// Lazy mode registers `this` as the PDA's rule provider, so the
    /// translation must stay put for the PDA's lifetime.
    Translation(const Translation&) = delete;
    Translation& operator=(const Translation&) = delete;

    [[nodiscard]] pda::Pda& pda() noexcept { return *_pda; }
    [[nodiscard]] const pda::Pda& pda() const noexcept { return *_pda; }

    /// Run the top-of-stack reduction at `level` (0 = off).  Idempotent: a
    /// second call returns the first call's stats without touching the PDA,
    /// so a translation shared across phases reduces exactly once.  A lazy
    /// translation skips the pass (stats report zero rules removed): the
    /// demand filter at materialization plays its role — see reduction.cpp.
    pda::ReductionStats reduce(int level);

    /// Rule count before the first reduce() ran (== rule_count() until
    /// then); for a lazy translation the eager-equivalent total.
    [[nodiscard]] std::size_t rules_before_reduction() const {
        if (_lazy) return _total_rules;
        return _reduced ? _reduce_stats.rules_before : _pda->rule_count();
    }

    /// Demand-driven construction active (TranslationOptions::lazy).
    [[nodiscard]] bool lazy() const noexcept { return _lazy; }

    /// Re-target this lazy translation at a patched snapshot of the same
    /// network (identical link set and label alphabet — a delta that mints a
    /// label must fall back to a cold rebuild).  The two bitmaps split the
    /// delta by how it reaches a control state's rules:
    ///
    ///   `dirty`           links whose *own* entries emit different rules —
    ///                     routing entries changed, up/down flipped (a down
    ///                     in-link emits nothing), or (weighted) anything
    ///                     that reprices its rules.
    ///   `behavior_dirty`  links whose role as an *out-link* changed — an
    ///                     up/down flip (down out-links are skipped and drop
    ///                     out of the failure budget) or (weighted) a
    ///                     distance change (reprices every rule over it).
    ///                     A pure routing-entry delta never sets these bits:
    ///                     forwarding *into* an edited link is unaffected.
    ///
    /// The affected control states — a dirty link's, or one whose entries
    /// forward over a behavior-dirty link — are un-materialized together
    /// with their chain interiors, the per-link entry index is rebuilt over
    /// the new routing table (the copy-on-write snapshot reallocates every
    /// entry), the affected links' eager-equivalent rule counts are redone,
    /// and the initial states are recomputed (a down link never starts a
    /// trace).  No state is added: re-emitted chains create fresh interiors
    /// when they materialize, and the invalidated ones stay behind as inert,
    /// rule-less states.  The next saturation re-demands exactly the
    /// invalidated frontier; by the match-order argument in
    /// pda::Pda::invalidate_states the answer is byte-identical to a cold
    /// recompile against the patched network.
    void rebase(const Network& network, const std::vector<bool>& dirty,
                const std::vector<bool>& behavior_dirty);

    /// OR this translation's current footprint into `fp` (sized to the link
    /// count on first use).  Call right after a verify so the bitsets cover
    /// everything that saturation materialized; see LinkFootprint for the
    /// validity contract.
    void add_to_footprint(LinkFootprint& fp) const;

    /// Rules the eager pipeline would emit before reduction.  For a lazy
    /// translation this is computed by a rule-free counting pass at
    /// construction; compare with pda().rule_count() (the materialized
    /// subset) for the demand savings.
    [[nodiscard]] std::size_t total_rules() const noexcept { return _total_rules; }

    /// RuleProvider: emit one control state's slice of the entries the
    /// demand names — one label (a binary search in the link's bucket, no
    /// scan), the bucket entries in a label set, or every entry (chain
    /// interiors ride along with their owning chain).  Invoked by the PDA
    /// on demand; not for direct use.
    void materialize(pda::Pda& pda, pda::StateId state, const pda::Demand& demand) override;

    /// P-automaton accepting the initial configurations
    /// {((e₁,q₁,0), h) : h ∈ L(a) ∩ H} — the post* source.
    [[nodiscard]] pda::PAutomaton make_initial_automaton() const;

    /// P-automaton accepting the final configurations
    /// {((e,q,f), h) : q accepting, h ∈ L(c) ∩ H} — the pre* source.
    [[nodiscard]] pda::PAutomaton make_final_automaton() const;

    /// Same automata built over `backend` — a PDA with identical control
    /// states (e.g. the Moped round-tripped copy of this translation).
    /// `concrete_edges` materializes every symbolic edge set into concrete
    /// per-symbol edges (checkers without symbolic alphabets need this).
    [[nodiscard]] pda::PAutomaton make_initial_automaton(const pda::Pda& backend,
                                                         bool concrete_edges = false) const;
    [[nodiscard]] pda::PAutomaton make_final_automaton(const pda::Pda& backend,
                                                       bool concrete_edges = false) const;

    /// Control states where the path NFA accepts (post* acceptance starts).
    [[nodiscard]] const std::vector<pda::StateId>& accepting_states() const {
        return _accepting_states;
    }
    /// Control states of initial configurations (pre* acceptance starts).
    [[nodiscard]] const std::vector<pda::StateId>& initial_states() const {
        return _initial_states;
    }

    [[nodiscard]] const nfa::Nfa& initial_header_nfa() const { return _nfa_a; }
    [[nodiscard]] const nfa::Nfa& final_header_nfa() const { return _nfa_c; }

    /// Rebuild the network trace from a PDA witness (either direction).
    [[nodiscard]] std::optional<Trace> witness_to_trace(const pda::PdaWitness& witness) const;

    /// Same, for a witness whose rule ids refer to `backend` (a round-trip
    /// or concrete expansion of this translation's PDA; tags and control
    /// states must be preserved).
    [[nodiscard]] std::optional<Trace> witness_to_trace(const pda::PdaWitness& witness,
                                                        const pda::Pda& backend) const;

private:
    struct ControlInfo {
        LinkId link = k_invalid_id;     ///< last traversed link (chain: the *next* link)
        std::uint32_t nfa_state = 0;
        std::uint32_t failures = 0;     ///< accumulated (under-approximation only)
        bool chain = false;             ///< intermediate state of an op chain
    };

    /// Per-rule bookkeeping for trace reconstruction: the first rule of each
    /// forwarding chain records the link the packet is sent through.
    struct StepInfo {
        LinkId out_link = k_invalid_id;
        std::uint32_t local_failures = 0;
    };

    /// "No filter" sentinel for the per-state emission filters below.
    static constexpr std::uint32_t k_any = UINT32_MAX;

    void build_control_states();
    /// (Re)compute the post* source states from the path NFA's initial
    /// edges, excluding links a trace can never start on (administratively
    /// down; Exact: in the scenario's failure set).
    void compute_initial_states();
    void build_move_index();
    void build_rules();
    /// (Re)build the per-link routing entry index from `_network`.  for_each
    /// iterates keys in sorted order, so every bucket is label-ascending —
    /// the canonical order that keeps rebased re-materialization emitting
    /// per-state rule sequences identical to a cold build.
    void build_entry_index();
    /// Lazy construction: per-link routing entry index + the counting pass
    /// behind the eager-equivalent rule total.
    void build_lazy_index();
    /// Eager-equivalent rule count of one in-link's entries.
    [[nodiscard]] std::size_t count_link(LinkId in_link) const;
    /// Links whose control states a rebase must invalidate: the link itself
    /// is dirty, or one of its entries forwards over a behavior-dirty link
    /// (out-link state/distance changes alter the emitted rules or their
    /// weights without touching the in-link's own entries).
    [[nodiscard]] std::vector<char> affected_links(
        const std::vector<bool>& dirty, const std::vector<bool>& behavior_dirty) const;
    /// Emit the rules of one routing entry.  `only_q`/`only_f` restrict
    /// emission to rules leaving control state (in_link, only_q, only_f) —
    /// the per-state slice lazy materialization demands; `k_any` disables a
    /// filter (the eager whole-entry pass).
    void add_entry_rules(LinkId in_link, Label label, const RoutingEntry& groups,
                         std::uint32_t only_q = k_any, std::uint32_t only_f = k_any);
    /// Invoke `fn(rule, local_failures)` for every forwarding rule of the
    /// entry that is eligible under the approximation (TE-priority and
    /// failure-budget handling shared by emission and the counting pass).
    template <typename RuleFn>
    void for_entry_rules(LinkId in_link, const RoutingEntry& groups, RuleFn&& fn) const;
    /// Walk one op chain, driving `sink.step(index, last)` before each op
    /// and `sink.rule(pre, op, l1, l2)` per emitted rule — the single source
    /// of truth for chain shape, shared by emission (EmitSink) and the
    /// counting pass (CountSink), so lazy totals match eager emission
    /// rule-for-rule.
    template <typename Sink>
    void walk_chain(Label top, const std::vector<Op>& ops, Sink& sink) const;
    struct EmitSink;
    struct CountSink;
    void add_chain(pda::StateId from, Label top, const ForwardingRule& rule,
                   pda::StateId target, pda::Weight weight, std::uint32_t tag);
    /// A fresh chain-interior state, in eager and lazy mode alike (lazily
    /// it is marked materialized: its rules are emitted with the chain that
    /// owns it).
    [[nodiscard]] pda::StateId new_chain_state();
    [[nodiscard]] pda::Weight make_step_weight(const ForwardingRule& rule,
                                               std::uint64_t local_failures) const;
    [[nodiscard]] pda::Weight make_initial_weight(LinkId first_link) const;
    [[nodiscard]] pda::StateId control_state(LinkId link, std::uint32_t nfa_state,
                                             std::uint32_t failures) const;
    /// Attach a header NFA copy reachable from `sources`; used for both the
    /// initial and the final automaton.
    void attach_header_nfa(pda::PAutomaton& aut, const nfa::Nfa& header_nfa,
                           const std::vector<pda::StateId>& sources, bool weighted_entry,
                           bool concrete_edges) const;

    const Network* _network;
    const query::Query* _query;
    TranslationOptions _options;

    nfa::Nfa _nfa_b;            // path NFA over links
    nfa::Nfa _nfa_a;            // L(a) ∩ H over labels
    nfa::Nfa _nfa_c;            // L(c) ∩ H over labels
    /// The path NFA inverted by consumed link: (q, q') per move on `link`.
    /// Built once per translation so rule emission does not re-scan every
    /// NFA edge for every forwarding rule.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> _moves_by_link;
    std::uint32_t _failure_slots = 1; // k+1 for Under, 1 for Over

    std::unique_ptr<pda::Pda> _pda;
    std::vector<ControlInfo> _control_info; // per PDA state
    std::vector<StepInfo> _steps;           // indexed by rule tag
    std::vector<pda::StateId> _accepting_states;
    std::vector<pda::StateId> _initial_states;
    bool _reduced = false;
    pda::ReductionStats _reduce_stats;

    bool _lazy = false;
    std::size_t _total_rules = 0; ///< eager-equivalent rule count (pre-reduction)
    /// Routing entries grouped by in-link, label-ascending (materialization
    /// looks up "entry (e, label)" or scans "all entries of link e";
    /// RoutingEntry pointers stay stable — the routing table is const for
    /// the translation's lifetime).
    std::vector<std::vector<std::pair<Label, const RoutingEntry*>>> _entries_by_link;
    /// Inverse of the rule out-link relation: `_links_into[out]` lists the
    /// in-links holding a rule that forwards over `out` (sorted, deduped).
    /// Built on first demand by affected_links; dropped whenever a rebase
    /// replaces an affected link's entry list (link-state flips never do —
    /// they leave every routing entry untouched — so sweeping a scenario
    /// axis pays the O(rules) build exactly once).
    mutable std::vector<std::vector<LinkId>> _links_into;
    /// Per-link eager-equivalent rule counts behind `_total_rules`, kept so
    /// a rebase can adjust it by recounting only the affected links.
    std::vector<std::size_t> _link_rules;
};

/// Memoizes the network→PDA translation across the over/under dual passes
/// of one verify() call.  The query NFAs are compiled once and shared, and
/// when the query's failure budget is zero the two approximations emit
/// rule-for-rule identical PDAs (both have a single failure slot), so they
/// share a single Translation — the second phase then skips translation and
/// reduction entirely.
class TranslationCache {
public:
    TranslationCache(const Network& network, const query::Query& query,
                     const WeightExpr* weights, bool lazy = false);

    /// Same, adopting pre-compiled query NFAs instead of compiling them
    /// here.  The sweep engine compiles one CompiledNfas per query template
    /// and shares it across every (failure budget, scenario) cell — the
    /// NFAs depend only on the query's regexes and the label table, never
    /// on k or link state, so the share is exact.  `nfas` must be non-null
    /// and compiled from an identical query against a network with the same
    /// link ids and label table.
    TranslationCache(const Network& network, const query::Query& query,
                     const WeightExpr* weights, bool lazy,
                     std::shared_ptr<const CompiledNfas> nfas);

    /// The memoized translation for `approximation` (Over or Under only;
    /// exact scenarios each need their own Translation — share nfas()).
    [[nodiscard]] Translation& translation(Approximation approximation);

    [[nodiscard]] const CompiledNfas& nfas() const {
        return _shared_nfas != nullptr ? *_shared_nfas : _nfas;
    }

    /// Re-target every built translation at a patched network snapshot (see
    /// Translation::rebase); never-built slots simply build against the new
    /// network on first demand.  The caller keeps both network snapshots
    /// alive across the call and guarantees no label was minted.
    void rebase(const Network& network, const std::vector<bool>& dirty,
                const std::vector<bool>& behavior_dirty);

    /// The slots as built so far (nullptr when the phase never ran); the
    /// incremental re-verifier inspects their demanded footprints.
    [[nodiscard]] Translation* over_or_null() noexcept { return _over.get(); }
    [[nodiscard]] Translation* under_or_null() noexcept { return _under.get(); }

    [[nodiscard]] const Network& network() const noexcept { return *_network; }

private:
    const Network* _network;
    const query::Query* _query;
    const WeightExpr* _weights;
    bool _lazy;
    CompiledNfas _nfas; ///< empty when _shared_nfas is set
    std::shared_ptr<const CompiledNfas> _shared_nfas;
    std::unique_ptr<Translation> _over;
    std::unique_ptr<Translation> _under;
};

/// The valid-header language H = mpls* smpls ip | ip as a regex (top-first).
[[nodiscard]] nfa::Regex valid_header_regex(const LabelTable& labels);

} // namespace aalwines::verify
