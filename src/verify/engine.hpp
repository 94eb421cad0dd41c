#pragma once
// Query verification engines (paper §4.2, Figure 3):
//
//   Dual     — unweighted: over-approximating post* first (conclusive NO, or
//              a candidate trace whose feasibility is checked in polynomial
//              time); on an infeasible candidate, an under-approximating
//              PDA with a global failure counter decides YES or returns
//              INCONCLUSIVE.
//   Weighted — same pipeline on a weighted PDA; the witness returned is
//              minimal w.r.t. the lexicographic weight vector (Problem 2).
//   Moped    — baseline modelling the external Moped model checker used by
//              P-Rex: the (reduced) PDA is serialised to a Moped-style text
//              format, parsed back, and solved by classical pre* saturation
//              with full saturation before the membership check.  Logical
//              properties only (requesting weights is an error).
//   Exact    — one exact PDA per failure scenario; always conclusive,
//              exponential in the failure budget.
//
// Dual, Weighted and Moped share one over -> under decision and differ only
// in the pass it runs, so a query's OVER / UNDER mode picks the same single
// approximation in each of them; Exact ignores the mode.
//
// The engine decides when network→PDA rules materialize: Dual and Weighted
// translate lazily (saturation demands only the control states it reaches),
// Moped and Exact eagerly (the serialization round trip and the per-scenario
// enumeration consume the whole rule set up front).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "model/quantity.hpp"
#include "model/trace.hpp"
#include "query/query.hpp"

namespace aalwines::pda {
struct SolverWorkspace;
}

namespace aalwines::verify {

enum class Answer : std::uint8_t { Yes, No, Inconclusive };

[[nodiscard]] std::string_view to_string(Answer answer);

enum class EngineKind : std::uint8_t { Moped, Dual, Weighted, Exact };

[[nodiscard]] std::string_view to_string(EngineKind engine);

struct VerifyOptions {
    EngineKind engine = EngineKind::Dual;
    /// PDA reduction level: 0 = off, 1 = top-of-stack, 2 = + second symbol.
    int reduction_level = 2;
    /// Minimisation objective for EngineKind::Weighted.
    const WeightExpr* weights = nullptr;
    /// Per-saturation iteration cap (0 = unlimited); exceeding it makes the
    /// phase inconclusive — the benchmark harness's timeout stand-in.
    std::size_t max_iterations = 0;
    /// By default the Moped baseline models P-Rex's pipeline, which predates
    /// the top-of-stack reduction: the PDA is expanded and solved unreduced.
    /// Set true to feed Moped the reduced PDA instead (the architecture of
    /// the paper's Figure 3); bench_reduction quantifies the difference.
    bool moped_reduction = false;
    /// Reconstruct a witness trace on YES answers.
    bool build_trace = true;
    /// Collect up to this many distinct feasible witness traces (ordered by
    /// weight for the weighted engine).  Values > 1 disable demand-driven
    /// early termination so the saturated automaton covers alternatives.
    std::size_t max_witnesses = 1;
    /// Optional caller-owned solver scratch memory (the worklist arena)
    /// reused across calls.  The sweep engine pools one workspace per
    /// worker; nullptr = call-local.
    pda::SolverWorkspace* workspace = nullptr;
};

/// The weights a dual/weighted run's translation prices rules with: the
/// weight expression of a weighted run, none otherwise (an empty expression
/// counts as none).
[[nodiscard]] const WeightExpr* translation_weights(const VerifyOptions& options);

/// Timing and size figures for one saturation phase.  Every engine reports
/// the same semantics so `--stats` output is comparable across engines:
/// `pda_rules`/`pda_states` describe the symbolic translation PDA after any
/// reduction (the solver's direct input for dual/weighted; with a lazy
/// translation, the part saturation materialized); engines that
/// additionally expand the PDA (Moped's concrete label encoding) report that
/// backend's size in the `_expanded` fields, which stay 0 elsewhere.  The
/// exact engine sums its scenarios' figures (the worklist peak is the
/// largest).
struct PhaseStats {
    std::size_t pda_rules = 0;
    std::size_t pda_states = 0;
    std::size_t pda_rules_expanded = 0;  ///< Moped concrete backend only
    std::size_t pda_states_expanded = 0; ///< Moped concrete backend only
    std::size_t saturation_iterations = 0; ///< worklist pops (items finalized)
    std::size_t automaton_transitions = 0; ///< incl. ε-transitions
    std::size_t worklist_relaxations = 0;  ///< inserts + weight decreases
    std::size_t peak_worklist = 0;         ///< worklist length high-water mark
    /// Demand-driven materialization figures, snapshotted when the phase
    /// ends.  `pda_rules_total` is the eager-equivalent rule count (before
    /// reduction); with a lazy translation `pda_states_materialized` is the
    /// subset of states saturation actually demanded, and equals the full
    /// count when eager.
    std::size_t pda_rules_total = 0;
    std::size_t pda_states_materialized = 0;
    bool lazy_translation = false;
    double seconds = 0.0;
    /// Wall-clock split of `seconds` by pipeline stage (post* passes: dual,
    /// weighted and exact; 0 for Moped).  With a lazy translation, rule
    /// materialization happens on demand inside the saturation stage, so
    /// `translate_seconds` covers only the symbolic setup and
    /// `materialize_seconds` (time inside the rule provider) is a part of
    /// `saturate_seconds`, not an addend.
    double translate_seconds = 0.0;   ///< network->PDA translation setup
    double reduce_seconds = 0.0;      ///< top-of-stack reduction
    double saturate_seconds = 0.0;    ///< initial automaton + post* saturation
    double materialize_seconds = 0.0; ///< lazy rule emission within saturate
    double accept_seconds = 0.0;      ///< acceptance search (find_accepted)
    double witness_seconds = 0.0;     ///< witness unroll + alternatives
    bool ran = false;
    bool truncated = false;
};

struct VerifyStats {
    PhaseStats over;
    PhaseStats under;
    double total_seconds = 0.0;
};

struct VerifyResult {
    Answer answer = Answer::Inconclusive;
    std::optional<Trace> trace;           ///< witness on YES (when requested)
    std::vector<Trace> witnesses;         ///< all collected witnesses (max_witnesses)
    std::vector<std::uint64_t> weight;    ///< witness weight per priority (Weighted)
    VerifyStats stats;
    std::string note;                     ///< human-readable detail
};

class TranslationCache;

/// Decide the query satisfiability problem (Problem 1) — and, for the
/// weighted engine, the minimum witness problem (Problem 2).
[[nodiscard]] VerifyResult verify(const Network& network, const query::Query& query,
                                  const VerifyOptions& options = {});

/// Same, reusing a caller-owned TranslationCache — the incremental what-if
/// path: the cache outlives the call and is rebased between network
/// generations instead of rebuilt, so saturation re-materializes only the
/// invalidated frontier.  Only the native post* engines (Dual, Weighted)
/// accept an external cache; `cache` must have been built for this
/// query/weights and rebased to exactly `network`.  An eager cache runs the
/// same pipeline on the whole rule set: the reference build the lazy ≡ eager
/// tests and the benches' eager rows use.
[[nodiscard]] VerifyResult verify(const Network& network, const query::Query& query,
                                  const VerifyOptions& options, TranslationCache& cache);

} // namespace aalwines::verify
