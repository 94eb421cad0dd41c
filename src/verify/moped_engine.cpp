#include <chrono>

#include "telemetry/telemetry.hpp"
#include "verify/engine.hpp"
#include "verify/moped_format.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

namespace {

using Clock = std::chrono::steady_clock;

struct MopedPhaseOutcome {
    bool satisfied = false;
    bool truncated = false;
    std::optional<Trace> trace;
    Feasibility feasibility;
    PhaseStats stats;
};

/// One pre*-based phase modelling the Moped pipeline P-Rex used: the PDA in
/// the *direct* encoding — no top-of-stack reduction, every symbolic class
/// rule expanded over the concrete label alphabet, concrete automaton edges
/// — is serialised to the Moped text format, parsed back, and solved by
/// classical full pre* saturation before the membership check.  This is
/// exactly the configuration the paper's novel translation (symbolic rules
/// + reductions + demand-driven post*) is measured against.
MopedPhaseOutcome run_pre_star_phase(const Network& network, const query::Query& query,
                                     Approximation approximation,
                                     const VerifyOptions& options, TranslationCache& cache,
                                     pda::SolverWorkspace& workspace) {
    AALWINES_SPAN(approximation == Approximation::Under ? "pre_star_phase(under)"
                                                        : "pre_star_phase(over)");
    MopedPhaseOutcome outcome;
    const auto start = Clock::now();
    outcome.stats.ran = true;

    Translation& translation = cache.translation(approximation);
    outcome.stats.pda_rules_before_reduction = translation.rules_before_reduction();
    if (options.moped_reduction) translation.reduce(options.reduction_level);

    // The external-tool round trip, in the direct (fully concrete) encoding.
    // The serialization needs every rule, so demand-driven construction
    // would buy nothing here: Moped translates eagerly.
    pda::Pda backend(0);
    {
        AALWINES_SPAN("moped_roundtrip");
        const auto expanded = translation.pda().expand_concrete();
        const auto document = write_moped_format(expanded);
        backend = parse_moped_format(document);
    }
    outcome.stats.pda_rules_expanded = backend.rule_count();
    outcome.stats.pda_states_expanded = backend.state_count();
    // Same semantics as the dual engine: the (optionally reduced) symbolic
    // translation PDA.  The concrete backend's size goes in `_expanded`.
    outcome.stats.pda_rules = translation.pda().rule_count();
    outcome.stats.pda_states = translation.pda().state_count();
    outcome.stats.pda_rules_total = translation.total_rules();
    outcome.stats.pda_rules_materialized = translation.pda().rule_count();
    outcome.stats.pda_states_materialized = translation.pda().materialized_state_count();

    auto automaton =
        translation.make_final_automaton(backend, /*concrete_edges=*/true);
    pda::SolverOptions solver_options;
    solver_options.max_iterations = options.max_iterations;
    solver_options.workspace = &workspace;
    const auto sat_stats = pda::pre_star(automaton, solver_options);
    absorb_solver_stats(outcome.stats, sat_stats);
    outcome.truncated = sat_stats.truncated;

    const auto accepted = pda::find_accepted(
        automaton, translation.initial_states(), translation.initial_header_nfa(),
        static_cast<pda::Symbol>(network.labels.size()), &workspace);
    if (!accepted) {
        outcome.stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
        return outcome;
    }
    outcome.satisfied = true;

    // Witness rule ids refer to the round-tripped backend PDA; expansion and
    // the format both preserve tags and control states, so the translation
    // can still rebuild the network trace.
    if (const auto witness = pda::unroll_pre_star(automaton, *accepted)) {
        if (auto trace = translation.witness_to_trace(*witness, backend)) {
            outcome.feasibility = check_feasibility(network, *trace, query.max_failures);
            outcome.trace = std::move(trace);
        }
    }
    outcome.stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return outcome;
}

} // namespace

VerifyResult moped_verify(const Network& network, const query::Query& query,
                          const VerifyOptions& options) {
    AALWINES_SPAN("moped_verify");
    const auto start = Clock::now();
    VerifyResult result;

    TranslationCache cache(network, query, /*weights=*/nullptr, /*lazy=*/false);
    pda::SolverWorkspace workspace;

    auto over = run_pre_star_phase(network, query, Approximation::Over, options, cache,
                                   workspace);
    result.stats.over = over.stats;
    if (!over.satisfied) {
        result.answer = over.truncated ? Answer::Inconclusive : Answer::No;
        if (over.truncated) result.note = "moped: over-approximation truncated";
        result.stats.total_seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        return result;
    }
    if (over.trace && over.feasibility.feasible) {
        result.answer = Answer::Yes;
        if (options.build_trace) result.trace = std::move(over.trace);
        result.stats.total_seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        return result;
    }

    auto under = run_pre_star_phase(network, query, Approximation::Under, options, cache,
                                    workspace);
    result.stats.under = under.stats;
    if (under.satisfied && under.trace && under.feasibility.feasible) {
        result.answer = Answer::Yes;
        if (options.build_trace) result.trace = std::move(under.trace);
    } else {
        result.answer = Answer::Inconclusive;
        result.note = under.truncated ? "moped: under-approximation truncated"
                                      : "moped: no valid witness in either approximation";
    }
    result.stats.total_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return result;
}

} // namespace aalwines::verify
