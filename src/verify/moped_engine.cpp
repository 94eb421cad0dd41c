#include <chrono>

#include "telemetry/telemetry.hpp"
#include "verify/moped_format.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

/// One pre*-based phase modelling the Moped pipeline P-Rex used: the PDA in
/// the *direct* encoding — no top-of-stack reduction, every symbolic class
/// rule expanded over the concrete label alphabet, concrete automaton edges
/// — is serialised to the Moped text format, parsed back, and solved by
/// classical full pre* saturation before the membership check.  This is
/// exactly the configuration the paper's novel translation (symbolic rules
/// + reductions + demand-driven post*) is measured against.
PhaseOutcome run_pre_star_phase(const Network& network, const query::Query& query,
                                Approximation approximation, const VerifyOptions& options,
                                TranslationCache& cache, pda::SolverWorkspace& workspace) {
    AALWINES_SPAN(approximation == Approximation::Under ? "pre_star_phase(under)"
                                                        : "pre_star_phase(over)");
    PhaseOutcome outcome;
    const auto start = std::chrono::steady_clock::now();
    outcome.stats.ran = true;

    Translation& translation = cache.translation(approximation);
    if (options.moped_reduction) translation.reduce(options.reduction_level);

    // The external-tool round trip, in the direct (fully concrete) encoding.
    pda::Pda backend(0);
    {
        AALWINES_SPAN("moped_roundtrip");
        const auto expanded = translation.pda().expand_concrete();
        const auto document = write_moped_format(expanded);
        backend = parse_moped_format(document);
    }
    // The symbolic translation PDA is reported as in the post* pass; the
    // concrete backend's size goes in `_expanded`.
    outcome.stats.pda_rules_expanded = backend.rule_count();
    outcome.stats.pda_states_expanded = backend.state_count();

    auto automaton =
        translation.make_final_automaton(backend, /*concrete_edges=*/true);
    pda::SolverOptions solver_options;
    solver_options.max_iterations = options.max_iterations;
    solver_options.workspace = &workspace;
    record_saturation(outcome, pda::pre_star(automaton, solver_options), translation);

    const auto accepted = pda::find_accepted(
        automaton, translation.initial_states(), translation.initial_header_nfa(),
        static_cast<pda::Symbol>(network.labels.size()), &workspace);
    outcome.satisfied = accepted.has_value();
    // Witness rule ids refer to the round-tripped backend PDA; expansion and
    // the format both preserve tags and control states, so the translation
    // can still rebuild the network trace.
    if (accepted) {
        if (const auto witness = pda::unroll_pre_star(automaton, *accepted)) {
            if (auto trace = translation.witness_to_trace(*witness, backend)) {
                outcome.feasibility =
                    check_feasibility(network, *trace, query.max_failures);
                outcome.trace = std::move(trace);
            }
        }
    }
    outcome.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return outcome;
}

} // namespace aalwines::verify
