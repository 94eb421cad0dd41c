#include "verify/engine.hpp"

#include <algorithm>
#include <chrono>

#include "pda/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

void absorb_solver_stats(PhaseStats& phase, const pda::SolverStats& solver) {
    phase.saturation_iterations = solver.iterations;
    phase.automaton_transitions = solver.transitions + solver.epsilons;
    phase.worklist_relaxations = solver.relaxations;
    phase.peak_worklist = solver.peak_queue;
    phase.truncated = solver.truncated;
}

std::string_view to_string(Answer answer) {
    switch (answer) {
        case Answer::Yes: return "yes";
        case Answer::No: return "no";
        case Answer::Inconclusive: return "inconclusive";
    }
    return "?";
}

std::string_view to_string(EngineKind engine) {
    switch (engine) {
        case EngineKind::Moped: return "moped";
        case EngineKind::Dual: return "dual";
        case EngineKind::Weighted: return "weighted";
        case EngineKind::Exact: return "exact";
    }
    return "?";
}

const WeightExpr* translation_weights(const VerifyOptions& options) {
    return options.engine == EngineKind::Weighted && options.weights != nullptr &&
                   !options.weights->empty()
               ? options.weights
               : nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Outcome of one over- or under-approximating post* run.
struct PhaseOutcome {
    bool satisfied = false;   ///< an accepted configuration exists
    bool truncated = false;   ///< iteration cap hit: result unreliable
    std::optional<Trace> trace;
    std::vector<Trace> witnesses; ///< feasible traces (up to max_witnesses)
    Feasibility feasibility;
    std::vector<std::uint64_t> weight;
    PhaseStats stats;
};

PhaseOutcome run_post_star_phase(const Network& network, const query::Query& query,
                                 Approximation approximation,
                                 const VerifyOptions& options, TranslationCache& cache,
                                 pda::SolverWorkspace& workspace) {
    AALWINES_SPAN(approximation == Approximation::Under ? "post_star_phase(under)"
                                                        : "post_star_phase(over)");
    PhaseOutcome outcome;
    const auto start = Clock::now();
    outcome.stats.ran = true;

    // Memoized across the over/under dual passes: the cache shares the
    // compiled query NFAs, and the whole translation when the failure budget
    // makes the two approximations coincide.  reduce() is idempotent.
    Translation& translation = cache.translation(approximation);
    outcome.stats.pda_rules_before_reduction = translation.rules_before_reduction();
    const auto translated = Clock::now();
    outcome.stats.translate_seconds = seconds_since(start);
    translation.reduce(options.reduction_level);
    outcome.stats.reduce_seconds = seconds_since(translated);
    telemetry::observe_duration(telemetry::Histogram::query_translate,
                                outcome.stats.translate_seconds +
                                    outcome.stats.reduce_seconds);

    const auto saturate_start = Clock::now();
    const auto materialized_before = translation.pda().materialize_seconds();
    auto automaton = translation.make_initial_automaton();
    // Weighted runs stop saturation strictly past the minimal weight level,
    // so every equal-weight minimal derivation is present in any run and the
    // canonically smallest one can be kept — witnesses become independent of
    // discovery order (worklist discipline, rebased rule ids).
    if (options.engine == EngineKind::Weighted)
        automaton.set_canonical_tiebreaks(true);
    const auto domain = static_cast<pda::Symbol>(network.labels.size());
    pda::SolverOptions sopts;
    sopts.max_iterations = options.max_iterations;
    sopts.workspace = &workspace;
    if (options.max_witnesses <= 1) {
        // Demand-driven: stop saturating once a (minimal) witness is certain.
        // (Alternative-witness collection needs the fully saturated automaton.)
        sopts.check_accepted = [&]() {
            const auto found =
                pda::find_accepted(automaton, translation.accepting_states(),
                                   translation.final_header_nfa(), domain, &workspace);
            return found ? found->weight : pda::Weight::infinity();
        };
    }
    const auto sat_stats = pda::post_star(automaton, sopts);
    absorb_solver_stats(outcome.stats, sat_stats);
    outcome.truncated = sat_stats.truncated;
    outcome.stats.saturate_seconds = seconds_since(saturate_start);
    outcome.stats.materialize_seconds =
        translation.pda().materialize_seconds() - materialized_before;
    telemetry::observe_duration(telemetry::Histogram::query_saturate,
                                outcome.stats.saturate_seconds);

    // Snapshot the PDA size after saturation: a lazy translation grows its
    // rule set on demand, so the materialized counts are only meaningful
    // once the worklist has drained (or early-terminated).
    outcome.stats.pda_rules = translation.pda().rule_count();
    outcome.stats.pda_states = translation.pda().state_count();
    outcome.stats.lazy_translation = translation.lazy();
    outcome.stats.pda_rules_total = translation.total_rules();
    outcome.stats.pda_rules_materialized = translation.pda().rule_count();
    outcome.stats.pda_states_materialized = translation.pda().materialized_state_count();
    if (translation.lazy() && outcome.stats.pda_rules_total > 0)
        telemetry::observe(telemetry::Histogram::materialized_rule_pct,
                           100 * outcome.stats.pda_rules_materialized /
                               outcome.stats.pda_rules_total);

    const auto accept_start = Clock::now();
    const auto accepted =
        pda::find_accepted(automaton, translation.accepting_states(),
                           translation.final_header_nfa(), domain, &workspace);
    outcome.stats.accept_seconds = seconds_since(accept_start);
    if (!accepted) {
        telemetry::observe_duration(telemetry::Histogram::query_witness,
                                    outcome.stats.accept_seconds);
        outcome.stats.seconds = seconds_since(start);
        return outcome;
    }
    outcome.satisfied = true;
    outcome.weight = accepted->weight.components();

    const auto witness_start = Clock::now();
    const auto witness = pda::unroll_post_star(automaton, *accepted);
    if (witness) {
        if (auto trace = translation.witness_to_trace(*witness)) {
            outcome.feasibility =
                check_feasibility(network, *trace, query.max_failures);
            outcome.trace = std::move(trace);
        }
    }
    if (options.max_witnesses > 1) {
        // Enumerate alternative witnesses: walk the k-shortest accepted
        // configurations, keep the distinct feasible traces.
        const auto configs = pda::find_accepted_n(
            automaton, translation.accepting_states(), translation.final_header_nfa(),
            domain, options.max_witnesses * 4);
        std::optional<pda::Weight> best_feasible_weight;
        for (const auto& config : configs) {
            if (outcome.witnesses.size() >= options.max_witnesses) break;
            const auto alt_witness = pda::unroll_post_star(automaton, config);
            if (!alt_witness) continue;
            auto trace = translation.witness_to_trace(*alt_witness);
            if (!trace) continue;
            if (!check_feasibility(network, *trace, query.max_failures).feasible)
                continue;
            if (std::find(outcome.witnesses.begin(), outcome.witnesses.end(), *trace) !=
                outcome.witnesses.end())
                continue;
            if (!best_feasible_weight) best_feasible_weight = config.weight;
            outcome.witnesses.push_back(std::move(*trace));
        }
        if (!outcome.witnesses.empty()) {
            // The canonical witness (and its reported weight) is the best
            // *feasible* configuration — the minimal accepted one may have
            // been infeasible.
            outcome.trace = outcome.witnesses.front();
            outcome.feasibility =
                check_feasibility(network, *outcome.trace, query.max_failures);
            outcome.weight = best_feasible_weight->components();
        }
    } else if (outcome.trace && outcome.feasibility.feasible) {
        outcome.witnesses.push_back(*outcome.trace);
    }
    outcome.stats.witness_seconds = seconds_since(witness_start);
    telemetry::observe_duration(telemetry::Histogram::query_witness,
                                outcome.stats.accept_seconds +
                                    outcome.stats.witness_seconds);
    outcome.stats.seconds = seconds_since(start);
    return outcome;
}

telemetry::Histogram duration_histogram(EngineKind engine) {
    switch (engine) {
        case EngineKind::Moped: return telemetry::Histogram::query_duration_moped;
        case EngineKind::Dual: return telemetry::Histogram::query_duration_dual;
        case EngineKind::Weighted: return telemetry::Histogram::query_duration_weighted;
        case EngineKind::Exact: return telemetry::Histogram::query_duration_exact;
    }
    return telemetry::Histogram::query_duration_dual;
}

VerifyResult verify_impl(const Network& network, const query::Query& query,
                         const VerifyOptions& options, TranslationCache* external) {
    if (options.engine == EngineKind::Moped) {
        if (external != nullptr)
            throw model_error("the Moped engine cannot reuse a translation cache");
        if (options.weights != nullptr && !options.weights->empty())
            throw model_error("the Moped engine cannot verify weighted queries");
        return moped_verify(network, query, options);
    }
    if (options.engine == EngineKind::Exact) {
        if (external != nullptr)
            throw model_error("the exact engine cannot reuse a translation cache");
        return exact_verify(network, query, options);
    }
    if (options.engine == EngineKind::Weighted && translation_weights(options) == nullptr)
        throw model_error("the weighted engine requires a weight expression");

    const auto start = std::chrono::steady_clock::now();
    VerifyResult result;

    // Shared across both phases: compiled query NFAs (and, when the
    // approximations coincide, the translation itself) plus solver scratch
    // memory, so the under pass reuses the over pass's high-water footprint.
    // An external cache additionally survives across verify calls — the
    // incremental what-if path rebases it between network generations.
    std::optional<TranslationCache> local;
    if (external == nullptr)
        local.emplace(network, query, translation_weights(options), /*lazy=*/true);
    else
        AALWINES_ASSERT(&external->network() == &network,
                        "external translation cache not rebased to this network");
    TranslationCache& cache = external != nullptr ? *external : *local;
    std::optional<pda::SolverWorkspace> local_workspace;
    if (options.workspace == nullptr) local_workspace.emplace();
    pda::SolverWorkspace& workspace =
        options.workspace != nullptr ? *options.workspace : *local_workspace;

    if (query.mode == query::Mode::Under) {
        // Under-approximation only: YES answers are trustworthy, everything
        // else is inconclusive (the under-approximation misses traces whose
        // loops double-count failed links).
        auto under = run_post_star_phase(network, query, Approximation::Under, options,
                                         cache, workspace);
        result.stats.under = under.stats;
        if (under.satisfied && under.trace && under.feasibility.feasible) {
            result.answer = Answer::Yes;
            if (options.build_trace) result.trace = std::move(under.trace);
            result.weight = std::move(under.weight);
        } else {
            result.answer = Answer::Inconclusive;
            result.note = "UNDER mode: the under-approximation found no valid trace "
                          "(not a conclusive NO)";
        }
        result.stats.total_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return result;
    }

    auto over = run_post_star_phase(network, query, Approximation::Over, options,
                                    cache, workspace);
    result.stats.over = over.stats;

    if (!over.satisfied) {
        result.answer = over.truncated ? Answer::Inconclusive : Answer::No;
        if (over.truncated) result.note = "over-approximation truncated (iteration cap)";
        result.stats.total_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return result;
    }
    if (over.trace && over.feasibility.feasible) {
        result.answer = Answer::Yes;
        if (options.build_trace) {
            result.trace = std::move(over.trace);
            result.witnesses = std::move(over.witnesses);
        }
        result.weight = std::move(over.weight);
        result.stats.total_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return result;
    }
    if (query.mode == query::Mode::Over) {
        // Over-approximation only: satisfiable there, but the candidate
        // witness is infeasible — report YES with a caveat (OVER trusts the
        // over-approximation; some such YES answers are spurious).
        result.answer = Answer::Yes;
        result.weight = std::move(over.weight);
        result.note = "OVER mode: satisfied in the over-approximation; the witness "
                      "exceeds the failure budget and may be spurious";
        result.stats.total_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return result;
    }

    // Over-approximation produced an infeasible candidate; decide with the
    // under-approximation (global failure counter in the control state).
    auto under = run_post_star_phase(network, query, Approximation::Under, options,
                                     cache, workspace);
    result.stats.under = under.stats;
    if (under.satisfied && under.trace && under.feasibility.feasible) {
        result.answer = Answer::Yes;
        if (options.build_trace) {
            result.trace = std::move(under.trace);
            result.witnesses = std::move(under.witnesses);
        }
        result.weight = std::move(under.weight);
    } else {
        result.answer = Answer::Inconclusive;
        result.note = under.truncated
                          ? "under-approximation truncated (iteration cap)"
                          : "over-approximation satisfied but witness infeasible; "
                            "under-approximation found no valid trace";
    }
    result.stats.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

} // namespace

VerifyResult verify(const Network& network, const query::Query& query,
                    const VerifyOptions& options) {
    AALWINES_SPAN("verify");
    const auto start = Clock::now();
    auto result = verify_impl(network, query, options, nullptr);
    telemetry::observe_duration(duration_histogram(options.engine), seconds_since(start));
    return result;
}

VerifyResult verify(const Network& network, const query::Query& query,
                    const VerifyOptions& options, TranslationCache& cache) {
    AALWINES_SPAN("verify");
    const auto start = Clock::now();
    auto result = verify_impl(network, query, options, &cache);
    telemetry::observe_duration(duration_histogram(options.engine), seconds_since(start));
    return result;
}

} // namespace aalwines::verify
