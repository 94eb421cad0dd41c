#include "verify/engine.hpp"

#include <algorithm>
#include <chrono>

#include "pda/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

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

} // namespace

void record_saturation(PhaseOutcome& outcome, const pda::SolverStats& solver,
                       const Translation& translation) {
    auto& stats = outcome.stats;
    stats.saturation_iterations = solver.iterations;
    stats.automaton_transitions = solver.transitions + solver.epsilons;
    stats.worklist_relaxations = solver.relaxations;
    stats.peak_worklist = solver.peak_queue;
    stats.truncated = solver.truncated;
    outcome.truncated = solver.truncated;
    stats.pda_rules = translation.pda().rule_count();
    stats.pda_states = translation.pda().state_count();
    stats.lazy_translation = translation.lazy();
    stats.pda_rules_total = translation.total_rules();
    stats.pda_states_materialized = translation.pda().materialized_state_count();
}

PhaseOutcome run_post_star_phase(const Network& network, const query::Query& query,
                                 Translation& translation, double translate_seconds,
                                 const VerifyOptions& options, pda::SolverWorkspace& workspace,
                                 const pda::Weight* unroll_below) {
    PhaseOutcome outcome;
    const auto start = Clock::now();
    outcome.stats.ran = true;
    outcome.stats.translate_seconds = translate_seconds;
    // reduce() is idempotent, so a translation shared across phases
    // reduces once; on a lazy translation it is a no-op.
    translation.reduce(options.reduction_level);
    outcome.stats.reduce_seconds = seconds_since(start);
    telemetry::observe_duration(telemetry::Histogram::query_translate,
                                translate_seconds + outcome.stats.reduce_seconds);

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
    outcome.stats.saturate_seconds = seconds_since(saturate_start);
    outcome.stats.materialize_seconds =
        translation.pda().materialize_seconds() - materialized_before;
    telemetry::observe_duration(telemetry::Histogram::query_saturate,
                                outcome.stats.saturate_seconds);

    // Snapshot the PDA size after saturation: a lazy translation grows its
    // rule set on demand, so the materialized counts are only meaningful
    // once the worklist has drained (or early-terminated).
    record_saturation(outcome, sat_stats, translation);
    if (translation.lazy() && outcome.stats.pda_rules_total > 0)
        telemetry::observe(telemetry::Histogram::materialized_rule_pct,
                           100 * outcome.stats.pda_rules / outcome.stats.pda_rules_total);

    const auto accept_start = Clock::now();
    const auto accepted =
        pda::find_accepted(automaton, translation.accepting_states(),
                           translation.final_header_nfa(), domain, &workspace);
    outcome.stats.accept_seconds = seconds_since(accept_start);
    outcome.satisfied = accepted.has_value();
    if (!accepted || (unroll_below != nullptr && !(accepted->weight < *unroll_below))) {
        telemetry::observe_duration(telemetry::Histogram::query_witness,
                                    outcome.stats.accept_seconds);
        outcome.stats.seconds = translate_seconds + seconds_since(start);
        return outcome;
    }
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
    outcome.stats.seconds = translate_seconds + seconds_since(start);
    return outcome;
}

namespace {

telemetry::Histogram duration_histogram(EngineKind engine) {
    switch (engine) {
        case EngineKind::Moped: return telemetry::Histogram::query_duration_moped;
        case EngineKind::Dual: return telemetry::Histogram::query_duration_dual;
        case EngineKind::Weighted: return telemetry::Histogram::query_duration_weighted;
        case EngineKind::Exact: return telemetry::Histogram::query_duration_exact;
    }
    return telemetry::Histogram::query_duration_dual;
}

/// Answer YES with the pass's witness (and its weight).
void answer_yes(VerifyResult& result, PhaseOutcome& phase, const VerifyOptions& options) {
    result.answer = Answer::Yes;
    if (options.build_trace) {
        result.trace = std::move(phase.trace);
        result.witnesses = std::move(phase.witnesses);
    }
    result.weight = std::move(phase.weight);
}

/// The Figure-3 decision, the same for every engine that runs it: `pass(a)`
/// saturates the engine's translation for approximation `a` and checks the
/// witness it finds.  The query's mode picks a single approximation.
template <typename Pass>
void decide(VerifyResult& result, const query::Query& query, const VerifyOptions& options,
            const Pass& pass) {
    if (query.mode == query::Mode::Under) {
        // Under-approximation only: YES answers are trustworthy, everything
        // else is inconclusive (the under-approximation misses traces whose
        // loops double-count failed links).
        auto under = pass(Approximation::Under);
        result.stats.under = under.stats;
        if (under.trace && under.feasibility.feasible) {
            answer_yes(result, under, options);
        } else {
            result.answer = Answer::Inconclusive;
            result.note = "UNDER mode: the under-approximation found no valid trace "
                          "(not a conclusive NO)";
        }
        return;
    }

    auto over = pass(Approximation::Over);
    result.stats.over = over.stats;
    if (!over.satisfied) {
        result.answer = over.truncated ? Answer::Inconclusive : Answer::No;
        if (over.truncated) result.note = "over-approximation truncated (iteration cap)";
        return;
    }
    if (over.trace && over.feasibility.feasible) {
        answer_yes(result, over, options);
        return;
    }
    if (query.mode == query::Mode::Over) {
        // Over-approximation only: satisfiable there, but the candidate
        // witness is infeasible — report YES with a caveat (OVER trusts the
        // over-approximation; some such YES answers are spurious).
        result.answer = Answer::Yes;
        result.weight = std::move(over.weight);
        result.note = "OVER mode: satisfied in the over-approximation; the witness "
                      "exceeds the failure budget and may be spurious";
        return;
    }

    // Over-approximation produced an infeasible candidate; decide with the
    // under-approximation (global failure counter in the control state).
    auto under = pass(Approximation::Under);
    result.stats.under = under.stats;
    if (under.trace && under.feasibility.feasible) {
        answer_yes(result, under, options);
    } else {
        result.answer = Answer::Inconclusive;
        result.note = under.truncated
                          ? "under-approximation truncated (iteration cap)"
                          : "over-approximation satisfied but witness infeasible; "
                            "under-approximation found no valid trace";
    }
}

VerifyResult run_engine(const Network& network, const query::Query& query,
                        const VerifyOptions& options, TranslationCache* external) {
    if (options.engine == EngineKind::Exact) {
        if (external != nullptr)
            throw model_error("the exact engine cannot reuse a translation cache");
        return exact_verify(network, query, options);
    }
    if (options.engine == EngineKind::Moped) {
        if (external != nullptr)
            throw model_error("the Moped engine cannot reuse a translation cache");
        if (options.weights != nullptr && !options.weights->empty())
            throw model_error("the Moped engine cannot verify weighted queries");
    } else if (options.engine == EngineKind::Weighted &&
               translation_weights(options) == nullptr) {
        throw model_error("the weighted engine requires a weight expression");
    }

    VerifyResult result;
    // Solver scratch memory shared across both phases, so the under pass
    // reuses the over pass's high-water footprint.
    std::optional<pda::SolverWorkspace> local_workspace;
    if (options.workspace == nullptr) local_workspace.emplace();
    pda::SolverWorkspace& workspace =
        options.workspace != nullptr ? *options.workspace : *local_workspace;

    if (options.engine == EngineKind::Moped) {
        // The serialization round trip needs every rule, so demand-driven
        // construction would buy nothing: Moped translates eagerly.
        TranslationCache cache(network, query, /*weights=*/nullptr, /*lazy=*/false);
        decide(result, query, options, [&](Approximation approximation) {
            return run_pre_star_phase(network, query, approximation, options, cache,
                                      workspace);
        });
    } else {
        // Shared across both phases: compiled query NFAs (and, when the
        // approximations coincide, the translation itself).  An external
        // cache additionally survives across verify calls — the incremental
        // what-if path rebases it between network generations.
        std::optional<TranslationCache> local;
        if (external == nullptr)
            local.emplace(network, query, translation_weights(options), /*lazy=*/true);
        else
            AALWINES_ASSERT(&external->network() == &network,
                            "external translation cache not rebased to this network");
        TranslationCache& cache = external != nullptr ? *external : *local;
        decide(result, query, options, [&](Approximation approximation) {
            AALWINES_SPAN(approximation == Approximation::Under ? "post_star_phase(under)"
                                                                : "post_star_phase(over)");
            const auto translate_start = Clock::now();
            Translation& translation = cache.translation(approximation);
            return run_post_star_phase(network, query, translation,
                                       seconds_since(translate_start), options, workspace);
        });
    }
    return result;
}

VerifyResult verify_impl(const Network& network, const query::Query& query,
                         const VerifyOptions& options, TranslationCache* external) {
    AALWINES_SPAN("verify");
    const auto start = Clock::now();
    auto result = run_engine(network, query, options, external);
    result.stats.total_seconds = seconds_since(start);
    telemetry::observe_duration(duration_histogram(options.engine),
                                result.stats.total_seconds);
    return result;
}

} // namespace

VerifyResult verify(const Network& network, const query::Query& query,
                    const VerifyOptions& options) {
    return verify_impl(network, query, options, nullptr);
}

VerifyResult verify(const Network& network, const query::Query& query,
                    const VerifyOptions& options, TranslationCache& cache) {
    return verify_impl(network, query, options, &cache);
}

} // namespace aalwines::verify
