#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "io/results_json.hpp"
#include "json/json.hpp"
#include "pda/solver.hpp"
#include "query/query.hpp"
#include "verify/translation.hpp"

namespace perfbench {

using namespace aalwines;
using telemetry::Counter;

namespace {

/// What one over- or under-approximating pass produced (mirrors the
/// engine's per-phase outcome).
struct PassOutcome {
    bool satisfied = false;
    bool truncated = false;
    std::optional<Trace> trace;
    std::vector<Trace> witnesses;
    Feasibility feasibility;
    std::vector<std::uint64_t> weight;
};

PassOutcome replay_pass(const Network& network, const query::Query& query,
                        verify::Approximation approximation, bool weighted,
                        verify::TranslationCache& cache, pda::SolverWorkspace& workspace,
                        Tracer* tracer, std::uint64_t op, LayerTotals& totals,
                        std::vector<const verify::Translation*>& built) {
    Tracer::Span pass_span(tracer,
                           approximation == verify::Approximation::Under ? "phase.under"
                                                                         : "phase.over",
                           op);
    PassOutcome outcome;

    Tracer::Span translate_span(tracer, "verify.translate", op);
    auto& translation = cache.translation(approximation);
    translation.reduce(2);
    totals.translate_ms += translate_span.close();
    if (std::find(built.begin(), built.end(), &translation) == built.end()) {
        built.push_back(&translation);
        totals.rules_total += static_cast<double>(translation.total_rules());
    }

    Tracer::Span saturate_span(tracer, "pda.saturate", op);
    auto automaton = translation.make_initial_automaton();
    if (weighted) automaton.set_canonical_tiebreaks(true);
    const auto domain = static_cast<pda::Symbol>(network.labels.size());
    pda::SolverOptions options;
    options.workspace = &workspace;
    options.check_accepted = [&]() {
        const auto found = pda::find_accepted(automaton, translation.accepting_states(),
                                              translation.final_header_nfa(), domain,
                                              &workspace);
        return found ? found->weight : pda::Weight::infinity();
    };
    const auto stats = pda::post_star(automaton, options);
    outcome.truncated = stats.truncated;
    totals.transitions += static_cast<double>(stats.transitions);
    totals.saturate_ms += saturate_span.close();

    Tracer::Span accept_span(tracer, "pda.accept", op);
    const auto accepted = pda::find_accepted(automaton, translation.accepting_states(),
                                             translation.final_header_nfa(), domain,
                                             &workspace);
    totals.accept_ms += accept_span.close();
    if (!accepted) return outcome;
    outcome.satisfied = true;
    outcome.weight = accepted->weight.components();

    Tracer::Span witness_span(tracer, "verify.witness", op);
    if (const auto witness = pda::unroll_post_star(automaton, *accepted)) {
        if (auto trace = translation.witness_to_trace(*witness)) {
            outcome.feasibility = check_feasibility(network, *trace, query.max_failures);
            outcome.trace = std::move(trace);
        }
    }
    if (outcome.trace && outcome.feasibility.feasible)
        outcome.witnesses.push_back(*outcome.trace);
    totals.witness_ms += witness_span.close();
    return outcome;
}

} // namespace

void LayerTotals::absorb_counters(const telemetry::Snapshot& before,
                                  const telemetry::Snapshot& after) {
    states_interned += counter_delta(before, after, Counter::pda_states_interned);
    pops += counter_delta(before, after, Counter::post_star_pops);
    relaxations += counter_delta(before, after, Counter::edge_relaxations);
    rules_materialized += counter_delta(before, after, Counter::pda_rules_materialized);
    accept_decrease_keys += counter_delta(before, after, Counter::accept_decrease_keys);
    unroll_steps += counter_delta(before, after, Counter::witness_unroll_steps);
}

void LayerTotals::emit(Result& result) const {
    const double n = std::max<double>(1, static_cast<double>(queries));
    const auto per = [&](double total) { return total / n; };
    const auto count = [&](std::uint64_t total) { return static_cast<double>(total) / n; };
    result.add("query.parse_ms", per(parse_ms), "ms");
    result.add("nfa.compile_ms", per(nfa_ms), "ms");
    result.add("nfa.states", per(nfa_states), "count");
    result.add("verify.translate_ms", per(translate_ms), "ms");
    result.add("verify.states_interned", count(states_interned), "count");
    result.add("verify.rules_total", per(rules_total), "count");
    result.add("pda.saturate_ms", per(saturate_ms), "ms");
    result.add("pda.pops", count(pops), "count");
    result.add("pda.relaxations", count(relaxations), "count");
    result.add("pda.rules_materialized", count(rules_materialized), "count");
    result.add("pda.materialized_share",
               rules_total > 0 ? static_cast<double>(rules_materialized) / rules_total : 0.0,
               "share");
    result.add("pda.transitions", per(transitions), "count");
    result.add("pda.accept_ms", per(accept_ms), "ms");
    result.add("pda.accept_decrease_keys", count(accept_decrease_keys), "count");
    result.add("verify.witness_ms", per(witness_ms), "ms");
    result.add("pda.unroll_steps", count(unroll_steps), "count");
    result.add("verify.under_share", per(static_cast<double>(under_runs)), "share");
    result.add("io.serialize_ms", per(serialize_ms), "ms");
}

std::string replay_query(const Network& network, const std::string& text,
                         const WeightExpr* weights, Tracer* tracer, std::uint64_t op,
                         LayerTotals& totals) {
    Tracer::Span query_span(tracer, "query", op);
    ++totals.queries;

    Tracer::Span parse_span(tracer, "query.parse", op);
    const auto query = query::parse_query(text, network);
    totals.parse_ms += parse_span.close();
    if (query.mode != query::Mode::Dual)
        throw std::runtime_error("perfbench replays DUAL-mode queries only: " + text);

    Tracer::Span nfa_span(tracer, "nfa.compile", op);
    auto nfas = std::make_shared<const verify::CompiledNfas>(
        verify::compile_query_nfas(network, query));
    totals.nfa_ms += nfa_span.close();
    totals.nfa_states += static_cast<double>(nfas->path.size() + nfas->initial_header.size() +
                                             nfas->final_header.size());

    // verify() defaults: auto translation (= lazy for dual/weighted), one
    // solver thread, reduction level 2, one witness with its trace.
    verify::TranslationCache cache(network, query, weights, /*lazy=*/true, std::move(nfas));
    pda::SolverWorkspace workspace;
    std::vector<const verify::Translation*> built;
    const bool weighted = weights != nullptr;

    verify::VerifyResult result;
    auto over = replay_pass(network, query, verify::Approximation::Over, weighted, cache,
                            workspace, tracer, op, totals, built);
    if (!over.satisfied) {
        result.answer = over.truncated ? verify::Answer::Inconclusive : verify::Answer::No;
        if (over.truncated) result.note = "over-approximation truncated (iteration cap)";
    } else if (over.trace && over.feasibility.feasible) {
        result.answer = verify::Answer::Yes;
        result.trace = std::move(over.trace);
        result.witnesses = std::move(over.witnesses);
        result.weight = std::move(over.weight);
    } else {
        ++totals.under_runs;
        auto under = replay_pass(network, query, verify::Approximation::Under, weighted,
                                 cache, workspace, tracer, op, totals, built);
        if (under.satisfied && under.trace && under.feasibility.feasible) {
            result.answer = verify::Answer::Yes;
            result.trace = std::move(under.trace);
            result.witnesses = std::move(under.witnesses);
            result.weight = std::move(under.weight);
        } else {
            result.answer = verify::Answer::Inconclusive;
            result.note = under.truncated
                              ? "under-approximation truncated (iteration cap)"
                              : "over-approximation satisfied but witness infeasible; "
                                "under-approximation found no valid trace";
        }
    }

    Tracer::Span serialize_span(tracer, "io.serialize", op);
    (void)json::write(io::result_to_json_value(network, text, result));
    totals.serialize_ms += serialize_span.close();
    return canonical_result(network, text, result);
}

WorkCounters WorkCounters::between(const telemetry::Snapshot& before,
                                   const telemetry::Snapshot& after) {
    WorkCounters counters;
    counters.pops = counter_delta(before, after, Counter::post_star_pops);
    counters.relaxations = counter_delta(before, after, Counter::edge_relaxations);
    counters.rules_materialized = counter_delta(before, after, Counter::pda_rules_materialized);
    counters.states_interned = counter_delta(before, after, Counter::pda_states_interned);
    return counters;
}

std::string WorkCounters::describe() const {
    return "pops=" + std::to_string(pops) + " relaxations=" + std::to_string(relaxations) +
           " rules_materialized=" + std::to_string(rules_materialized) +
           " states_interned=" + std::to_string(states_interned);
}

std::string replay_checked(const Network& network, const std::string& text,
                           const WeightExpr* weights, Tracer* tracer, std::uint64_t op,
                           LayerTotals& totals, Result& out) {
    verify::VerifyOptions options;
    if (weights != nullptr) {
        options.engine = verify::EngineKind::Weighted;
        options.weights = weights;
    }
    const auto before = telemetry::snapshot();
    const auto query = query::parse_query(text, network);
    const auto expected =
        canonical_result(network, text, verify::verify(network, query, options));
    const auto between = telemetry::snapshot();
    const auto replayed = replay_query(network, text, weights, tracer, op, totals);
    const auto after = telemetry::snapshot();
    totals.absorb_counters(between, after);
    if (replayed != expected) out.fail("replayed answer differs from verify(): " + text);
    const auto timed = WorkCounters::between(before, between);
    const auto replay = WorkCounters::between(between, after);
    if (!(timed == replay))
        out.fail("replay work counters differ from verify(): " + text + ": verify " +
                 timed.describe() + " replay " + replay.describe());
    return expected;
}

} // namespace perfbench
