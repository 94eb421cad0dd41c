// The exact engine: decide the query by enumerating every failure scenario
// F with |F| <= k and solving an exact per-scenario PDA (Definition 4
// verbatim — only active links, only the first active TE group).  Always
// conclusive and supports weights (the minimum ranges over all scenarios),
// but the scenario count is C(|E|, 0) + ... + C(|E|, k): exponential in k.
// This is precisely the blow-up the paper's polynomial over/under pipeline
// avoids; the engine serves as a ground-truth oracle in the tests and as
// the baseline of the scaling benchmarks.

#include <algorithm>
#include <chrono>
#include <functional>

#include "telemetry/telemetry.hpp"
#include "util/errors.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

namespace {

using Clock = std::chrono::steady_clock;

/// Invoke `fn(F)` for every F of up links with |F| <= k; returns false if
/// `fn` asked to stop.  Administratively-down links are excluded: they are
/// failed in every scenario already ("for free"), so including them would
/// only enumerate redundant supersets and waste budget slots.
bool for_each_failure_set(const Topology& topology, std::uint64_t k,
                          const std::function<bool(const std::set<LinkId>&)>& fn) {
    const auto links = static_cast<LinkId>(topology.link_count());
    std::set<LinkId> current;
    // Iterative enumeration by recursion over the next link to include.
    std::function<bool(LinkId, std::uint64_t)> recurse =
        [&](LinkId next, std::uint64_t remaining) -> bool {
        if (!fn(current)) return false;
        if (remaining == 0) return true;
        for (LinkId link = next; link < links; ++link) {
            if (!topology.link_up(link)) continue;
            current.insert(link);
            const bool keep_going = recurse(link + 1, remaining - 1);
            current.erase(link);
            if (!keep_going) return false;
        }
        return true;
    };
    // Calls fn on every subset of size <= k exactly once (empty set first).
    return recurse(0, k);
}

/// Fold one scenario's pass into the engine's record: counts and stage
/// timings add up, the worklist peak is the largest.
void fold(PhaseStats& total, const PhaseStats& scenario) {
    total.pda_rules += scenario.pda_rules;
    total.pda_states += scenario.pda_states;
    total.saturation_iterations += scenario.saturation_iterations;
    total.automaton_transitions += scenario.automaton_transitions;
    total.worklist_relaxations += scenario.worklist_relaxations;
    total.peak_worklist = std::max(total.peak_worklist, scenario.peak_worklist);
    total.pda_rules_total += scenario.pda_rules_total;
    total.pda_states_materialized += scenario.pda_states_materialized;
    total.seconds += scenario.seconds;
    total.translate_seconds += scenario.translate_seconds;
    total.reduce_seconds += scenario.reduce_seconds;
    total.saturate_seconds += scenario.saturate_seconds;
    total.materialize_seconds += scenario.materialize_seconds;
    total.accept_seconds += scenario.accept_seconds;
    total.witness_seconds += scenario.witness_seconds;
    total.ran = true;
    total.truncated = total.truncated || scenario.truncated;
}

} // namespace

VerifyResult exact_verify(const Network& network, const query::Query& query,
                          const VerifyOptions& options) {
    AALWINES_SPAN("exact_verify");
    VerifyResult result;
    result.answer = Answer::No;

    // One witness per scenario, found with early termination: the minimum
    // ranges over the scenarios, not over one scenario's alternatives.
    auto scenario_options = options;
    scenario_options.max_witnesses = 1;
    const bool weighted = options.weights != nullptr && !options.weights->empty();
    std::size_t scenarios = 0;
    bool truncated = false;
    std::optional<pda::Weight> best;
    std::optional<Trace> best_trace;

    // Shared across all C(|E|, <=k) scenarios: the query NFAs compile once,
    // and one solver workspace amortizes the scratch allocations.
    const auto nfas = compile_query_nfas(network, query);
    pda::SolverWorkspace workspace;

    for_each_failure_set(network.topology, query.max_failures,
                         [&](const std::set<LinkId>& failed) {
        ++scenarios;
        TranslationOptions topts;
        topts.approximation = Approximation::Exact;
        topts.failed_links = &failed;
        topts.weights = options.weights;
        topts.nfas = &nfas;
        const auto translate_start = Clock::now();
        Translation translation(network, query, topts);
        const auto translate_seconds =
            std::chrono::duration<double>(Clock::now() - translate_start).count();
        // Only a scenario that beats the best weight so far unrolls a witness.
        auto phase = run_post_star_phase(network, query, translation, translate_seconds,
                                         scenario_options, workspace,
                                         best ? &*best : nullptr);
        fold(result.stats.over, phase.stats);
        if (phase.truncated) {
            truncated = true;
            return false; // cannot trust a truncated scenario: stop
        }
        if (!phase.trace) return true; // next scenario
        best = pda::Weight::of(std::move(phase.weight));
        best_trace = std::move(phase.trace);
        result.answer = Answer::Yes;
        // Unweighted: any witness settles the query.
        return weighted;
    });

    if (truncated) {
        result.answer = Answer::Inconclusive;
        result.note = "exact: scenario saturation truncated (iteration cap)";
    } else if (result.answer == Answer::Yes) {
        if (options.build_trace) result.trace = std::move(best_trace);
        if (best) result.weight = best->components();
    }
    result.note += (result.note.empty() ? "" : "; ") + std::string("exact: ") +
                   std::to_string(scenarios) + " failure scenarios examined";
    return result;
}

} // namespace aalwines::verify
