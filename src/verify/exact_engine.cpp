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

} // namespace

VerifyResult exact_verify(const Network& network, const query::Query& query,
                          const VerifyOptions& options) {
    AALWINES_SPAN("exact_verify");
    const auto start = Clock::now();
    VerifyResult result;
    result.answer = Answer::No;

    const auto domain = static_cast<pda::Symbol>(network.labels.size());
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
        topts.lazy = use_lazy_translation(options.translation, EngineKind::Exact);
        Translation translation(network, query, topts);
        result.stats.over.pda_rules_before_reduction += translation.rules_before_reduction();
        translation.reduce(options.reduction_level);

        auto automaton = translation.make_initial_automaton();
        pda::SolverOptions sopts;
        sopts.max_iterations = options.max_iterations;
        sopts.workspace = &workspace;
        sopts.check_accepted = [&]() {
            const auto found =
                pda::find_accepted(automaton, translation.accepting_states(),
                                   translation.final_header_nfa(), domain, &workspace);
            return found ? found->weight : pda::Weight::infinity();
        };
        const auto sat_stats = pda::post_star(automaton, sopts);
        // Per-scenario sizes accumulate; read after saturation so a lazy
        // scenario reports the rules it actually demanded.
        result.stats.over.pda_rules += translation.pda().rule_count();
        result.stats.over.pda_rules_total += translation.total_rules();
        result.stats.over.pda_rules_materialized += translation.pda().rule_count();
        result.stats.over.pda_states_materialized +=
            translation.pda().materialized_state_count();
        result.stats.over.lazy_translation = translation.lazy();
        result.stats.over.saturation_iterations += sat_stats.iterations;
        result.stats.over.automaton_transitions += sat_stats.transitions + sat_stats.epsilons;
        result.stats.over.worklist_relaxations += sat_stats.relaxations;
        result.stats.over.peak_worklist =
            std::max(result.stats.over.peak_worklist, sat_stats.peak_queue);
        result.stats.over.ran = true;
        if (sat_stats.truncated) {
            truncated = true;
            return false; // cannot trust a truncated scenario: stop
        }
        const auto accepted =
            pda::find_accepted(automaton, translation.accepting_states(),
                               translation.final_header_nfa(), domain, &workspace);
        if (!accepted) return true; // next scenario
        if (best && !(accepted->weight < *best)) return true;

        if (const auto witness = pda::unroll_post_star(automaton, *accepted)) {
            if (auto trace = translation.witness_to_trace(*witness)) {
                best = accepted->weight;
                best_trace = std::move(trace);
                result.answer = Answer::Yes;
                // Unweighted: any witness settles the query.
                if (options.weights == nullptr || options.weights->empty())
                    return false;
            }
        }
        return true;
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
    result.stats.total_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return result;
}

} // namespace aalwines::verify
