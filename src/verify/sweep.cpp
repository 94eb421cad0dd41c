#include "verify/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "delta/delta.hpp"
#include "pda/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"
#include "verify/translation.hpp"

namespace aalwines::verify {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void replace_all(std::string& text, std::string_view placeholder,
                 const std::string& value) {
    for (std::size_t at = text.find(placeholder); at != std::string::npos;
         at = text.find(placeholder, at + value.size()))
        text.replace(at, placeholder.size(), value);
}

/// One scenario's snapshot plus which links it flipped relative to the base
/// network (sorted link ids) — shared read-only by every chain.
struct ScenarioState {
    std::shared_ptr<const Network> network;
    std::vector<LinkId> flips;
};

std::vector<ScenarioState> build_scenarios(const Network& base,
                                           const std::vector<SweepScenario>& scenarios) {
    std::vector<ScenarioState> states;
    states.reserve(scenarios.size());
    for (const auto& scenario : scenarios) {
        ScenarioState state;
        if (scenario.failed_links.empty()) {
            // Baseline: alias the caller's network, nothing to copy.
            state.network = std::shared_ptr<const Network>(
                std::shared_ptr<const Network>{}, &base);
        } else {
            delta::NetworkDelta delta;
            for (const auto& [router, interface] : scenario.failed_links) {
                delta::DeltaOp op;
                op.kind = delta::DeltaOp::Kind::LinkState;
                op.router = router;
                op.out_interface = interface;
                op.up = false;
                delta.ops.push_back(std::move(op));
            }
            auto applied = delta::apply_delta(base, delta); // model_error on bad names
            state.network = std::move(applied.network);
            // state_links holds exactly the links whose up/down state
            // differs from the base (already-down links do not flip).
            state.flips = std::move(applied.effects.state_links);
            std::sort(state.flips.begin(), state.flips.end());
        }
        states.push_back(std::move(state));
    }
    return states;
}

/// The change between two scenarios: the links whose up/down state differs.
/// Each `flips` set is relative to the same base, so the symmetric
/// difference is exact.
delta::DeltaEffects toggled_between(const std::vector<LinkId>& a,
                                    const std::vector<LinkId>& b) {
    delta::DeltaEffects effects;
    std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(effects.state_links));
    return effects;
}

} // namespace

std::string instantiate_template(const std::string& query_template,
                                 const std::string& src, const std::string& dst,
                                 std::uint64_t failures) {
    std::string text = query_template;
    replace_all(text, "{src}", src);
    replace_all(text, "{dst}", dst);
    replace_all(text, "{k}", std::to_string(failures));
    return text;
}

std::vector<SweepScenario> make_single_failure_scenarios(const Network& network,
                                                         std::size_t count) {
    std::vector<SweepScenario> scenarios;
    scenarios.push_back({"baseline", {}});
    const auto& topology = network.topology;
    for (LinkId id = 0; id < topology.link_count(); ++id) {
        if (count != 0 && scenarios.size() > count) break;
        if (!topology.link_up(id)) continue; // already failed for free
        const auto& link = topology.link(id);
        SweepScenario scenario;
        scenario.name = topology.describe_link(id);
        scenario.failed_links.emplace_back(topology.router_name(link.source),
                                           topology.interface(link.source_interface).name);
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

SweepResult run_sweep(const Network& network, const SweepSpec& spec,
                      const VerifyOptions& options, std::size_t jobs) {
    AALWINES_SPAN("run_sweep");
    const auto sweep_start = Clock::now();
    if (spec.query_template.empty())
        throw model_error("sweep spec has no query template");

    // Collapse empty axes to one implicit element so the grid is never
    // empty and cell indexing stays uniform.
    const std::vector<std::pair<std::string, std::string>> one_pair{{"", ""}};
    const std::vector<std::uint64_t> one_budget{0};
    const std::vector<SweepScenario> one_scenario{{"baseline", {}}};
    const auto& pairs = spec.endpoint_pairs.empty() ? one_pair : spec.endpoint_pairs;
    const auto& budgets = spec.failure_budgets.empty() ? one_budget : spec.failure_budgets;
    const auto& scenarios = spec.scenarios.empty() ? one_scenario : spec.scenarios;

    // Scenario snapshots resolve up front (model_error on unknown names
    // before any verification runs) and are shared by every chain.
    const auto scenario_states = build_scenarios(network, scenarios);

    const std::size_t n_scenarios = scenarios.size();
    const std::size_t n_chains = pairs.size() * budgets.size();

    SweepResult sweep;
    sweep.cells.resize(n_chains * n_scenarios);
    for (std::size_t chain = 0; chain < n_chains; ++chain) {
        const std::size_t p = chain / budgets.size();
        const std::size_t b = chain % budgets.size();
        const auto text =
            instantiate_template(spec.query_template, pairs[p].first, pairs[p].second,
                                 budgets[b]);
        for (std::size_t s = 0; s < n_scenarios; ++s) {
            auto& cell = sweep.cells[chain * n_scenarios + s];
            cell.pair = p;
            cell.budget = b;
            cell.scenario = s;
            cell.query_text = text;
        }
    }

    // NFA tier: one compile per endpoint pair, raced for by that pair's
    // chains (call_once publishes the compile to every waiter; a throwing
    // compile leaves the flag unset, so the error surfaces per chain).
    std::vector<std::unique_ptr<std::once_flag>> nfa_once(pairs.size());
    for (auto& flag : nfa_once) flag = std::make_unique<std::once_flag>();
    std::vector<std::shared_ptr<const CompiledNfas>> pair_nfas(pairs.size());

    // Workspace tier: one solver workspace per worker, reused by every cell
    // the worker runs (the worklist arena), each on its own cache line since
    // every worklist push writes its arena.  Concurrency contract: each
    // chain's cell slots have one writer (util::parallel_for), pair_nfas
    // publication goes through call_once, and `network`, `options` and the
    // scenario states are read-only throughout.
    struct alignas(64) WorkerWorkspace {
        pda::SolverWorkspace solver;
    };
    std::vector<WorkerWorkspace> workspaces(util::worker_count(n_chains, jobs));
    util::parallel_for(n_chains, jobs, [&](std::size_t worker, std::size_t chain) {
        AALWINES_SPAN("sweep_chain");
        VerifyOptions cell_options = options;
        cell_options.workspace = &workspaces[worker].solver;
        const std::size_t p = chain / budgets.size();
        SweepCell* cells = &sweep.cells[chain * n_scenarios];

        try {
            std::call_once(*nfa_once[p], [&] {
                pair_nfas[p] = std::make_shared<const CompiledNfas>(compile_query_nfas(
                    network, query::parse_query(cells[0].query_text, network)));
            });
        } catch (const std::exception& error) {
            for (std::size_t s = 0; s < n_scenarios; ++s) cells[s].error = error.what();
            return;
        }

        // Frontier tier: the scenarios the session's anchor and its live
        // translation sit on.  Only the chain's first answer is anchored.
        delta::Session session(cells[0].query_text, cell_options, pair_nfas[p]);
        std::size_t anchor = 0, live = 0;
        for (std::size_t s = 0; s < n_scenarios; ++s) {
            auto& cell = cells[s];
            const auto& scenario = scenario_states[s];
            const auto cell_start = Clock::now();
            try {
                const bool first = session.anchor() == nullptr;
                const auto since_anchor =
                    toggled_between(scenario_states[anchor].flips, scenario.flips);
                const auto since_live =
                    toggled_between(scenario_states[live].flips, scenario.flips);
                auto answer =
                    session.answer(scenario.network, &since_anchor, &since_live, first);
                cell.result = std::move(answer.result);
                cell.path = answer.tier;
                if (answer.tier != CellPath::Reused) {
                    live = s;
                    if (first) anchor = s;
                }
            } catch (const std::exception& error) {
                cell.error = error.what();
            }
            cell.seconds = seconds_since(cell_start);
        }
    });

    auto& stats = sweep.stats;
    stats.cells = sweep.cells.size();
    for (const auto& cell : sweep.cells) {
        if (!cell.error.empty()) {
            ++stats.errors;
            continue;
        }
        switch (cell.path) {
            case CellPath::Cold: ++stats.cold_saturations; break;
            case CellPath::Warm: ++stats.reused_frontiers; break;
            case CellPath::Reused: ++stats.shared_saturations; break;
        }
    }
    for (const auto& nfas : pair_nfas) stats.nfa_compiles += nfas != nullptr ? 1 : 0;
    stats.seconds = seconds_since(sweep_start);
    return sweep;
}

} // namespace aalwines::verify
