// The sweep engine (src/verify/sweep.*): grid planning, the template
// instantiation helper, and the sweep ≡ one-by-one equivalence battery —
// every cell must be byte-identical (canonical result JSON, witness traces
// included) to an independent verify_batch run of the same query on the
// same scenario network, across lazy/eager translation and solver-thread
// counts.  AALWINES_SWEEP_BATTERY scales the battery (nightly runs it on a
// NORDUnet-like instance).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "delta/delta.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"
#include "model/quantity.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/topologies.hpp"
#include "util/errors.hpp"
#include "verify/batch.hpp"
#include "verify/sweep.hpp"

namespace aalwines::verify {
namespace {

/// The byte-identity form: result JSON without stats, wall-clock stripped.
std::string canonical(const Network& network, const std::string& query_text,
                      const VerifyResult& result) {
    auto value = io::result_to_json_value(network, query_text, result, false);
    value.as_object().erase("seconds");
    return json::write(value, 0);
}

/// The scenario snapshot an independent verification would run against —
/// the same delta pipeline the sweep uses internally.
std::shared_ptr<const Network> scenario_network(const Network& base,
                                                const SweepScenario& scenario) {
    if (scenario.failed_links.empty())
        return std::shared_ptr<const Network>(std::shared_ptr<const Network>{}, &base);
    delta::NetworkDelta delta;
    for (const auto& [router, interface] : scenario.failed_links) {
        delta::DeltaOp op;
        op.kind = delta::DeltaOp::Kind::LinkState;
        op.router = router;
        op.out_interface = interface;
        op.up = false;
        delta.ops.push_back(std::move(op));
    }
    return delta::apply_delta(base, delta).network;
}

/// Every cell of `sweep` must match a one-by-one verify_batch run of the
/// same query on the same scenario network with the same options.
void expect_equivalent(const Network& base, const SweepSpec& spec,
                       const SweepResult& sweep, const VerifyOptions& options) {
    const auto& scenarios = spec.scenarios;
    std::vector<std::shared_ptr<const Network>> nets;
    nets.reserve(scenarios.size());
    for (const auto& scenario : scenarios) nets.push_back(scenario_network(base, scenario));
    for (const auto& cell : sweep.cells) {
        ASSERT_TRUE(cell.error.empty())
            << cell.query_text << " [scenario " << cell.scenario << "]: " << cell.error;
        const auto& net = *nets[cell.scenario];
        const auto reference = verify_batch(net, {cell.query_text}, options, 1);
        ASSERT_EQ(reference.size(), 1u);
        ASSERT_TRUE(reference[0].error.empty()) << reference[0].error;
        EXPECT_EQ(canonical(net, cell.query_text, cell.result),
                  canonical(net, cell.query_text, reference[0].result))
            << cell.query_text << " [scenario " << cell.scenario << ", "
            << to_string(cell.path) << "]";
    }
}

std::size_t battery_scale() {
    if (const char* env = std::getenv("AALWINES_SWEEP_BATTERY")) {
        const auto scale = std::atoi(env);
        if (scale > 0) return static_cast<std::size_t>(scale);
    }
    return 0; // the deep battery only runs when asked for
}

TEST(Sweep, InstantiateTemplate) {
    EXPECT_EQ(instantiate_template("<ip> [.#{src}] .* [{dst}#.] <ip> {k}", "v0", "v3", 2),
              "<ip> [.#v0] .* [v3#.] <ip> 2");
    // Every occurrence substitutes; absent placeholders are fine.
    EXPECT_EQ(instantiate_template("{src}{src}", "a", "b", 0), "aa");
    EXPECT_EQ(instantiate_template("<ip> .* <ip> 1", "a", "b", 9), "<ip> .* <ip> 1");
}

TEST(Sweep, SingleFailureScenarios) {
    const auto net = synthesis::make_figure1_network();
    const auto scenarios = make_single_failure_scenarios(net);
    ASSERT_FALSE(scenarios.empty());
    EXPECT_EQ(scenarios[0].name, "baseline");
    EXPECT_TRUE(scenarios[0].failed_links.empty());
    EXPECT_EQ(scenarios.size(), net.topology.link_count() + 1);
    for (std::size_t s = 1; s < scenarios.size(); ++s)
        EXPECT_EQ(scenarios[s].failed_links.size(), 1u);
    // The cap bounds failure scenarios, not the baseline.
    EXPECT_EQ(make_single_failure_scenarios(net, 3).size(), 4u);
}

TEST(Sweep, GridShapeAndStats) {
    const auto net = synthesis::make_figure1_network();
    SweepSpec spec;
    spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    spec.endpoint_pairs = {{"v0", "v3"}, {"v0", "v2"}};
    spec.failure_budgets = {0, 1};
    spec.scenarios = make_single_failure_scenarios(net, 4);

    const auto sweep = run_sweep(net, spec, {}, 2);
    const auto n_cells =
        spec.endpoint_pairs.size() * spec.failure_budgets.size() * spec.scenarios.size();
    ASSERT_EQ(sweep.cells.size(), n_cells);
    EXPECT_EQ(sweep.stats.cells, n_cells);
    EXPECT_EQ(sweep.stats.errors, 0u);
    // One NFA compile per endpoint pair, not per cell.
    EXPECT_EQ(sweep.stats.nfa_compiles, spec.endpoint_pairs.size());
    // Every cell is accounted to exactly one sharing tier.
    EXPECT_EQ(sweep.stats.cold_saturations + sweep.stats.reused_frontiers +
                  sweep.stats.shared_saturations,
              n_cells);
    // The default (dual, lazy) engine is warm-capable: each chain saturates
    // cold exactly once, every later scenario rebases or carries over.
    EXPECT_EQ(sweep.stats.cold_saturations,
              spec.endpoint_pairs.size() * spec.failure_budgets.size());
    // The tier mix is pinned, so a change to the reuse decision shows here.
    EXPECT_EQ(sweep.stats.cold_saturations, 4u);
    EXPECT_EQ(sweep.stats.reused_frontiers, 16u);
    EXPECT_EQ(sweep.stats.shared_saturations, 0u);
    // Cell indexes follow the documented pair-major layout.
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const auto& cell = sweep.cells[i];
        const auto expected =
            (cell.pair * spec.failure_budgets.size() + cell.budget) *
                spec.scenarios.size() +
            cell.scenario;
        EXPECT_EQ(i, expected);
        EXPECT_EQ(cell.query_text,
                  instantiate_template(spec.query_template,
                                       spec.endpoint_pairs[cell.pair].first,
                                       spec.endpoint_pairs[cell.pair].second,
                                       spec.failure_budgets[cell.budget]));
    }
}

TEST(Sweep, MatchesOneByOneDualLazy) {
    const auto net = synthesis::make_figure1_network();
    SweepSpec spec;
    spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    spec.endpoint_pairs = {{"v0", "v3"}, {"v1", "v3"}};
    spec.failure_budgets = {0, 1};
    spec.scenarios = make_single_failure_scenarios(net);

    const auto sweep = run_sweep(net, spec, {}, 2);
    expect_equivalent(net, spec, sweep, {});
    EXPECT_EQ(sweep.stats.cold_saturations, 4u);
    EXPECT_EQ(sweep.stats.reused_frontiers, 19u);
    EXPECT_EQ(sweep.stats.shared_saturations, 13u);
}

TEST(Sweep, MatchesOneByOneAcrossModesAndThreads) {
    const auto net = synthesis::build_dataplane(synthesis::make_ring(6),
                                                {.service_chains = 2, .seed = 11});
    const auto& topology = net.network.topology;
    SweepSpec spec;
    spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    spec.endpoint_pairs = {{topology.router_name(0), topology.router_name(3)},
                           {topology.router_name(1), topology.router_name(4)}};
    spec.failure_budgets = {0, 1};
    spec.scenarios = make_single_failure_scenarios(net.network, 5);

    const auto weights = parse_weight_expression("hops");
    for (const auto translation : {TranslationMode::Lazy, TranslationMode::Eager}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            VerifyOptions options;
            options.engine = EngineKind::Weighted;
            options.weights = &weights;
            options.translation = translation;
            const auto sweep = run_sweep(net.network, spec, options, jobs);
            SCOPED_TRACE("translation=" + std::string(to_string(translation)) +
                         " jobs=" + std::to_string(jobs));
            expect_equivalent(net.network, spec, sweep, options);
            // Eager translations cannot rebase: every cell saturates cold.
            if (translation == TranslationMode::Eager) {
                EXPECT_EQ(sweep.stats.cold_saturations, sweep.stats.cells);
            }
        }
    }
}

TEST(Sweep, ErrorsAreConfinedToTheirChain) {
    const auto net = synthesis::make_figure1_network();
    SweepSpec spec;
    spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    spec.endpoint_pairs = {{"v0", "v3"}, {"ghost", "v3"}};
    spec.failure_budgets = {0};
    spec.scenarios = make_single_failure_scenarios(net, 2);

    const auto sweep = run_sweep(net, spec, {}, 1);
    for (const auto& cell : sweep.cells) {
        if (cell.pair == 1) {
            EXPECT_FALSE(cell.error.empty());
            EXPECT_NE(cell.error.find("ghost"), std::string::npos);
        } else {
            EXPECT_TRUE(cell.error.empty()) << cell.error;
        }
    }
    EXPECT_EQ(sweep.stats.errors, spec.scenarios.size());
    // Only the good pair's template compiled.
    EXPECT_EQ(sweep.stats.nfa_compiles, 1u);
}

TEST(Sweep, UnknownScenarioLinkThrowsBeforeRunning) {
    const auto net = synthesis::make_figure1_network();
    SweepSpec spec;
    spec.query_template = "<ip> [.#v0] .* [v3#.] <ip> 0";
    spec.scenarios.push_back({"bad", {{"ghost", "eth0"}}});
    EXPECT_THROW((void)run_sweep(net, spec, {}, 1), model_error);
    SweepSpec empty;
    EXPECT_THROW((void)run_sweep(net, empty, {}, 1), model_error);
}

TEST(Sweep, EmptyAxesCollapseToOneCell) {
    const auto net = synthesis::make_figure1_network();
    SweepSpec spec;
    spec.query_template = "<ip> [.#v0] .* [v3#.] <ip> 0";
    const auto sweep = run_sweep(net, spec, {}, 1);
    ASSERT_EQ(sweep.cells.size(), 1u);
    EXPECT_TRUE(sweep.cells[0].error.empty()) << sweep.cells[0].error;
    EXPECT_EQ(sweep.cells[0].result.answer, Answer::Yes);
    EXPECT_EQ(sweep.stats.cold_saturations, 1u);
}

TEST(Sweep, NightlyBattery) {
    const auto scale = battery_scale();
    if (scale == 0) GTEST_SKIP() << "set AALWINES_SWEEP_BATTERY=N to run";
    const auto net = synthesis::make_nordunet_like(40, 1);
    const auto& topology = net.network.topology;
    SweepSpec spec;
    spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    for (std::size_t i = 0; i + 1 < net.lsp_pairs.size() && spec.endpoint_pairs.size() < 2 * scale;
         i += 2)
        spec.endpoint_pairs.emplace_back(topology.router_name(net.lsp_pairs[i].first),
                                         topology.router_name(net.lsp_pairs[i].second));
    spec.failure_budgets = {0, 1};
    spec.scenarios = make_single_failure_scenarios(net.network, 4 * scale);

    for (const auto translation : {TranslationMode::Lazy, TranslationMode::Eager}) {
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            VerifyOptions options;
            options.translation = translation;
            const auto sweep = run_sweep(net.network, spec, options, jobs);
            SCOPED_TRACE("translation=" + std::string(to_string(translation)) +
                         " jobs=" + std::to_string(jobs));
            expect_equivalent(net.network, spec, sweep, options);
        }
    }
}

} // namespace
} // namespace aalwines::verify
