// Sweep engine (docs/PERFORMANCE.md): verifying a network-wide what-if
// battery — one query template over (endpoint pair × failure budget ×
// single-link-failure scenario) — through verify::run_sweep versus the
// same grid one cell at a time:
//
//   sweep_amortized    run_sweep: shared NFAs, rebased frontiers, pooled
//                      solver workspaces across the whole grid
//   sweep_one_by_one   per scenario: apply the link-failure delta, then
//                      verify_batch every instantiated query cold (same
//                      jobs as the sweep)
//
// The sweep case self-validates: before timing, it runs the one-by-one
// grid once and asserts every cell's canonical result JSON (stats and
// wall-clock stripped) is byte-identical — the frontier-reuse correctness
// contract.  Its "speedup_vs_onebyone" counter carries the headline ratio
// (one-by-one wall clock over the sweep's p50), so a CI gate can read it
// straight out of the report without correlating two benchmarks.
//
// AALWINES_BENCH_JOBS caps the worker pool (default: hardware, at most 4);
// AALWINES_BENCH_SWEEP_PAIRS caps the endpoint-pair axis (default 6);
// AALWINES_BENCH_SWEEP_SCENARIOS caps the failure-scenario axis (default
// 64 + baseline).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "delta/delta.hpp"
#include "io/results_json.hpp"
#include "verify/batch.hpp"
#include "verify/sweep.hpp"

namespace {

using namespace aalwines;

struct Instance {
    synthesis::SyntheticNetwork net;
    verify::SweepSpec spec;
    verify::VerifyOptions options; ///< dual engine, lazy translation
    std::size_t jobs = 4;
};

Instance make_instance(std::size_t chains) {
    Instance instance;
    instance.net = synthesis::make_nordunet_like(chains, 1);
    const auto& topology = instance.net.network.topology;

    instance.spec.query_template = "<ip> [.#{src}] .* [{dst}#.] <ip> {k}";
    // Endpoint pairs from the LSP mesh the dataplane actually built.
    const auto n_pairs =
        std::min<std::size_t>(aalwines::bench::env_size("AALWINES_BENCH_SWEEP_PAIRS", 6),
                              instance.net.lsp_pairs.size());
    for (std::size_t p = 0; p < n_pairs; ++p)
        instance.spec.endpoint_pairs.emplace_back(
            topology.router_name(instance.net.lsp_pairs[p].first),
            topology.router_name(instance.net.lsp_pairs[p].second));
    instance.spec.failure_budgets = {1};
    // A long scenario axis is the point of a sweep: the per-chain cold cell
    // amortizes away and the steady-state mix (reused ≈ free, warm ≈ the
    // affected cone) dominates the ratio.
    instance.spec.scenarios = verify::make_single_failure_scenarios(
        instance.net.network,
        aalwines::bench::env_size("AALWINES_BENCH_SWEEP_SCENARIOS", 64));

    // Oversubscribing a small box just time-slices both sides; cap the
    // default worker pool at the hardware.
    const auto hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    instance.jobs =
        aalwines::bench::env_size("AALWINES_BENCH_JOBS", std::min<std::size_t>(4, hw));
    return instance;
}

/// One scenario's network snapshot, through the same delta pipeline the
/// sweep engine uses internally.
std::shared_ptr<const Network> scenario_network(const Network& base,
                                                const verify::SweepScenario& scenario) {
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

/// The byte-identity form: result JSON without stats, wall-clock stripped.
std::string canonical_result(const Network& network, const std::string& query_text,
                             const verify::VerifyResult& result) {
    auto value = io::result_to_json_value(network, query_text, result, false);
    value.as_object().erase("seconds");
    return json::write(value, 0);
}

/// Run the grid the pre-sweep way: per scenario, apply the delta and push
/// every instantiated query through a cold verify_batch.  Returns wall
/// clock; fills `items` (scenario-major) when non-null.
double run_one_by_one(const Instance& instance,
                      std::vector<std::vector<verify::BatchItem>>* items) {
    std::vector<std::string> texts;
    for (const auto& pair : instance.spec.endpoint_pairs)
        for (const auto k : instance.spec.failure_budgets)
            texts.push_back(verify::instantiate_template(instance.spec.query_template,
                                                         pair.first, pair.second, k));
    const auto begin = std::chrono::steady_clock::now();
    for (const auto& scenario : instance.spec.scenarios) {
        const auto snapshot = scenario_network(instance.net.network, scenario);
        auto batch =
            verify::verify_batch(*snapshot, texts, instance.options, instance.jobs);
        if (items != nullptr) items->push_back(std::move(batch));
        benchmark::DoNotOptimize(items);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
        .count();
}

double percentile(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    const auto nth =
        static_cast<std::ptrdiff_t>(q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(), samples.begin() + nth, samples.end());
    return samples[static_cast<std::size_t>(nth)];
}

void sweep_amortized(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const std::size_t n_budgets = instance.spec.failure_budgets.size();
    const std::size_t n_scenarios = instance.spec.scenarios.size();

    // Validation pass (untimed): the one-by-one grid is the oracle.  Its
    // wall clock doubles as the speedup baseline — the median of a few
    // runs, so one descheduled run cannot skew the headline ratio.
    std::vector<std::vector<verify::BatchItem>> oracle;
    std::vector<double> baseline_seconds{run_one_by_one(instance, &oracle)};
    for (int rep = 1; rep < 5; ++rep)
        baseline_seconds.push_back(run_one_by_one(instance, nullptr));
    const auto one_by_one_seconds = percentile(baseline_seconds, 0.50);
    std::size_t mismatches = 0;
    {
        const auto sweep =
            verify::run_sweep(instance.net.network, instance.spec, instance.options,
                              instance.jobs);
        for (const auto& cell : sweep.cells) {
            const auto snapshot = scenario_network(instance.net.network,
                                                   instance.spec.scenarios[cell.scenario]);
            const auto& item =
                oracle[cell.scenario][cell.pair * n_budgets + cell.budget];
            if (!cell.error.empty() || !item.error.empty()) {
                if (cell.error.empty() != item.error.empty()) ++mismatches;
                continue;
            }
            if (canonical_result(*snapshot, cell.query_text, cell.result) !=
                canonical_result(*snapshot, item.query_text, item.result))
                ++mismatches;
        }
    }

    std::vector<double> sweep_seconds;
    std::size_t cold = 0, warm = 0, reused = 0;
    double cold_seconds = 0, warm_seconds = 0;
    for (auto _ : state) {
        const auto sweep =
            verify::run_sweep(instance.net.network, instance.spec, instance.options,
                              instance.jobs);
        sweep_seconds.push_back(sweep.stats.seconds);
        cold = sweep.stats.cold_saturations;
        warm = sweep.stats.reused_frontiers;
        reused = sweep.stats.shared_saturations;
        cold_seconds = warm_seconds = 0;
        for (const auto& cell : sweep.cells) {
            if (cell.path == verify::CellPath::Cold) cold_seconds += cell.seconds;
            if (cell.path == verify::CellPath::Warm) warm_seconds += cell.seconds;
        }
        benchmark::DoNotOptimize(sweep.cells.data());
    }

    const auto p50 = percentile(sweep_seconds, 0.50);
    state.counters["cells"] = static_cast<double>(
        instance.spec.endpoint_pairs.size() * n_budgets * n_scenarios);
    state.counters["cold"] = static_cast<double>(cold);
    state.counters["warm"] = static_cast<double>(warm);
    state.counters["reused"] = static_cast<double>(reused);
    state.counters["mismatches"] = static_cast<double>(mismatches);
    state.counters["p50_ms"] = p50 * 1000.0;
    state.counters["cold_cell_ms"] = cold > 0 ? cold_seconds * 1000.0 / cold : 0.0;
    state.counters["warm_cell_ms"] = warm > 0 ? warm_seconds * 1000.0 / warm : 0.0;
    state.counters["onebyone_ms"] = one_by_one_seconds * 1000.0;
    state.counters["speedup_vs_onebyone"] = p50 > 0 ? one_by_one_seconds / p50 : 0.0;
    if (mismatches > 0)
        state.SkipWithError("sweep diverged from one-by-one verification");
}

void sweep_one_by_one(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    std::vector<double> seconds;
    for (auto _ : state) seconds.push_back(run_one_by_one(instance, nullptr));
    state.counters["cells"] = static_cast<double>(instance.spec.endpoint_pairs.size() *
                                                  instance.spec.failure_budgets.size() *
                                                  instance.spec.scenarios.size());
    state.counters["p50_ms"] = percentile(seconds, 0.50) * 1000.0;
}

} // namespace

BENCHMARK(sweep_amortized)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);
BENCHMARK(sweep_one_by_one)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    const auto json_path = aalwines::bench::take_json_flag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (json_path && !aalwines::bench::write_json_report(*json_path, "bench_sweep"))
        return 1;
    return 0;
}
