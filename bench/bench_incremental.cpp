// Incremental what-if (docs/PERFORMANCE.md): re-verifying after a small
// routing delta through a delta::Reverifier session versus recompiling from
// scratch.  Each timed iteration applies one single-entry delta (remove or
// re-add one forwarding rule, fixed-seed random site) to the evolving
// network and re-runs the same NORDUnet-style reachability query:
//
//   incremental_reverify       PATCH + tiered re-verify (reuse / rebase)
//   incremental_cold_recompile PATCH + full cold verification
//
// The reverify case self-validates: every 8th iteration it pauses the
// clock, runs a cold verification on the same snapshot and asserts the
// canonical result JSON (stats stripped) is byte-identical — the warm
// path's correctness contract.  Tier usage is exported as counters so a
// report showing a speedup also shows *why* (reused vs warm vs cold mix).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <random>

#include "bench_common.hpp"
#include "cli/options.hpp"
#include "delta/delta.hpp"
#include "delta/reverify.hpp"
#include "delta/session.hpp"
#include "io/results_json.hpp"
#include "query/query.hpp"

namespace {

using namespace aalwines;

/// One forwarding rule addressed the way the delta wire format does —
/// by router/interface/label names — so it can be removed and re-added.
struct RuleSite {
    delta::DeltaOp remove; ///< kind RemoveRule, exact-ops match
    delta::DeltaOp add;    ///< kind AddRule, restores it at its priority
};

delta::DeltaOp::LabelRef label_ref(const LabelTable& labels, Label label) {
    return {labels.type_of(label), labels.name_of(label)};
}

std::vector<RuleSite> collect_sites(const Network& network) {
    const auto& topology = network.topology;
    std::vector<RuleSite> sites;
    // remove-rule removes *every* rule matching (in, label, out, ops), so a
    // signature that occurs twice cannot be toggled one copy at a time —
    // keep only uniquely-addressable rules in the battery.
    std::vector<std::string> signatures;
    const auto signature_of = [](LinkId in_link, Label label, const ForwardingRule& rule) {
        std::string sig = std::to_string(in_link) + '/' + std::to_string(label) + '/' +
                          std::to_string(rule.out_link);
        for (const auto& op : rule.ops) {
            sig += '/';
            sig += std::to_string(static_cast<int>(op.kind));
            sig += ':';
            sig += std::to_string(op.label);
        }
        return sig;
    };
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        for (const auto& group : groups)
            for (const auto& rule : group) signatures.push_back(signature_of(in_link, label, rule));
    });
    std::sort(signatures.begin(), signatures.end());
    const auto unique = [&](const std::string& sig) {
        const auto it = std::lower_bound(signatures.begin(), signatures.end(), sig);
        return it != signatures.end() && (it + 1 == signatures.end() || *(it + 1) != sig);
    };
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        const auto& in = topology.link(in_link);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const auto& rule : groups[g]) {
                if (!unique(signature_of(in_link, label, rule))) continue;
                const auto& out = topology.link(rule.out_link);
                RuleSite site;
                auto& remove = site.remove;
                remove.kind = delta::DeltaOp::Kind::RemoveRule;
                remove.router = topology.router_name(in.target);
                remove.in_interface = topology.interface(in.target_interface).name;
                remove.out_interface = topology.interface(out.source_interface).name;
                remove.label = label_ref(network.labels, label);
                remove.match_ops = true;
                for (const auto& op : rule.ops)
                    remove.ops.push_back(
                        {op.kind, op.kind == Op::Kind::Pop
                                      ? delta::DeltaOp::LabelRef{}
                                      : label_ref(network.labels, op.label)});
                auto& add = site.add;
                add = remove;
                add.kind = delta::DeltaOp::Kind::AddRule;
                add.match_ops = false;
                add.priority = static_cast<std::uint32_t>(g + 1);
                sites.push_back(std::move(site));
            }
        }
    });
    return sites;
}

/// Per-delta turnaround percentiles (ms).  The acceptance metric is the
/// *median*: a what-if session's typical PATCH+query latency.  The mean
/// hides it — one warm re-saturation costs as much as dozens of Tier-1
/// reuses — so both distributions are exported as counters next to the
/// usual per-iteration mean.
double percentile_ms(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    const auto nth = static_cast<std::ptrdiff_t>(q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(), samples.begin() + nth, samples.end());
    return samples[static_cast<std::size_t>(nth)];
}

/// The byte-identity form: result JSON without stats, wall-clock stripped.
std::string canonical_result(const Network& network, const std::string& query_text,
                             const verify::VerifyResult& result) {
    auto value = io::result_to_json_value(network, query_text, result, false);
    value.as_object().erase("seconds");
    return json::write(value, 0);
}

struct Instance {
    synthesis::SyntheticNetwork net;
    std::string query_text;
    cli::VerifySpec spec; ///< defaults: dual engine, lazy translation
};

Instance make_instance(std::size_t chains) {
    Instance instance;
    instance.net = synthesis::make_nordunet_like(chains, 1);
    instance.query_text = synthesis::make_table1_queries(instance.net)[0];
    return instance;
}

void incremental_reverify(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    delta::Reverifier reverifier(std::make_shared<const Network>(instance.net.network));
    // Cold-build the session once up front; the loop then measures the
    // steady-state what-if turnaround, as the interactive tool sees it.
    (void)reverifier.verify(instance.query_text, instance.spec);
    const auto sites = collect_sites(*reverifier.network());

    // The cold oracle for the periodic identity check (clock paused).
    const auto query = query::parse_query(instance.query_text, instance.net.network);
    WeightExpr oracle_weights;
    const auto oracle_options = cli::make_verify_options(instance.spec, oracle_weights);

    std::mt19937 rng(0x5eed);
    std::uniform_int_distribution<std::size_t> pick(0, sites.size() - 1);
    std::vector<char> removed(sites.size(), 0);
    std::size_t reused = 0, warm = 0, cold = 0, mismatches = 0, iteration = 0;
    std::vector<double> turnaround_ms;

    for (auto _ : state) {
        const auto index = pick(rng);
        delta::NetworkDelta delta;
        delta.ops.push_back(removed[index] ? sites[index].add : sites[index].remove);
        removed[index] ^= 1;

        const auto begin = std::chrono::steady_clock::now();
        reverifier.apply(delta);
        const auto outcome = reverifier.verify(instance.query_text, instance.spec);
        turnaround_ms.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
                .count());
        switch (outcome.path) {
            case delta::VerifyPath::Reused: ++reused; break;
            case delta::VerifyPath::Warm: ++warm; break;
            case delta::VerifyPath::Cold: ++cold; break;
        }

        if (++iteration % 8 == 0) {
            state.PauseTiming();
            const auto snapshot = reverifier.network();
            const auto oracle = verify::verify(*snapshot, query, oracle_options);
            if (canonical_result(*snapshot, instance.query_text, outcome.result) !=
                canonical_result(*snapshot, instance.query_text, oracle))
                ++mismatches;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(outcome.result.answer);
    }

    state.counters["reused"] = static_cast<double>(reused);
    state.counters["warm"] = static_cast<double>(warm);
    state.counters["cold"] = static_cast<double>(cold);
    state.counters["mismatches"] = static_cast<double>(mismatches);
    state.counters["p50_ms"] = percentile_ms(turnaround_ms, 0.50);
    state.counters["p90_ms"] = percentile_ms(turnaround_ms, 0.90);
    state.counters["rules"] =
        static_cast<double>(instance.net.network.routing.rule_count());
    if (mismatches > 0) {
        state.SkipWithError("incremental re-verify diverged from cold recompile");
    }
}

void incremental_cold_recompile(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    // Each answer comes from a fresh delta::Session, so it is a from-scratch
    // cold run — the same work a PATCH-oblivious deployment would redo each
    // time.
    auto network = std::make_shared<const Network>(instance.net.network);
    WeightExpr weights;
    const auto options = cli::make_verify_options(instance.spec, weights);
    const auto sites = collect_sites(*network);

    std::mt19937 rng(0x5eed); // same delta sequence as incremental_reverify
    std::uniform_int_distribution<std::size_t> pick(0, sites.size() - 1);
    std::vector<char> removed(sites.size(), 0);
    std::vector<double> turnaround_ms;

    for (auto _ : state) {
        const auto index = pick(rng);
        delta::NetworkDelta delta;
        delta.ops.push_back(removed[index] ? sites[index].add : sites[index].remove);
        removed[index] ^= 1;

        const auto begin = std::chrono::steady_clock::now();
        network = delta::apply_delta(*network, delta).network;
        delta::Session session(instance.query_text, options);
        const auto outcome = session.answer(network, nullptr, nullptr, /*anchor=*/false);
        turnaround_ms.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
                .count());
        benchmark::DoNotOptimize(outcome.result.answer);
    }
    state.counters["p50_ms"] = percentile_ms(turnaround_ms, 0.50);
    state.counters["p90_ms"] = percentile_ms(turnaround_ms, 0.90);
    state.counters["rules"] =
        static_cast<double>(instance.net.network.routing.rule_count());
}

} // namespace

BENCHMARK(incremental_reverify)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(incremental_cold_recompile)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    const auto json_path = aalwines::bench::take_json_flag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (json_path && !aalwines::bench::write_json_report(*json_path, "bench_incremental"))
        return 1;
    return 0;
}
