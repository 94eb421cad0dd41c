// Ablation (DESIGN.md): raw solver characteristics — post* vs pre*
// saturation on network-shaped PDAs of growing size, the cost of the
// weighted (Dijkstra-ordered) worklist relative to the unweighted one, and
// the bucket queue against the binary heap on the same scalar-weight PDA.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "verify/translation.hpp"

namespace {

using namespace aalwines;

/// A (network, query, translation inputs) bundle reused across runs.
struct Instance {
    synthesis::SyntheticNetwork net;
    std::string query_text;
};

Instance make_instance(std::size_t ring_size) {
    Instance instance;
    instance.net = synthesis::build_dataplane(
        synthesis::make_ring(ring_size),
        {.max_lsp_pairs = ring_size * 3, .service_chains = ring_size / 2,
         .seed = ring_size});
    const auto& topology = instance.net.network.topology;
    const auto a = topology.router_name(instance.net.edge_routers.front());
    const auto b = topology.router_name(
        instance.net.edge_routers[instance.net.edge_routers.size() / 2]);
    instance.query_text = "<ip> [.#" + a + "] .* [.#" + b + "] <ip> 1";
    return instance;
}

void post_star_saturation(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    for (auto _ : state) {
        verify::Translation translation(instance.net.network, query, {});
        translation.reduce(2);
        auto aut = translation.make_initial_automaton();
        const auto stats = pda::post_star(aut);
        benchmark::DoNotOptimize(stats.transitions);
        state.counters["transitions"] = static_cast<double>(stats.transitions);
        state.counters["rules"] = static_cast<double>(translation.pda().rule_count());
    }
}

/// post_star_saturation with the binary-heap worklist forced (the discipline
/// every vector-weight run uses): read beside post_star_saturation, which
/// saturates the same PDA through Dial's bucket queue.
void post_star_heap_worklist(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    pda::SolverOptions options;
    options.worklist = pda::Worklist::Heap;
    for (auto _ : state) {
        verify::Translation translation(instance.net.network, query, {});
        translation.reduce(2);
        auto aut = translation.make_initial_automaton();
        benchmark::DoNotOptimize(pda::post_star(aut, options).transitions);
    }
}

void pre_star_saturation(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    for (auto _ : state) {
        verify::Translation translation(instance.net.network, query, {});
        translation.reduce(2);
        auto aut = translation.make_final_automaton();
        const auto stats = pda::pre_star(aut);
        benchmark::DoNotOptimize(stats.transitions);
        state.counters["transitions"] = static_cast<double>(stats.transitions);
    }
}

void weighted_post_star(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    const auto weights = parse_weight_expression("hops, failures");
    for (auto _ : state) {
        verify::TranslationOptions topts;
        topts.weights = &weights;
        verify::Translation translation(instance.net.network, query, topts);
        translation.reduce(2);
        auto aut = translation.make_initial_automaton();
        benchmark::DoNotOptimize(pda::post_star(aut).transitions);
    }
}

/// Demand-driven counterpart of post_star_saturation: no reduction pass
/// (the per-state demand filter subsumes it); rules materialize as the
/// worklist reaches their states.
void post_star_saturation_lazy(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    for (auto _ : state) {
        verify::TranslationOptions topts;
        topts.lazy = true;
        verify::Translation translation(instance.net.network, query, topts);
        auto aut = translation.make_initial_automaton();
        const auto stats = pda::post_star(aut);
        benchmark::DoNotOptimize(stats.transitions);
        state.counters["transitions"] = static_cast<double>(stats.transitions);
        state.counters["rules_materialized"] =
            static_cast<double>(translation.pda().rule_count());
        state.counters["rules_total"] = static_cast<double>(translation.total_rules());
    }
}

void translation_only(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    for (auto _ : state) {
        verify::Translation translation(instance.net.network, query, {});
        benchmark::DoNotOptimize(translation.pda().rule_count());
    }
}

/// Lazy setup cost alone: control states, move index, and the rule-free
/// counting pass behind the eager-equivalent rule total — no rule is
/// emitted and no chain interior is created.
void translation_only_lazy(benchmark::State& state) {
    const auto instance = make_instance(static_cast<std::size_t>(state.range(0)));
    const auto query =
        query::parse_query(instance.query_text, instance.net.network);
    for (auto _ : state) {
        verify::TranslationOptions topts;
        topts.lazy = true;
        verify::Translation translation(instance.net.network, query, topts);
        benchmark::DoNotOptimize(translation.total_rules());
    }
}

/// Operator-network scaling: end-to-end verification time as the rule
/// count grows (the paper's NORDUnet snapshot has >250k rules; the arg is
/// the number of synthesized service chains, ~10 rules each).
void nordunet_scaling(benchmark::State& state) {
    const auto chains = static_cast<std::size_t>(state.range(0));
    const auto net = synthesis::make_nordunet_like(chains, 1);
    const auto queries = synthesis::make_table1_queries(net);
    const auto query = query::parse_query(queries[0], net.network);
    verify::VerifyResult last;
    for (auto _ : state) {
        last = bench::bench_verify(net.network, query, {});
        benchmark::DoNotOptimize(last);
    }
    state.counters["rules"] = static_cast<double>(net.network.routing.rule_count());
    state.counters["labels"] = static_cast<double>(net.network.labels.size());
    state.counters["pda_rules_materialized"] = static_cast<double>(last.stats.over.pda_rules);
    state.counters["pda_rules_total"] =
        static_cast<double>(last.stats.over.pda_rules_total);
    state.counters["pda_states"] = static_cast<double>(last.stats.over.pda_states);
}

void nordunet_scaling_moped(benchmark::State& state) {
    const auto chains = static_cast<std::size_t>(state.range(0));
    const auto net = synthesis::make_nordunet_like(chains, 1);
    const auto queries = synthesis::make_table1_queries(net);
    const auto query = query::parse_query(queries[0], net.network);
    verify::VerifyOptions options;
    options.engine = verify::EngineKind::Moped;
    for (auto _ : state) {
        benchmark::DoNotOptimize(verify::verify(net.network, query, options));
    }
    state.counters["rules"] = static_cast<double>(net.network.routing.rule_count());
}

} // namespace

BENCHMARK(post_star_saturation)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(post_star_heap_worklist)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(post_star_saturation_lazy)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(pre_star_saturation)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(weighted_post_star)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(translation_only)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(translation_only_lazy)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(nordunet_scaling)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMillisecond);
BENCHMARK(nordunet_scaling_moped)
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
    if (json_path && !aalwines::bench::write_json_report(*json_path, "bench_pda"))
        return 1;
    return 0;
}
