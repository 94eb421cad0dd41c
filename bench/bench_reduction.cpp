// Ablation (DESIGN.md): effect of the top-of-stack reduction levels on PDA
// size and on the verification time of the Moped-style pre* baseline, which
// fully saturates the direct encoding and so pays for every rule the
// reduction leaves.  Our demand-driven engine translates lazily, where the
// reduction is a no-op (rules that can never fire are never materialized),
// so its time is measured once, as the reference.

#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>

#include "bench_common.hpp"
#include "verify/translation.hpp"

namespace {

using namespace aalwines;

struct ReductionFixture {
    std::vector<synthesis::ZooInstance> instances;
    std::vector<std::vector<std::string>> batteries;
    double dual_seconds = 0; ///< lazy dual engine, whatever the level
    double moped_seconds[3] = {0, 0, 0};
    std::size_t rules_before[3] = {0, 0, 0};
    std::size_t rules_after[3] = {0, 0, 0};

    ReductionFixture() {
        const auto networks = bench::env_size("AALWINES_BENCH_NETWORKS", 5);
        for (std::size_t i = 0; i < std::min(networks, synthesis::zoo_like_count());
             ++i) {
            instances.push_back(
                synthesis::make_zoo_like(i * 3 % synthesis::zoo_like_count()));
            batteries.push_back(synthesis::make_query_battery(
                instances.back().net, {.count = 4, .seed = 21 + i}));
        }
    }
};

ReductionFixture& fixture() {
    static ReductionFixture instance;
    return instance;
}

double seconds_to_verify(const Network& network, const query::Query& query,
                         const verify::VerifyOptions& options) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(verify::verify(network, query, options));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void run_level(benchmark::State& state, int level) {
    auto& fix = fixture();
    for (auto _ : state) {
        double dual_total = 0, moped_total = 0;
        std::size_t before = 0, after = 0;
        for (std::size_t i = 0; i < fix.instances.size(); ++i) {
            const auto& network = fix.instances[i].net.network;
            for (const auto& text : fix.batteries[i]) {
                const auto query = query::parse_query(text, network);
                // Size effect of the reduction alone.
                verify::Translation translation(network, query, {});
                before += translation.pda().rule_count();
                translation.reduce(level);
                after += translation.pda().rule_count();
                // End-to-end: the Moped baseline fed the level-reduced PDA...
                verify::VerifyOptions options;
                options.engine = verify::EngineKind::Moped;
                options.reduction_level = level;
                options.moped_reduction = level > 0;
                moped_total += seconds_to_verify(network, query, options);
                // ...and, once, our lazy engine, which no level changes.
                if (level == 0) dual_total += seconds_to_verify(network, query, {});
            }
        }
        if (level == 0) fix.dual_seconds = dual_total;
        fix.moped_seconds[level] = moped_total;
        fix.rules_before[level] = before;
        fix.rules_after[level] = after;
    }
}

void print_summary() {
    auto& fix = fixture();
    std::cout << "\n=== ablation: PDA reduction levels ===\n";
    std::cout << std::left << std::setw(8) << "level" << std::right << std::setw(14)
              << "rules before" << std::setw(14) << "rules after" << std::setw(11)
              << "removed" << std::setw(13) << "moped time\n";
    for (int level = 0; level < 3; ++level) {
        const auto removed_pct =
            fix.rules_before[level] == 0
                ? 0.0
                : 100.0 *
                      static_cast<double>(fix.rules_before[level] -
                                          fix.rules_after[level]) /
                      static_cast<double>(fix.rules_before[level]);
        std::cout << std::left << std::setw(8) << level << std::right << std::setw(14)
                  << fix.rules_before[level] << std::setw(14) << fix.rules_after[level]
                  << std::setw(10) << std::fixed << std::setprecision(1) << removed_pct
                  << "%" << std::setw(12) << std::setprecision(3)
                  << fix.moped_seconds[level] << "s\n";
    }
    std::cout << "dual (lazy translation, where reduction is a no-op): "
              << std::setprecision(3) << fix.dual_seconds << "s at every level\n";
}

} // namespace

int main(int argc, char** argv) {
    const auto json_path = bench::take_json_flag(argc, argv);
    for (int level = 0; level < 3; ++level) {
        const auto name = "Reduction/level" + std::to_string(level);
        benchmark::RegisterBenchmark(
            name.c_str(), [level](benchmark::State& st) { run_level(st, level); })
            ->Unit(benchmark::kSecond)
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    print_summary();
    if (json_path && !bench::write_json_report(*json_path, "bench_reduction")) return 1;
    return 0;
}
