// Inter-query parallelism contract.  Saturation itself is sequential; the
// parallelism lives across queries — batch jobs, server workers and sweep
// chains each run whole saturations side by side.  The solver must
// therefore keep no shared mutable state: saturations running concurrently
// (each on its own PDA and automaton, as every worker owns its translation)
// accept exactly what a lone sequential run accepts, produce byte-identical
// automata, honor their own iteration caps, and verify_batch answers do not
// depend on the job count.  Run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "pda_test_util.hpp"
#include "synthesis/dataplane.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "verify/batch.hpp"

namespace aalwines::pda {
namespace {

using testutil::automaton_for_configs;
using testutil::brute_force_reachable;
using testutil::Config;
using testutil::exact_word;
using testutil::random_pda;

constexpr std::size_t k_workers = 4;

/// Run fn(0) … fn(count-1) on `count` threads at once.
template <typename Fn>
void run_concurrently(std::size_t count, Fn fn) {
    std::vector<std::thread> workers;
    workers.reserve(count);
    for (std::size_t i = 0; i < count; ++i) workers.emplace_back(fn, i);
    for (auto& worker : workers) worker.join();
}

/// One concurrent worker's saturation: its own PDA (first-use caches are
/// per PDA, see Pda::swaps_into) and the automaton saturated over it.
struct WorkerRun {
    std::unique_ptr<Pda> pda;
    std::optional<PAutomaton> aut;
};

/// Saturate `k_workers` fresh copies of make_pda() concurrently.
template <typename MakePda, typename Saturate>
std::vector<WorkerRun> saturate_concurrently(MakePda make_pda,
                                             const std::vector<Config>& configs,
                                             Saturate saturate) {
    std::vector<WorkerRun> runs(k_workers);
    run_concurrently(k_workers, [&](std::size_t t) {
        SolverWorkspace workspace;
        SolverOptions options;
        options.workspace = &workspace;
        runs[t].pda = std::make_unique<Pda>(make_pda());
        auto aut = automaton_for_configs(*runs[t].pda, configs);
        saturate(aut, options);
        runs[t].aut.emplace(std::move(aut));
    });
    return runs;
}

class ParallelRandom : public ::testing::TestWithParam<int> {};

/// post*: every concurrent run accepts exactly the configurations the lone
/// sequential run accepts, at the same minimal weight, with witnesses that
/// replay to the probed configuration.
TEST_P(ParallelRandom, PostStarMatchesSequential) {
    const auto make_pda = [seed = GetParam()] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
        return random_pda(rng, 6, 3, 14, true);
    };
    const Symbol alphabet = 3;
    const auto pda = make_pda();
    const std::vector<Config> initial{{0, {0, 1}}};

    auto sequential = automaton_for_configs(pda, initial);
    post_star(sequential);

    // Probe every configuration up to depth 2 plus everything brute-force
    // reachable (covers configs the automata must *reject* too).
    std::vector<Config> probes;
    for (StateId s = 0; s < pda.state_count(); ++s)
        for (Symbol a = 0; a < alphabet; ++a) {
            probes.push_back({s, {a}});
            for (Symbol b = 0; b < alphabet; ++b) probes.push_back({s, {a, b}});
        }
    for (const auto& config : brute_force_reachable(pda, initial, 48, 4))
        probes.push_back(config);

    const auto runs = saturate_concurrently(make_pda, initial, post_star);
    for (std::size_t t = 0; t < runs.size(); ++t) {
        const auto& concurrent = *runs[t].aut;
        std::size_t mismatches = 0;
        for (const auto& [state, stack] : probes) {
            const StateId starts[] = {state};
            const auto nfa = exact_word(stack);
            const auto seq = find_accepted(sequential, starts, nfa, alphabet);
            const auto par = find_accepted(concurrent, starts, nfa, alphabet);
            if (seq.has_value() != par.has_value() ||
                (seq && par && !(seq->weight == par->weight)))
                ++mismatches;
            if (!par) continue;
            const auto witness = unroll_post_star(concurrent, *par);
            ASSERT_TRUE(witness.has_value()) << "seed " << GetParam();
            const auto replay = replay_witness(*runs[t].pda, *witness);
            ASSERT_TRUE(replay.has_value()) << "seed " << GetParam() << " worker " << t;
            EXPECT_EQ(replay->back().first, state);
            EXPECT_EQ(replay->back().second, stack);
        }
        EXPECT_EQ(mismatches, 0u) << "seed " << GetParam() << " worker " << t;
    }
}

/// pre*: same equivalence, probing source configurations against a panel of
/// saturated target automata.
TEST_P(ParallelRandom, PreStarMatchesSequential) {
    const auto make_pda = [seed = GetParam()] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 24593 + 11);
        return random_pda(rng, 5, 3, 12, true);
    };
    const Symbol alphabet = 3;
    const auto pda = make_pda();
    const std::vector<Config> targets{{1, {0}}, {2, {1, 0}}, {0, {2, 2}}};

    for (const auto& target : targets) {
        auto sequential = automaton_for_configs(pda, {target});
        pre_star(sequential);
        const auto runs = saturate_concurrently(make_pda, {target}, pre_star);

        std::size_t mismatches = 0;
        for (const auto& run : runs)
            for (StateId s = 0; s < pda.state_count(); ++s)
                for (Symbol a = 0; a < alphabet; ++a)
                    for (Symbol b = 0; b < alphabet; ++b) {
                        const StateId starts[] = {s};
                        const auto nfa = exact_word({a, b});
                        const auto seq = find_accepted(sequential, starts, nfa, alphabet);
                        const auto par = find_accepted(*run.aut, starts, nfa, alphabet);
                        if (seq.has_value() != par.has_value() ||
                            (seq && par && !(seq->weight == par->weight)))
                            ++mismatches;
                    }
        EXPECT_EQ(mismatches, 0u)
            << "seed " << GetParam() << " target state " << target.first;
    }
}

/// Concurrent runs are byte-identical to the sequential run: same ids,
/// weights and provenance — nothing in the solver depends on what else is
/// running.
TEST_P(ParallelRandom, FixedThreadCountIsDeterministic) {
    const auto make_pda = [seed = GetParam()] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 40961 + 7);
        return random_pda(rng, 6, 3, 14, true);
    };
    const auto pda = make_pda();
    const std::vector<Config> initial{{0, {0, 1}}};
    auto first = automaton_for_configs(pda, initial);
    post_star(first);

    const auto runs = saturate_concurrently(make_pda, initial, post_star);
    for (const auto& run : runs) {
        const auto& second = *run.aut;
        ASSERT_EQ(first.transition_count(), second.transition_count());
        ASSERT_EQ(first.epsilon_count(), second.epsilon_count());
        for (TransId id = 0; id < first.transition_count(); ++id) {
            const auto& a = first.transition(id);
            const auto& b = second.transition(id);
            EXPECT_EQ(a.from, b.from) << id;
            EXPECT_EQ(a.to, b.to) << id;
            EXPECT_TRUE(a.label == b.label) << id;
            EXPECT_TRUE(a.weight == b.weight) << id;
            EXPECT_EQ(a.prov.kind, b.prov.kind) << id;
            EXPECT_EQ(a.prov.rule, b.prov.rule) << id;
        }
        for (std::uint32_t id = 0; id < first.epsilon_count(); ++id) {
            const auto& a = first.epsilon(id);
            const auto& b = second.epsilon(id);
            EXPECT_EQ(a.from, b.from) << id;
            EXPECT_EQ(a.to, b.to) << id;
            EXPECT_TRUE(a.weight == b.weight) << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandom, ::testing::Range(0, 12));

/// The iteration cap is per call: concurrent capped saturations each stop
/// at exactly their own cap and report truncation.
TEST(ParallelSolver, IterationCapIsExact) {
    Pda pda(2);
    const auto p0 = pda.add_state();
    pda.add_rule({p0, p0, PreSpec::any(), Rule::OpKind::Push, 1, k_same_symbol,
                  Weight::one(), 0});
    const auto full = [&] {
        auto aut = automaton_for_configs(pda, {{p0, {0}}});
        return post_star(aut).iterations;
    }();
    ASSERT_GE(full, 3u);
    const std::vector<std::size_t> caps{1, 2, full - 1};
    std::vector<SolverStats> stats(caps.size());
    run_concurrently(caps.size(), [&](std::size_t i) {
        Pda local = pda;
        auto aut = automaton_for_configs(local, {{p0, {0}}});
        SolverOptions options;
        options.max_iterations = caps[i];
        stats[i] = post_star(aut, options);
    });
    for (std::size_t i = 0; i < caps.size(); ++i) {
        EXPECT_TRUE(stats[i].truncated) << caps[i];
        EXPECT_EQ(stats[i].iterations, caps[i]);
    }
}

} // namespace
} // namespace aalwines::pda

namespace aalwines::verify {
namespace {

/// End-to-end: verify_batch answers, weights and witness traces are
/// identical at 1, 2 and 8 jobs on the paper's running example and a
/// synthesized operator network.  Every query appears twice in the batch,
/// so workers also verify the same query at the same time.
class ParallelVerify : public ::testing::Test {
protected:
    static void expect_equivalent(const Network& net, const std::vector<std::string>& texts,
                                  const WeightExpr* weights = nullptr) {
        VerifyOptions options;
        if (weights != nullptr) {
            options.engine = EngineKind::Weighted;
            options.weights = weights;
        }
        std::vector<std::string> batch = texts;
        batch.insert(batch.end(), texts.begin(), texts.end());

        const auto baseline = verify_batch(net, batch, options, 1);
        for (const auto& item : baseline) {
            ASSERT_TRUE(item.error.empty()) << item.query_text << ": " << item.error;
            if (!item.result.trace) continue;
            const auto query = query::parse_query(item.query_text, net);
            const auto feasibility =
                check_feasibility(net, *item.result.trace, query.max_failures);
            EXPECT_TRUE(feasibility.feasible) << item.query_text << ": " << feasibility.reason;
        }
        for (const std::size_t jobs : {2u, 8u}) {
            const auto items = verify_batch(net, batch, options, jobs);
            ASSERT_EQ(items.size(), baseline.size());
            for (std::size_t i = 0; i < items.size(); ++i) {
                const auto& got = items[i].result;
                const auto& want = baseline[i].result;
                const auto& text = batch[i];
                EXPECT_EQ(items[i].error, baseline[i].error) << text << " @" << jobs;
                EXPECT_EQ(got.answer, want.answer) << text << " @" << jobs;
                EXPECT_EQ(got.weight, want.weight) << text << " @" << jobs;
                EXPECT_TRUE(got.trace == want.trace) << text << " @" << jobs;
                EXPECT_TRUE(got.witnesses == want.witnesses) << text << " @" << jobs;
            }
        }
    }
};

TEST_F(ParallelVerify, Figure1QueriesMatchAcrossThreadCounts) {
    const auto net = synthesis::make_figure1_network();
    expect_equivalent(net, {
                               "<ip> [.#v0] .* [v3#.] <ip> 0",
                               "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
                               "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
                               "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
                               "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
                           });
}

TEST_F(ParallelVerify, Figure1WeightedMinimumMatchesAcrossThreadCounts) {
    const auto net = synthesis::make_figure1_network();
    const std::vector<std::string> query{"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1"};
    // Scalar objective (bucket worklist) and lexicographic vector objective
    // (heap worklist).
    const auto hops = parse_weight_expression("hops");
    expect_equivalent(net, query, &hops);
    const auto vector = parse_weight_expression("hops, failures + 3*tunnels");
    expect_equivalent(net, query, &vector);
}

TEST_F(ParallelVerify, NordunetBatteryMatchesAcrossThreadCounts) {
    auto synth = synthesis::make_nordunet_like();
    synthesis::QueryBatteryOptions battery_options;
    battery_options.count = 8;
    const auto battery = synthesis::make_query_battery(synth, battery_options);
    ASSERT_FALSE(battery.empty());
    expect_equivalent(synth.network, battery);
}

} // namespace
} // namespace aalwines::verify
