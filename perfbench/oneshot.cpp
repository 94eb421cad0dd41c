// oneshot_paper: paper-scale one-shot verification.  The NORDUnet-like
// network at the paper's size (make_nordunet_like(26000): 253,008 rules,
// 101,142 labels) is written once to topo/route XML and loaded through
// io::read_network_xml; one thread then verifies a seeded battery in
// sequence, each query cold, the way a CLI invocation would: parse, verify,
// serialize.  Per-query translation set-up and saturation do almost all the
// work; server, delta and sweep code never run.

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>

#include "io/formats.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"
#include "layers.hpp"
#include "query/query.hpp"
#include "synthesis/queries.hpp"
#include "validate/witness.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace aalwines;

namespace {

struct Item {
    std::string text;
    bool weighted = false;
};

/// The Table 1 queries under the dual engine and under the two-component
/// lexicographic weight (the vector-weight solver path), the stress shape
/// at the two failure budgets Table 1 does not cover, then a
/// make_query_battery set, a third at each failure budget 0, 1 and 2.  Of
/// each budget's third, two thirds are drawn with a fixed generator seed
/// and one third with the run's seed.  Query cost varies several-fold with
/// the endpoints drawn and the median sits where cost climbs steeply, so
/// the fixed share keeps the cost mix around the median and the tail alike
/// for every seed while the seeded share still varies the inputs.
std::vector<Item> make_battery(const synthesis::SyntheticNetwork& net, const Args& args) {
    std::vector<Item> items;
    for (const auto& text : synthesis::make_table1_queries(net)) {
        items.push_back({text, false});
        items.push_back({text, true});
    }
    items.push_back({"<smpls? ip> .* <. smpls ip> 1", false});
    items.push_back({"<smpls? ip> .* <. smpls ip> 2", false});
    const std::size_t per_budget =
        args.tiny() ? 7 : static_cast<std::size_t>(std::lround(10 * args.seconds / 3));
    const std::size_t seeded = per_budget / 3;
    for (const std::uint64_t k : {0, 1, 2}) {
        synthesis::QueryBatteryOptions options;
        options.failure_bounds = {k};
        options.include_stress = false;
        for (const auto& [count, seed] : {std::pair{per_budget - seeded, 1000 + k},
                                          std::pair{seeded, 3 * args.seed + k}}) {
            options.count = count;
            options.seed = seed;
            for (auto& text : synthesis::make_query_battery(net, options))
                items.push_back({std::move(text), false});
        }
    }
    return items;
}

std::string weight_text(const std::vector<std::uint64_t>& weight) {
    std::string text;
    for (const auto w : weight) {
        if (!text.empty()) text += ',';
        text += std::to_string(w);
    }
    return text.empty() ? "-" : text;
}

/// One line of oneshot_answers.tsv: network size, engine, answer, weight,
/// query text.
std::string pin_line(std::size_t chains, const Item& item, const verify::VerifyResult& result) {
    return std::to_string(chains) + "\t" + (item.weighted ? "weighted" : "dual") + "\t" +
           std::string(to_string(result.answer)) + "\t" + weight_text(result.weight) + "\t" +
           item.text;
}

/// Pinned seed-1 answers at this network size, keyed by engine and query.
std::map<std::string, std::string> read_pins(std::size_t chains) {
    std::ifstream in(std::string(PERFBENCH_DIR) + "/oneshot_answers.tsv");
    std::map<std::string, std::string> pins;
    const auto prefix = std::to_string(chains) + "\t";
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(prefix, 0) != 0) continue;
        const auto engine_end = line.find('\t', prefix.size());
        const auto weight_end = line.find('\t', line.find('\t', engine_end + 1) + 1);
        if (engine_end == std::string::npos || weight_end == std::string::npos) continue;
        pins.emplace(line.substr(prefix.size(), engine_end - prefix.size()) + "\t" +
                         line.substr(weight_end + 1),
                     line);
    }
    return pins;
}

} // namespace

Result run_oneshot(const Args& args) {
    Result out;
    const double calib_start = calibrate_host_ms();
    const std::size_t chains = args.tiny() ? 100 : 26000;
    const auto fixture = make_fixture(chains);

    // Set-up: loading the network from its XML pair, repeated so the
    // reported figure is a median.
    std::optional<Network> network;
    std::vector<double> setup_ms;
    for (int rep = 0; rep < 5; ++rep) {
        network.reset();
        const auto start = Clock::now();
        network.emplace(io::read_network_xml(fixture.topology_xml, fixture.routing_xml));
        setup_ms.push_back(ms_since(start));
    }

    const auto items = make_battery(fixture.net, args);
    const auto weights = parse_weight_expression("failures, hops");
    verify::VerifyOptions dual;
    verify::VerifyOptions weighted;
    weighted.engine = verify::EngineKind::Weighted;
    weighted.weights = &weights;

    // Timed pass: one cold query after another, text in, JSON out.
    std::vector<verify::VerifyResult> results;
    results.reserve(items.size());
    std::vector<double> latency_ms;
    const auto counters_before = telemetry::snapshot();
    const auto pass_start = Clock::now();
    for (const auto& item : items) {
        const auto start = Clock::now();
        const auto query = query::parse_query(item.text, *network);
        auto result = verify::verify(*network, query, item.weighted ? weighted : dual);
        (void)json::write(io::result_to_json_value(*network, item.text, result));
        latency_ms.push_back(ms_since(start));
        results.push_back(std::move(result));
    }
    const double pass_ms = ms_since(pass_start);
    const auto timed_counters = WorkCounters::between(counters_before, telemetry::snapshot());

    if (args.dump_answers) {
        for (std::size_t i = 0; i < items.size(); ++i)
            std::cout << pin_line(chains, items[i], results[i]) << "\n";
        return out;
    }

    // Oracles (untimed): witness replay and weight re-evaluation for every
    // answer, and the pinned answers for the default seed.
    std::size_t inconclusive = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto query = query::parse_query(items[i].text, *network);
        const auto report = validate::check_result(*network, query, results[i],
                                                   items[i].weighted ? &weights : nullptr);
        if (!report.ok()) out.fail(items[i].text + ": " + report.to_string());
        if (results[i].answer == verify::Answer::Inconclusive) ++inconclusive;
    }
    if (args.seed == 1) {
        const auto pins = read_pins(chains);
        std::size_t pinned = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const auto line = pin_line(chains, items[i], results[i]);
            const auto pin =
                pins.find((items[i].weighted ? "weighted\t" : "dual\t") + items[i].text);
            if (pin == pins.end()) continue;
            ++pinned;
            if (pin->second != line) out.fail("pinned answer differs: " + line);
        }
        if (pinned == 0) out.fail("no pinned answers for " + std::to_string(chains) + " chains");
    }
    out.attempted = items.size();

    if (!args.trace) {
        add_common_metrics(out, setup_ms, inconclusive, items.size(), calib_start);
        out.add("p50_ms", median(latency_ms), "ms");
        out.add("tail_ms", percentile(latency_ms, 0.90), "ms");
        out.add("throughput_per_s", static_cast<double>(items.size()) / (pass_ms / 1000.0),
                "1/s");
        return out;
    }

    // Traced run: replay every query through the layer calls verify()
    // makes.  Answers and deterministic work counters must match the timed
    // pass, so the trace measures the same program.
    Tracer tracer;
    LayerTotals totals;
    const auto replay_before = telemetry::snapshot();
    const auto replay_start = Clock::now();
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto canonical = replay_query(*network, items[i].text,
                                            items[i].weighted ? &weights : nullptr, &tracer,
                                            i, totals);
        if (canonical != canonical_result(*network, items[i].text, results[i]))
            out.fail("replayed answer differs from verify(): " + items[i].text);
    }
    const double replay_ms = ms_since(replay_start);
    const auto replay_after = telemetry::snapshot();
    totals.absorb_counters(replay_before, replay_after);
    const auto replay_counters = WorkCounters::between(replay_before, replay_after);
    if (!(replay_counters == timed_counters))
        out.fail("replay work counters differ: timed " + timed_counters.describe() +
                 " replay " + replay_counters.describe());

    totals.emit(out);
    out.add("host.calib_ms", median({calib_start, calibrate_host_ms()}), "ms");
    out.add("trace.overhead_pct", 100.0 * (replay_ms - pass_ms) / pass_ms, "%");
    if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file))
        out.fail("cannot write " + args.trace_file);
    return out;
}

} // namespace perfbench
