#pragma once
// Shared helpers for the benchmark binaries.
//
// Every bench accepts `--json FILE` (stripped from argv before google
// benchmark sees it): each run_engine() call is recorded as a sample and the
// report — per-query latency stats, telemetry counter totals, peak RSS — is
// written as JSON on exit.  Schema: docs/OBSERVABILITY.md.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "model/quantity.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::bench {

/// One timed verification; returns (answer, seconds).
struct RunOutcome {
    verify::Answer answer = verify::Answer::Inconclusive;
    double seconds = 0.0;
};

struct Sample {
    std::string label;
    double seconds = 0.0;
    std::string answer;
};

namespace detail {
struct SampleStore {
    std::mutex mutex;
    std::vector<Sample> samples;
};
inline SampleStore& sample_store() {
    static SampleStore store;
    return store;
}
} // namespace detail

inline void record_sample(std::string label, double seconds, verify::Answer answer) {
    auto& store = detail::sample_store();
    const std::lock_guard lock(store.mutex);
    store.samples.push_back({std::move(label), seconds, std::string(to_string(answer))});
}

/// verify(), except that with AALWINES_BENCH_TRANSLATION=eager in the
/// environment the dual and weighted engines run on the eager reference
/// build (a fresh eager TranslationCache per call, as verify() builds its
/// own lazy one).  Lets scripts/bench-ci run one binary both ways without
/// doubling the registered case list.
inline verify::VerifyResult bench_verify(const Network& network, const query::Query& query,
                                         const verify::VerifyOptions& options) {
    const char* mode = std::getenv("AALWINES_BENCH_TRANSLATION");
    const bool native = options.engine == verify::EngineKind::Dual ||
                        options.engine == verify::EngineKind::Weighted;
    if (!native || mode == nullptr || std::string_view(mode) != "eager")
        return verify::verify(network, query, options);
    verify::TranslationCache eager(network, query, verify::translation_weights(options),
                                   /*lazy=*/false);
    return verify::verify(network, query, options, eager);
}

inline RunOutcome run_engine(const Network& network, const query::Query& query,
                             verify::EngineKind engine, const WeightExpr* weights,
                             std::size_t max_iterations = 0) {
    verify::VerifyOptions options;
    options.engine = engine;
    options.weights = weights;
    options.max_iterations = max_iterations;
    const auto start = std::chrono::steady_clock::now();
    const auto result = bench_verify(network, query, options);
    const auto seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    record_sample(std::string(to_string(engine)) + ":" + query.text, seconds,
                  result.answer);
    return {result.answer, seconds};
}

/// Integer knob from the environment, with default.
inline std::size_t env_size(const char* name, std::size_t fallback) {
    if (const char* value = std::getenv(name)) {
        const auto parsed = std::strtoull(value, nullptr, 10);
        if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return fallback;
}

inline bool env_flag(const char* name) {
    const char* value = std::getenv(name);
    return value != nullptr && value[0] != '\0' && value[0] != '0';
}

/// Extract `--json FILE` (or `--json=FILE`) from argv before
/// benchmark::Initialize rejects it as an unknown flag.
inline std::optional<std::string> take_json_flag(int& argc, char** argv) {
    std::optional<std::string> path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return path;
}

namespace detail {
inline double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    return sorted[std::min(rank, sorted.size() - 1)];
}
} // namespace detail

/// Write the collected samples + telemetry totals as a JSON report.
/// Returns false (with a message) if the file cannot be opened.
inline bool write_json_report(const std::string& path, const std::string& bench_name) {
    auto& store = detail::sample_store();
    const std::lock_guard lock(store.mutex);

    // Group samples by label; each group gets latency stats over its runs.
    std::map<std::string, std::vector<const Sample*>> groups;
    for (const auto& sample : store.samples) groups[sample.label].push_back(&sample);

    json::Array queries;
    double total_seconds = 0.0;
    for (const auto& [label, samples] : groups) {
        std::vector<double> sorted;
        sorted.reserve(samples.size());
        double sum = 0.0;
        for (const auto* sample : samples) {
            sorted.push_back(sample->seconds);
            sum += sample->seconds;
        }
        std::sort(sorted.begin(), sorted.end());
        total_seconds += sum;
        json::Object entry;
        entry.emplace("label", label);
        entry.emplace("runs", samples.size());
        entry.emplace("answer", samples.back()->answer);
        json::Object seconds;
        seconds.emplace("min", sorted.front());
        seconds.emplace("mean", sum / static_cast<double>(sorted.size()));
        seconds.emplace("p50", detail::percentile(sorted, 0.50));
        seconds.emplace("p90", detail::percentile(sorted, 0.90));
        seconds.emplace("p99", detail::percentile(sorted, 0.99));
        seconds.emplace("max", sorted.back());
        entry.emplace("seconds", json::Value(std::move(seconds)));
        queries.emplace_back(std::move(entry));
    }

    const auto snap = telemetry::snapshot();
    json::Object counters;
    for (std::size_t i = 0; i < telemetry::k_counter_count; ++i)
        counters.emplace(std::string(telemetry::name_of(static_cast<telemetry::Counter>(i))),
                         snap.counters[i]);
    json::Object gauges;
    for (std::size_t i = 0; i < telemetry::k_gauge_count; ++i)
        gauges.emplace(std::string(telemetry::name_of(static_cast<telemetry::Gauge>(i))),
                       snap.gauges[i]);
    // Histogram summaries in recorded units (durations: nanoseconds), so
    // scripts/bench-ci can carry engine-side percentiles into its
    // normalized report next to the bench-loop timings above.
    json::Object histograms;
    for (std::size_t i = 0; i < telemetry::k_histogram_count; ++i) {
        const auto& data = snap.histograms[i];
        if (data.count == 0) continue;
        json::Object entry;
        entry.emplace("count", data.count);
        entry.emplace("sum", data.sum);
        entry.emplace("p50", data.p50());
        entry.emplace("p90", data.p90());
        entry.emplace("p99", data.p99());
        histograms.emplace(
            std::string(telemetry::name_of(static_cast<telemetry::Histogram>(i))),
            json::Value(std::move(entry)));
    }

    json::Object document;
    document.emplace("schema", "aalwines-bench-1");
    document.emplace("bench", bench_name);
    document.emplace("queries", json::Value(std::move(queries)));
    document.emplace("totalSeconds", total_seconds);
    document.emplace("counters", json::Value(std::move(counters)));
    document.emplace("gauges", json::Value(std::move(gauges)));
    document.emplace("histograms", json::Value(std::move(histograms)));
    document.emplace("peakRssKb", telemetry::peak_rss_kb());

    std::ofstream out(path);
    if (!out) {
        std::cerr << bench_name << ": cannot write '" << path << "'\n";
        return false;
    }
    out << json::write(json::Value(std::move(document)), 2) << "\n";
    std::cerr << "wrote " << path << "\n";
    return true;
}

} // namespace aalwines::bench
