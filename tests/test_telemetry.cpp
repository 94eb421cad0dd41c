// Telemetry subsystem: span nesting, counter/histogram aggregation across
// verify_batch worker threads, the trace-JSON schema round trip, and the
// Prometheus / Chrome-trace exposition formats.

#include <gtest/gtest.h>

#include <thread>

#include "json/json.hpp"
#include "synthesis/networks.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/batch.hpp"
#include "verify/translation.hpp"

namespace {

using namespace aalwines;

const std::vector<std::string> k_queries = {
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
    "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
    "<ip> .* <ip> 0",
};

TEST(Telemetry, SpanNestingAndOrdering) {
    telemetry::reset();
    {
        AALWINES_SPAN("outer");
        { AALWINES_SPAN("inner_first"); }
        { AALWINES_SPAN("inner_second"); }
    }
    const auto snap = telemetry::snapshot();

    const telemetry::SpanNode* outer = nullptr;
    for (const auto& thread : snap.threads)
        for (const auto& root : thread.roots)
            if (root.name == "outer") outer = &root;
    ASSERT_NE(outer, nullptr);
    EXPECT_FALSE(outer->open);
    ASSERT_EQ(outer->children.size(), 2u);
    EXPECT_EQ(outer->children[0].name, "inner_first");
    EXPECT_EQ(outer->children[1].name, "inner_second");
    // Children opened in order, and nested inside the parent's interval.
    EXPECT_LE(outer->children[0].start_us, outer->children[1].start_us);
    for (const auto& child : outer->children) {
        EXPECT_GE(child.start_us, outer->start_us);
        EXPECT_LE(child.start_us + child.duration_us,
                  outer->start_us + outer->duration_us + 1.0 /* µs rounding */);
    }
}

TEST(Telemetry, OpenSpanSurvivesResetAndIsMarkedOpen) {
    telemetry::reset();
    AALWINES_SPAN("held_open");
    telemetry::reset(); // must keep the open chain, re-rooted
    const auto snap = telemetry::snapshot();
    bool found = false;
    for (const auto& thread : snap.threads)
        for (const auto& root : thread.roots)
            if (root.name == "held_open") {
                found = true;
                EXPECT_TRUE(root.open);
            }
    EXPECT_TRUE(found);
}

TEST(Telemetry, PipelineCountersFire) {
    telemetry::reset();
    const auto network = synthesis::make_figure1_network();
    const auto batch = verify::verify_batch(network, k_queries, {}, 1);
    for (const auto& item : batch) EXPECT_TRUE(item.error.empty()) << item.error;

    const auto snap = telemetry::snapshot();
    using C = telemetry::Counter;
    EXPECT_EQ(snap.counter(C::queries_parsed), k_queries.size());
    EXPECT_GT(snap.counter(C::nfa_states_built), 0u);
    // The default (lazy) pipeline materializes rules on demand.
    EXPECT_GT(snap.counter(C::pda_rules_total), 0u);
    EXPECT_GT(snap.counter(C::pda_rules_materialized), 0u);
    EXPECT_GT(snap.counter(C::pda_states_materialized), 0u);
    EXPECT_LE(snap.counter(C::pda_rules_materialized), snap.counter(C::pda_rules_total));
    EXPECT_EQ(snap.counter(C::pda_rules_emitted), 0u);
    EXPECT_EQ(snap.counter(C::reduction_rules_pruned), 0u);
    EXPECT_GT(snap.counter(C::post_star_pops), 0u);
    EXPECT_GT(snap.counter(C::edge_relaxations), 0u);
    EXPECT_GT(snap.counter(C::accept_decrease_keys), 0u);
    EXPECT_GT(snap.counter(C::traces_reconstructed), 0u);
    EXPECT_GT(snap.gauge(telemetry::Gauge::transition_high_water), 0u);
    EXPECT_GT(snap.gauge(telemetry::Gauge::worklist_high_water), 0u);

    // The eager reference build still fires the emission and reduction
    // counters.
    telemetry::reset();
    for (const auto& text : k_queries) {
        const auto query = query::parse_query(text, network);
        verify::TranslationCache eager(network, query, nullptr, /*lazy=*/false);
        (void)verify::verify(network, query, {}, eager);
    }
    const auto eager_snap = telemetry::snapshot();
    EXPECT_GT(eager_snap.counter(C::pda_rules_emitted), 0u);
    EXPECT_GT(eager_snap.counter(C::reduction_rules_pruned), 0u);
    EXPECT_EQ(eager_snap.counter(C::pda_rules_materialized), 0u);
}

TEST(Telemetry, CounterTotalsAreThreadCountInvariant) {
    const auto network = synthesis::make_figure1_network();

    telemetry::reset();
    (void)verify::verify_batch(network, k_queries, {}, 1);
    const auto serial = telemetry::snapshot();

    telemetry::reset();
    (void)verify::verify_batch(network, k_queries, {}, 4);
    const auto parallel = telemetry::snapshot();

    // Queries are verified independently and probes batch per run, so the
    // totals must not depend on how queries were spread over workers.
    for (std::size_t i = 0; i < telemetry::k_counter_count; ++i)
        EXPECT_EQ(serial.counters[i], parallel.counters[i])
            << telemetry::name_of(static_cast<telemetry::Counter>(i));
    for (std::size_t i = 0; i < telemetry::k_gauge_count; ++i)
        EXPECT_EQ(serial.gauges[i], parallel.gauges[i])
            << telemetry::name_of(static_cast<telemetry::Gauge>(i));
    // Histogram merge is pure bucket addition, so observation COUNTS are
    // thread-count invariant too.  Timing histograms place observations in
    // value-dependent buckets, so only the deterministic materialized-rule
    // ratio histogram must match bucket-for-bucket (byte-identical).
    for (std::size_t i = 0; i < telemetry::k_histogram_count; ++i)
        EXPECT_EQ(serial.histograms[i].count, parallel.histograms[i].count)
            << telemetry::name_of(static_cast<telemetry::Histogram>(i));
    const auto& serial_pct =
        serial.histogram(telemetry::Histogram::materialized_rule_pct);
    const auto& parallel_pct =
        parallel.histogram(telemetry::Histogram::materialized_rule_pct);
    EXPECT_GT(serial_pct.count, 0u);
    EXPECT_EQ(serial_pct.sum, parallel_pct.sum);
    EXPECT_EQ(serial_pct.buckets, parallel_pct.buckets);
}

TEST(Telemetry, HistogramBucketBoundaries) {
    using telemetry::histogram_bucket;
    using telemetry::histogram_bucket_upper;
    EXPECT_EQ(histogram_bucket(0), 0u);
    EXPECT_EQ(histogram_bucket(1), 1u);
    EXPECT_EQ(histogram_bucket(2), 2u);
    EXPECT_EQ(histogram_bucket(3), 2u);
    EXPECT_EQ(histogram_bucket(4), 3u);
    EXPECT_EQ(histogram_bucket_upper(0), 0u);
    EXPECT_EQ(histogram_bucket_upper(10), 1023u);
    // Everything at or past 2^46 lands in the overflow (+Inf) bucket.
    EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 60),
              telemetry::k_histogram_buckets - 1);
    // Every value maps inside its bucket's range.
    for (std::uint64_t v : {0ull, 1ull, 7ull, 100ull, 12345ull, (1ull << 40) + 17}) {
        const auto b = histogram_bucket(v);
        EXPECT_LE(v, histogram_bucket_upper(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, histogram_bucket_upper(b - 1)) << v;
        }
    }
}

TEST(Telemetry, HistogramQuantileInterpolation) {
    telemetry::HistogramData data{};
    EXPECT_EQ(data.quantile(0.5), 0.0); // empty: no observations

    // All observations exactly zero: every quantile is zero.
    data.buckets[0] = 10;
    data.count = 10;
    EXPECT_EQ(data.p50(), 0.0);
    EXPECT_EQ(data.p99(), 0.0);

    // Ten observations of ~100 (bucket [64, 127]): quantiles interpolate
    // inside the bucket and never leave it.
    data = {};
    data.buckets[telemetry::histogram_bucket(100)] = 10;
    data.count = 10;
    data.sum = 1000;
    for (const double q : {0.5, 0.9, 0.99}) {
        EXPECT_GE(data.quantile(q), 64.0) << q;
        EXPECT_LE(data.quantile(q), 127.0) << q;
    }
    EXPECT_LE(data.p50(), data.p90());
    EXPECT_LE(data.p90(), data.p99());

    // Bimodal: half at ~2, half at ~1000 — p50 in the low bucket, p99 high.
    data = {};
    data.buckets[telemetry::histogram_bucket(2)] = 50;
    data.buckets[telemetry::histogram_bucket(1000)] = 50;
    data.count = 100;
    EXPECT_LE(data.p50(), 3.0);
    EXPECT_GE(data.p99(), 512.0);
}

TEST(Telemetry, HistogramMergeIsByteIdenticalAcrossThreadCounts) {
    constexpr auto k_hist = telemetry::Histogram::materialized_rule_pct;
    // 256 deterministic observations, recorded once on one thread and once
    // spread over 8 threads: the merged snapshot must be byte-identical.
    const auto value_at = [](std::size_t i) {
        return static_cast<std::uint64_t>((i * 37 + 11) % 101);
    };

    telemetry::reset();
    for (std::size_t i = 0; i < 256; ++i) telemetry::observe(k_hist, value_at(i));
    const auto single = telemetry::snapshot();

    telemetry::reset();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < 256; i += 8)
                telemetry::observe(k_hist, value_at(i));
        });
    for (auto& thread : threads) thread.join();
    const auto merged = telemetry::snapshot();

    const auto& a = single.histogram(k_hist);
    const auto& b = merged.histogram(k_hist);
    EXPECT_EQ(a.count, 256u);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.buckets, b.buckets);
    // And hence identical serializations, quantiles included.
    EXPECT_EQ(telemetry::to_json(single, 0), telemetry::to_json(merged, 0));
}

TEST(Telemetry, PrometheusExposition) {
    telemetry::reset();
    // 1000ns request -> bucket [512, 1023], le boundary 1023 * 1e-9.
    telemetry::observe(telemetry::Histogram::request_duration, 1000);
    telemetry::observe(telemetry::Histogram::query_duration_dual, 5);
    telemetry::count(telemetry::Counter::queries_parsed);
    const auto snap = telemetry::snapshot();

    const auto text = telemetry::to_prometheus(
        snap, {{"aalwines_test_extra_gauge", "An injected gauge.", 7.0}});

    const auto has = [&](std::string_view needle) {
        return text.find(needle) != std::string::npos;
    };
    EXPECT_TRUE(has("# TYPE aalwines_queries_parsed_total counter"));
    EXPECT_TRUE(has("aalwines_queries_parsed_total 1\n"));
    EXPECT_TRUE(has("aalwines_test_extra_gauge 7\n"));
    EXPECT_TRUE(has("# TYPE aalwines_process_peak_rss_kilobytes gauge"));
    EXPECT_TRUE(has("# TYPE aalwines_request_duration_seconds histogram"));
    EXPECT_TRUE(has("aalwines_request_duration_seconds_bucket{le=\"1.023e-06\"} 1\n"));
    EXPECT_TRUE(has("aalwines_request_duration_seconds_bucket{le=\"+Inf\"} 1\n"));
    EXPECT_TRUE(has("aalwines_request_duration_seconds_sum 1e-06\n"));
    EXPECT_TRUE(has("aalwines_request_duration_seconds_count 1\n"));
    // Per-engine variants share one family: HELP/TYPE once, labelled series.
    EXPECT_TRUE(has("aalwines_query_duration_seconds_bucket{engine=\"dual\",le=\"+Inf\"} 1\n"));
    EXPECT_TRUE(has("aalwines_query_duration_seconds_count{engine=\"moped\"} 0\n"));
    std::size_t type_lines = 0;
    for (std::size_t pos = 0;
         (pos = text.find("# TYPE aalwines_query_duration_seconds histogram", pos)) !=
         std::string::npos;
         ++pos)
        ++type_lines;
    EXPECT_EQ(type_lines, 1u);

    // Buckets are cumulative: the +Inf bucket equals the _count series.
    EXPECT_TRUE(has("aalwines_query_duration_seconds_count{engine=\"dual\"} 1\n"));
}

TEST(Telemetry, ChromeTraceExport) {
    telemetry::reset();
    const auto network = synthesis::make_figure1_network();
    (void)verify::verify_batch(network, {k_queries.front()}, {}, 1);

    const auto document = json::parse(telemetry::to_chrome_trace(telemetry::snapshot()));
    EXPECT_EQ(document.at("displayTimeUnit").as_string(), "ms");
    const auto& events = document.at("traceEvents").as_array();
    ASSERT_FALSE(events.empty());
    for (const auto& event : events) {
        EXPECT_EQ(event.at("ph").as_string(), "X");
        EXPECT_FALSE(event.at("name").as_string().empty());
        EXPECT_GE(event.at("dur").as_double(), 0.0);
        EXPECT_TRUE(event.find("ts") != nullptr);
        EXPECT_TRUE(event.find("pid") != nullptr);
        EXPECT_TRUE(event.find("tid") != nullptr);
    }
}

TEST(Telemetry, TraceJsonRoundTrip) {
    telemetry::reset();
    const auto network = synthesis::make_figure1_network();
    (void)verify::verify_batch(network, {k_queries.front()}, {}, 1);

    const auto snap = telemetry::snapshot();
    const auto document = json::parse(telemetry::to_json(snap, 2));

    EXPECT_EQ(document.at("schema").as_string(), "aalwines-trace-2");
    const auto& counters = document.at("counters").as_object();
    ASSERT_EQ(counters.size(), telemetry::k_counter_count);
    for (std::size_t i = 0; i < telemetry::k_counter_count; ++i) {
        const auto name =
            std::string(telemetry::name_of(static_cast<telemetry::Counter>(i)));
        ASSERT_TRUE(counters.contains(name)) << name;
        EXPECT_EQ(static_cast<std::uint64_t>(counters.at(name).as_int()),
                  snap.counters[i])
            << name;
    }
    const auto& gauges = document.at("gauges").as_object();
    ASSERT_EQ(gauges.size(), telemetry::k_gauge_count);
    // trace-2: histogram summaries ride along (only non-empty ones).
    const auto& histograms = document.at("histograms").as_object();
    for (const auto& [name, entry] : histograms) {
        EXPECT_GT(entry.at("count").as_int(), 0) << name;
        EXPECT_TRUE(entry.at("buckets").is_array()) << name;
    }
    EXPECT_TRUE(histograms.contains("query_duration_dual"));
    ASSERT_TRUE(document.at("threads").is_array());
    ASSERT_FALSE(document.at("threads").as_array().empty());
    const auto& first_thread = document.at("threads").as_array().front().as_object();
    ASSERT_TRUE(first_thread.contains("spans"));
    const auto& spans = first_thread.at("spans").as_array();
    ASSERT_FALSE(spans.empty());
    const auto& span = spans.front().as_object();
    EXPECT_TRUE(span.contains("name"));
    EXPECT_TRUE(span.contains("start_us"));
    EXPECT_TRUE(span.contains("duration_us"));
    EXPECT_TRUE(span.contains("children"));
}

TEST(Telemetry, PeakRssIsReported) {
    // /proc is available on every platform the test suite targets; if the
    // file is missing the helper degrades to 0 rather than failing.
    EXPECT_GT(telemetry::peak_rss_kb(), 0u);
}

} // namespace
