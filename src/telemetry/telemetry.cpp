#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "json/json.hpp"

namespace aalwines::telemetry {

std::string_view name_of(Counter counter) {
    switch (counter) {
        case Counter::queries_parsed: return "queries_parsed";
        case Counter::nfa_states_built: return "nfa_states_built";
        case Counter::nfa_edges_built: return "nfa_edges_built";
        case Counter::pda_states_interned: return "pda_states_interned";
        case Counter::pda_rules_emitted: return "pda_rules_emitted";
        case Counter::pda_rules_total: return "pda_rules_total";
        case Counter::pda_rules_materialized: return "pda_rules_materialized";
        case Counter::pda_states_materialized: return "pda_states_materialized";
        case Counter::reduction_rules_pruned: return "reduction_rules_pruned";
        case Counter::post_star_pops: return "post_star_pops";
        case Counter::pre_star_pops: return "pre_star_pops";
        case Counter::edge_relaxations: return "edge_relaxations";
        case Counter::epsilon_relaxations: return "epsilon_relaxations";
        case Counter::accept_decrease_keys: return "accept_decrease_keys";
        case Counter::witness_unroll_steps: return "witness_unroll_steps";
        case Counter::traces_reconstructed: return "traces_reconstructed";
        case Counter::server_requests: return "server_requests";
        case Counter::server_rejected: return "server_rejected";
        case Counter::server_cache_hits: return "server_cache_hits";
        case Counter::server_cache_misses: return "server_cache_misses";
        case Counter::server_cache_evictions: return "server_cache_evictions";
        case Counter::server_patches: return "server_patches";
        case Counter::delta_tier1_reused: return "delta_tier1_reused";
        case Counter::delta_tier2_resaturations: return "delta_tier2_resaturations";
        case Counter::delta_cold_rebuilds: return "delta_cold_rebuilds";
        case Counter::delta_states_invalidated: return "delta_states_invalidated";
        case Counter::count_: break;
    }
    return "?";
}

std::string_view name_of(Gauge gauge) {
    switch (gauge) {
        case Gauge::transition_high_water: return "transition_high_water";
        case Gauge::epsilon_high_water: return "epsilon_high_water";
        case Gauge::worklist_high_water: return "worklist_high_water";
        case Gauge::server_queue_high_water: return "server_queue_high_water";
        case Gauge::cache_entries_high_water: return "cache_entries_high_water";
        case Gauge::count_: break;
    }
    return "?";
}

std::string_view name_of(Histogram histogram) {
    switch (histogram) {
        case Histogram::request_duration: return "request_duration";
        case Histogram::request_queue_wait: return "request_queue_wait";
        case Histogram::query_duration_dual: return "query_duration_dual";
        case Histogram::query_duration_weighted: return "query_duration_weighted";
        case Histogram::query_duration_moped: return "query_duration_moped";
        case Histogram::query_duration_exact: return "query_duration_exact";
        case Histogram::query_translate: return "query_translate";
        case Histogram::query_saturate: return "query_saturate";
        case Histogram::query_witness: return "query_witness";
        case Histogram::cache_lookup: return "cache_lookup";
        case Histogram::materialized_rule_pct: return "materialized_rule_pct";
        case Histogram::patch_apply: return "patch_apply";
        case Histogram::count_: break;
    }
    return "?";
}

const HistogramInfo& info_of(Histogram histogram) {
    static constexpr double k_ns = 1e-9;   // recorded nanoseconds -> seconds
    static constexpr double k_pct = 1e-2;  // recorded percent -> ratio
    static const std::array<HistogramInfo, k_histogram_count> infos = {{
        {"aalwines_request_duration_seconds", "",
         k_ns, "Wall-clock time spent handling one HTTP request in the daemon."},
        {"aalwines_request_queue_wait_seconds", "",
         k_ns, "Time a request waited in the accept queue before a worker picked it up."},
        {"aalwines_query_duration_seconds", "engine=\"dual\"",
         k_ns, "End-to-end verify() wall clock per query, by engine."},
        {"aalwines_query_duration_seconds", "engine=\"weighted\"",
         k_ns, "End-to-end verify() wall clock per query, by engine."},
        {"aalwines_query_duration_seconds", "engine=\"moped\"",
         k_ns, "End-to-end verify() wall clock per query, by engine."},
        {"aalwines_query_duration_seconds", "engine=\"exact\"",
         k_ns, "End-to-end verify() wall clock per query, by engine."},
        {"aalwines_query_phase_seconds", "phase=\"translate\"",
         k_ns, "Per-pass pipeline phase wall clock."},
        {"aalwines_query_phase_seconds", "phase=\"saturate\"",
         k_ns, "Per-pass pipeline phase wall clock."},
        {"aalwines_query_phase_seconds", "phase=\"witness\"",
         k_ns, "Per-pass pipeline phase wall clock."},
        {"aalwines_cache_lookup_seconds", "",
         k_ns, "Answer-store probe latency."},
        {"aalwines_materialized_rule_ratio", "",
         k_pct, "Fraction of eager-translation rules materialized by lazy saturation."},
        {"aalwines_patch_apply_seconds", "",
         k_ns, "PATCH delta application latency (network copy + overlay + rebase)."},
    }};
    return infos[static_cast<std::size_t>(histogram)];
}

double HistogramData::quantile(double q) const {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target observation, 1-based, ceil so that q=1 is the max.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < k_histogram_buckets; ++i) {
        if (buckets[i] == 0) continue;
        if (seen + buckets[i] < target) {
            seen += buckets[i];
            continue;
        }
        // Interpolate linearly inside bucket i: values lie in
        // [2^(i-1), 2^i - 1] (bucket 0 holds exactly the value 0).
        if (i == 0) return 0.0;
        const auto lower = static_cast<double>(std::uint64_t{1} << (i - 1));
        const auto upper = static_cast<double>(histogram_bucket_upper(i));
        const auto into = static_cast<double>(target - seen - 1);
        const auto width = static_cast<double>(buckets[i]);
        return lower + (upper - lower) * (width > 1.0 ? into / (width - 1.0) : 0.5);
    }
    return static_cast<double>(histogram_bucket_upper(k_histogram_buckets - 1));
}

namespace detail {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

ThreadBuffer::ThreadBuffer() { Registry::global().attach(this); }

ThreadBuffer::~ThreadBuffer() { Registry::global().detach(this); }

ThreadBuffer& buffer() {
    thread_local ThreadBuffer instance;
    return instance;
}

} // namespace detail

namespace {

std::atomic<bool> g_record_spans{false};

} // namespace

void record_spans(bool on) { g_record_spans.store(on, std::memory_order_relaxed); }

Span::Span(const char* name) {
    if (!g_record_spans.load(std::memory_order_relaxed)) return;
    auto& buf = detail::buffer();
    const util::MutexLock lock(buf.span_mutex);
    _index = static_cast<std::int32_t>(buf.spans.size());
    buf.spans.push_back({name, buf.current, detail::now_ns(), 0});
    buf.current = _index;
}

Span::~Span() {
    if (_index < 0) return; // opened while recording was off
    auto& buf = detail::buffer();
    const util::MutexLock lock(buf.span_mutex);
    buf.spans[static_cast<std::size_t>(_index)].end_ns = detail::now_ns();
    buf.current = buf.spans[static_cast<std::size_t>(_index)].parent;
}

Registry::Registry() : _epoch_ns(detail::now_ns()) {}

Registry& Registry::global() {
    static Registry instance;
    return instance;
}

void Registry::attach(detail::ThreadBuffer* buffer) {
    const util::MutexLock lock(_mutex);
    _live.push_back({buffer, _next_thread_index++});
}

void Registry::detach(detail::ThreadBuffer* buffer) {
    const util::MutexLock lock(_mutex);
    Retired retired;
    for (auto it = _live.begin(); it != _live.end(); ++it) {
        if (it->buffer != buffer) continue;
        retired.thread_index = it->thread_index;
        _live.erase(it);
        break;
    }
    for (std::size_t i = 0; i < k_counter_count; ++i)
        retired.counters[i] = buffer->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < k_gauge_count; ++i)
        retired.gauges[i] = buffer->gauges[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < k_histogram_count; ++i) {
        auto& cell = buffer->histograms[i];
        auto& data = retired.histograms[i];
        for (std::size_t b = 0; b < k_histogram_buckets; ++b)
            data.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
        data.count = cell.count.load(std::memory_order_relaxed);
        data.sum = cell.sum.load(std::memory_order_relaxed);
    }
    {
        // The owning thread is the only span writer and it is in this very
        // destructor, but the contract is per-field, not per-schedule.
        const util::MutexLock span_lock(buffer->span_mutex);
        retired.spans = std::move(buffer->spans);
    }
    _retired.push_back(std::move(retired));
}

namespace {

/// Assemble the nested SpanNode tree from the flat record list (records
/// are appended in open order, so parents precede their children).
std::vector<SpanNode> build_tree(const std::vector<detail::SpanRecord>& records,
                                 std::uint64_t epoch_ns, std::uint64_t now_ns) {
    std::vector<std::vector<std::size_t>> children(records.size());
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].parent < 0)
            roots.push_back(i);
        else
            children[static_cast<std::size_t>(records[i].parent)].push_back(i);
    }
    auto make_node = [&](const auto& self, std::size_t index) -> SpanNode {
        const auto& record = records[index];
        SpanNode node;
        node.name = record.name != nullptr ? record.name : "?";
        const auto start = std::max(record.start_ns, epoch_ns);
        const auto end = record.end_ns != 0 ? record.end_ns : now_ns;
        node.open = record.end_ns == 0;
        node.start_us = static_cast<double>(start - epoch_ns) / 1000.0;
        node.duration_us = end > start ? static_cast<double>(end - start) / 1000.0 : 0.0;
        for (const auto child : children[index]) node.children.push_back(self(self, child));
        return node;
    };
    std::vector<SpanNode> result;
    result.reserve(roots.size());
    for (const auto root : roots) result.push_back(make_node(make_node, root));
    return result;
}

} // namespace

Snapshot Registry::snapshot() {
    const util::MutexLock lock(_mutex);
    const auto now = detail::now_ns();
    Snapshot snap;
    std::vector<std::pair<std::uint32_t, std::vector<detail::SpanRecord>>> span_sets;

    for (const auto& retired : _retired) {
        for (std::size_t i = 0; i < k_counter_count; ++i) snap.counters[i] += retired.counters[i];
        for (std::size_t i = 0; i < k_gauge_count; ++i)
            snap.gauges[i] = std::max(snap.gauges[i], retired.gauges[i]);
        for (std::size_t i = 0; i < k_histogram_count; ++i) {
            auto& into = snap.histograms[i];
            const auto& from = retired.histograms[i];
            for (std::size_t b = 0; b < k_histogram_buckets; ++b)
                into.buckets[b] += from.buckets[b];
            into.count += from.count;
            into.sum += from.sum;
        }
        if (!retired.spans.empty()) span_sets.emplace_back(retired.thread_index, retired.spans);
    }
    for (const auto& entry : _live) {
        auto* live = entry.buffer;
        for (std::size_t i = 0; i < k_counter_count; ++i)
            snap.counters[i] += live->counters[i].load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < k_gauge_count; ++i)
            snap.gauges[i] =
                std::max(snap.gauges[i], live->gauges[i].load(std::memory_order_relaxed));
        for (std::size_t i = 0; i < k_histogram_count; ++i) {
            auto& into = snap.histograms[i];
            auto& cell = live->histograms[i];
            for (std::size_t b = 0; b < k_histogram_buckets; ++b)
                into.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
            into.count += cell.count.load(std::memory_order_relaxed);
            into.sum += cell.sum.load(std::memory_order_relaxed);
        }
        const util::MutexLock span_lock(live->span_mutex);
        if (!live->spans.empty()) span_sets.emplace_back(entry.thread_index, live->spans);
    }

    std::sort(span_sets.begin(), span_sets.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [thread_index, records] : span_sets) {
        ThreadTrace trace;
        trace.thread = thread_index;
        trace.roots = build_tree(records, _epoch_ns, now);
        snap.threads.push_back(std::move(trace));
    }
    return snap;
}

void Registry::reset() {
    const util::MutexLock lock(_mutex);
    _retired.clear();
    _epoch_ns = detail::now_ns();
    for (const auto& entry : _live) {
        auto* live = entry.buffer;
        for (auto& counter : live->counters) counter.store(0, std::memory_order_relaxed);
        for (auto& gauge : live->gauges) gauge.store(0, std::memory_order_relaxed);
        for (auto& cell : live->histograms) {
            for (auto& bucket : cell.buckets) bucket.store(0, std::memory_order_relaxed);
            cell.count.store(0, std::memory_order_relaxed);
            cell.sum.store(0, std::memory_order_relaxed);
        }
        const util::MutexLock span_lock(live->span_mutex);
        // Keep the chain of still-open spans (the caller may hold Span
        // objects across the reset); everything completed is dropped.
        std::vector<detail::SpanRecord> kept;
        for (auto cursor = live->current; cursor >= 0;
             cursor = live->spans[static_cast<std::size_t>(cursor)].parent)
            kept.push_back(live->spans[static_cast<std::size_t>(cursor)]);
        std::reverse(kept.begin(), kept.end());
        for (std::size_t i = 0; i < kept.size(); ++i)
            kept[i].parent = static_cast<std::int32_t>(i) - 1;
        live->spans = std::move(kept);
        live->current = static_cast<std::int32_t>(live->spans.size()) - 1;
    }
}

Snapshot snapshot() { return Registry::global().snapshot(); }

void reset() { Registry::global().reset(); }

namespace {

/// Histogram in recorded units: count/sum/quantiles plus the non-empty
/// buckets as [inclusive_upper_bound, observations] pairs.
json::Value histogram_to_json(const HistogramData& data) {
    json::Object object;
    object.emplace("count", data.count);
    object.emplace("sum", data.sum);
    object.emplace("p50", data.p50());
    object.emplace("p90", data.p90());
    object.emplace("p99", data.p99());
    json::Array buckets;
    for (std::size_t b = 0; b < k_histogram_buckets; ++b) {
        if (data.buckets[b] == 0) continue;
        json::Array pair;
        pair.emplace_back(histogram_bucket_upper(b));
        pair.emplace_back(data.buckets[b]);
        buckets.emplace_back(std::move(pair));
    }
    object.emplace("buckets", json::Value(std::move(buckets)));
    return json::Value(std::move(object));
}

} // namespace

std::string to_json(const Snapshot& snap, int indent) {
    json::Object counters;
    for (std::size_t i = 0; i < k_counter_count; ++i)
        counters.emplace(std::string(name_of(static_cast<Counter>(i))), snap.counters[i]);
    json::Object gauges;
    for (std::size_t i = 0; i < k_gauge_count; ++i)
        gauges.emplace(std::string(name_of(static_cast<Gauge>(i))), snap.gauges[i]);
    json::Object histograms;
    for (std::size_t i = 0; i < k_histogram_count; ++i) {
        if (snap.histograms[i].count == 0) continue; // only observed histograms
        histograms.emplace(std::string(name_of(static_cast<Histogram>(i))),
                           histogram_to_json(snap.histograms[i]));
    }

    auto span_to_json = [](const auto& self, const SpanNode& node) -> json::Value {
        json::Object object;
        object.emplace("name", node.name);
        object.emplace("start_us", node.start_us);
        object.emplace("duration_us", node.duration_us);
        if (node.open) object.emplace("open", true);
        json::Array children;
        for (const auto& child : node.children) children.push_back(self(self, child));
        object.emplace("children", json::Value(std::move(children)));
        return json::Value(std::move(object));
    };

    json::Array threads;
    for (const auto& trace : snap.threads) {
        json::Object entry;
        entry.emplace("thread", static_cast<std::size_t>(trace.thread));
        json::Array spans;
        for (const auto& root : trace.roots) spans.push_back(span_to_json(span_to_json, root));
        entry.emplace("spans", json::Value(std::move(spans)));
        threads.emplace_back(std::move(entry));
    }

    json::Object document;
    document.emplace("schema", "aalwines-trace-2");
    document.emplace("counters", json::Value(std::move(counters)));
    document.emplace("gauges", json::Value(std::move(gauges)));
    document.emplace("histograms", json::Value(std::move(histograms)));
    document.emplace("threads", json::Value(std::move(threads)));
    return json::write(json::Value(std::move(document)), indent);
}

std::size_t peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    if (!status) return 0;
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream fields(line.substr(6));
        std::size_t kb = 0;
        fields >> kb;
        return kb;
    }
    return 0;
}

} // namespace aalwines::telemetry
