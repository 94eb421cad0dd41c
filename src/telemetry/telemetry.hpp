#pragma once
// Cross-cutting telemetry for the verification pipeline: scoped RAII span
// timers forming a hierarchical trace tree per thread, monotonic counters,
// max-gauges and log2-bucketed latency/size histograms, aggregated by a
// process-global Registry.
//
// Probes are designed for the solver hot path: counters, gauges and
// histogram observations land in a thread-local buffer (one relaxed atomic
// add, no shared cache line, no lock), so `verify_batch` workers never
// contend.  Only opening/closing a span takes a (thread-local, uncontended)
// mutex, and spans fire per pipeline phase, not per worklist item.  The
// Registry merges live and retired thread buffers on demand into a Snapshot
// that serialises to JSON (see docs/OBSERVABILITY.md for the schema);
// histograms additionally export as Prometheus text exposition and feed the
// bucket-interpolated p50/p90/p99 accessors.
//
// Compile-time gated by the CMake option AALWINES_TELEMETRY (default ON),
// which defines AALWINES_TELEMETRY_ENABLED=1/0.  When disabled, every
// probe — count(), gauge_max(), observe(), Span, AALWINES_SPAN — reduces to
// a no-op and snapshots are empty; the API stays source-compatible.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"

#ifndef AALWINES_TELEMETRY_ENABLED
#define AALWINES_TELEMETRY_ENABLED 1
#endif

namespace aalwines::telemetry {

/// Monotonic counters, one per instrumented event class.  Totals are
/// deterministic for a fixed workload regardless of thread count.
enum class Counter : std::uint32_t {
    queries_parsed,         ///< query::parse_query calls
    nfa_states_built,       ///< NFA states constructed (Thompson + product)
    nfa_edges_built,        ///< NFA edges constructed
    pda_states_interned,    ///< PDA control + chain states (translation)
    pda_rules_emitted,      ///< PDA rules emitted by the translation
    pda_rules_total,        ///< rules an eager translation would emit (pre-reduction)
    pda_rules_materialized, ///< rules demand-materialized during lazy saturation
    pda_states_materialized,///< states whose outgoing rules were demanded (lazy)
    reduction_rules_pruned, ///< rules removed by the top-of-stack reduction
    post_star_pops,         ///< post* worklist items finalized
    pre_star_pops,          ///< pre* worklist items finalized
    edge_relaxations,       ///< transition inserts/weight decreases enqueued
    epsilon_relaxations,    ///< ε-transition inserts/decreases enqueued
    accept_decrease_keys,   ///< Dijkstra decrease-keys in find_accepted[_n]
    witness_unroll_steps,   ///< provenance-walk steps during unrolling
    traces_reconstructed,   ///< witnesses successfully mapped to traces
    server_requests,        ///< HTTP requests handled by the verification daemon
    server_rejected,        ///< requests refused by admission control (503)
    server_cache_hits,      ///< compiled-query cache hits (src/server/cache.hpp)
    server_cache_misses,    ///< compiled-query cache misses
    server_cache_evictions, ///< compiled-query cache entries evicted (LRU + invalidation)
    server_patches,         ///< PATCH /networks/{id} deltas applied
    // Re-answers by delta::Session tier: PATCH re-answers and sweep cells.
    delta_tier1_reused,     ///< re-answers reusing the anchor's result
    delta_tier2_resaturations, ///< re-answers re-saturating a rebased translation
    delta_cold_rebuilds,    ///< re-answers verified from a fresh translation
    delta_states_invalidated, ///< control states un-materialized by delta rebasing
    count_,
};
inline constexpr std::size_t k_counter_count = static_cast<std::size_t>(Counter::count_);

/// High-water marks; aggregation keeps the maximum across threads/runs.
enum class Gauge : std::uint32_t {
    transition_high_water, ///< P-automaton transition table size after saturation
    epsilon_high_water,    ///< ε-transition table size after saturation
    worklist_high_water,   ///< peak saturation worklist length
    server_queue_high_water, ///< peak pending-connection queue depth (daemon)
    cache_entries_high_water, ///< peak compiled-query cache residency (entries)
    count_,
};
inline constexpr std::size_t k_gauge_count = static_cast<std::size_t>(Gauge::count_);

/// Latency/size distributions.  Observations drop into fixed log2 buckets
/// (bucket i counts values v with 2^(i-1) <= v < 2^i), so the merge across
/// threads is a plain per-bucket sum: deterministic and thread-count
/// invariant for deterministic observations.  Durations are recorded in
/// nanoseconds; `materialized_rule_pct` records integer percentages.
enum class Histogram : std::uint32_t {
    request_duration,        ///< whole HTTP request handling in the daemon (ns)
    request_queue_wait,      ///< accept -> dequeue wait in the daemon (ns)
    query_duration_dual,     ///< end-to-end verify() wall clock, dual engine (ns)
    query_duration_weighted, ///< ... weighted engine (ns)
    query_duration_moped,    ///< ... moped baseline (ns)
    query_duration_exact,    ///< ... exact engine (ns)
    query_translate,         ///< per phase: translation + reduction + initial automaton (ns)
    query_saturate,          ///< per phase: post* saturation (incl. lazy materialization) (ns)
    query_witness,           ///< per phase: acceptance search + witness unroll (ns)
    cache_lookup,            ///< compiled-query cache probe (ns)
    materialized_rule_pct,   ///< lazy translation: % of eager rules materialized (0-100)
    patch_apply,             ///< PATCH delta application (copy + overlay + rebase) (ns)
    count_,
};
inline constexpr std::size_t k_histogram_count = static_cast<std::size_t>(Histogram::count_);

/// 48 log2 buckets cover [0, 2^46) exactly (= ~19.5h in nanoseconds) with
/// everything above in the overflow bucket; upper bound of bucket i is
/// 2^i - 1 recorded units (the last bucket is +Inf).
inline constexpr std::size_t k_histogram_buckets = 48;

[[nodiscard]] constexpr std::size_t histogram_bucket(std::uint64_t value) {
    const auto width = static_cast<std::size_t>(std::bit_width(value));
    return width < k_histogram_buckets ? width : k_histogram_buckets - 1;
}

/// Inclusive upper bound of bucket `index` in recorded units; the last
/// bucket is unbounded and reported as +Inf by the exposition writers.
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(std::size_t index) {
    return (std::uint64_t{1} << index) - 1;
}

[[nodiscard]] std::string_view name_of(Counter counter);
[[nodiscard]] std::string_view name_of(Gauge gauge);
[[nodiscard]] std::string_view name_of(Histogram histogram);

/// Prometheus exposition metadata for one histogram.  Histograms sharing a
/// `family` differ only in `label` (e.g. the per-engine query durations all
/// expose as `aalwines_query_duration_seconds{engine="..."}`).
struct HistogramInfo {
    std::string_view family; ///< Prometheus metric family name
    std::string_view label;  ///< label pair rendered into every series, may be empty
    double scale = 1.0;      ///< recorded unit -> exposed unit (ns -> s: 1e-9)
    std::string_view help;   ///< one-line HELP text
};

[[nodiscard]] const HistogramInfo& info_of(Histogram histogram);

/// One node of the merged trace tree (times relative to the registry
/// epoch — process start or the last reset()).
struct SpanNode {
    std::string name;
    double start_us = 0.0;
    double duration_us = 0.0;
    bool open = false; ///< still running when the snapshot was taken
    std::vector<SpanNode> children;
};

struct ThreadTrace {
    std::uint32_t thread = 0; ///< registry-assigned dense thread index
    std::vector<SpanNode> roots;
};

/// Merged distribution for one Histogram: per-bucket observation counts
/// plus running count/sum in recorded units.
struct HistogramData {
    std::array<std::uint64_t, k_histogram_buckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /// Bucket-interpolated quantile (q in [0,1]) in recorded units.  Walks
    /// the buckets to the one holding the q-th observation and interpolates
    /// linearly inside it; exact when every observation in the bucket is
    /// uniformly spread, and always within one power of two of the truth.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p90() const { return quantile(0.90); }
    [[nodiscard]] double p99() const { return quantile(0.99); }
};

struct Snapshot {
    std::array<std::uint64_t, k_counter_count> counters{};
    std::array<std::uint64_t, k_gauge_count> gauges{};
    std::array<HistogramData, k_histogram_count> histograms{};
    std::vector<ThreadTrace> threads;

    [[nodiscard]] std::uint64_t counter(Counter c) const {
        return counters[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] std::uint64_t gauge(Gauge g) const {
        return gauges[static_cast<std::size_t>(g)];
    }
    [[nodiscard]] const HistogramData& histogram(Histogram h) const {
        return histograms[static_cast<std::size_t>(h)];
    }
};

namespace detail {

struct SpanRecord {
    const char* name = nullptr; ///< static string (literal) supplied by the probe
    std::int32_t parent = -1;   ///< index into the same buffer; -1 = root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;   ///< 0 = still open
};

/// Per-thread probe sink.  Registered with the Registry on construction,
/// retired into it when the thread exits.
class ThreadBuffer {
public:
    ThreadBuffer();
    ~ThreadBuffer();
    ThreadBuffer(const ThreadBuffer&) = delete;
    ThreadBuffer& operator=(const ThreadBuffer&) = delete;

    // Counters/gauges/histograms: written by the owning thread with relaxed
    // atomics, read by snapshots from any thread.  The cache lines are
    // effectively thread-private, so the adds cost the same as plain
    // increments.
    std::array<std::atomic<std::uint64_t>, k_counter_count> counters{};
    std::array<std::atomic<std::uint64_t>, k_gauge_count> gauges{};

    struct HistogramCell {
        std::array<std::atomic<std::uint64_t>, k_histogram_buckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
    };
    std::array<HistogramCell, k_histogram_count> histograms{};

    // Spans: mutated only by the owning thread, but snapshots copy them
    // cross-thread, so open/close/copy are guarded.  Spans are per phase,
    // not per worklist item, so this mutex is cold and uncontended.
    util::Mutex span_mutex;
    std::vector<SpanRecord> spans GUARDED_BY(span_mutex);
    std::int32_t current GUARDED_BY(span_mutex) = -1; ///< innermost open span, -1 = none
};

#if AALWINES_TELEMETRY_ENABLED
[[nodiscard]] ThreadBuffer& buffer();
#endif
[[nodiscard]] std::uint64_t now_ns();

} // namespace detail

/// Add `n` to a counter (hot-path safe).
inline void count([[maybe_unused]] Counter counter, [[maybe_unused]] std::uint64_t n = 1) {
#if AALWINES_TELEMETRY_ENABLED
    detail::buffer().counters[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
#endif
}

/// Raise a gauge to at least `value` (hot-path safe).
inline void gauge_max([[maybe_unused]] Gauge gauge, [[maybe_unused]] std::uint64_t value) {
#if AALWINES_TELEMETRY_ENABLED
    auto& cell = detail::buffer().gauges[static_cast<std::size_t>(gauge)];
    auto current = cell.load(std::memory_order_relaxed);
    while (value > current &&
           !cell.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
    }
#endif
}

/// Record one observation in recorded units (hot-path safe: three relaxed
/// adds on thread-private cache lines).
inline void observe([[maybe_unused]] Histogram histogram,
                    [[maybe_unused]] std::uint64_t value) {
#if AALWINES_TELEMETRY_ENABLED
    auto& cell = detail::buffer().histograms[static_cast<std::size_t>(histogram)];
    cell.buckets[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.sum.fetch_add(value, std::memory_order_relaxed);
#endif
}

/// Record a duration given in seconds into a nanosecond-unit histogram.
inline void observe_duration([[maybe_unused]] Histogram histogram,
                             [[maybe_unused]] double seconds) {
#if AALWINES_TELEMETRY_ENABLED
    if (seconds < 0) seconds = 0;
    observe(histogram, static_cast<std::uint64_t>(seconds * 1e9));
#endif
}

/// Scoped span timer.  Construction opens a child of the innermost open
/// span on this thread; destruction closes it.  `name` must be a string
/// with static storage duration (a literal).
class Span {
public:
#if AALWINES_TELEMETRY_ENABLED
    explicit Span(const char* name);
    ~Span();
#else
    explicit Span(const char*) noexcept {}
#endif
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
#if AALWINES_TELEMETRY_ENABLED
    std::int32_t _index = -1;
#endif
};

class Registry {
public:
    [[nodiscard]] static Registry& global();

    /// Merge every live and retired thread buffer into one Snapshot.
    /// Counters sum, gauges max, span trees are reported per thread.
    [[nodiscard]] Snapshot snapshot();

    /// Zero all counters/gauges, drop completed spans and retired buffers,
    /// and restart the time epoch.  Spans still open on the calling thread
    /// survive (re-rooted); other threads must not have open spans.
    void reset();

private:
    friend class detail::ThreadBuffer;
    Registry();

    void attach(detail::ThreadBuffer* buffer);
    void detach(detail::ThreadBuffer* buffer);

    struct Retired {
        std::array<std::uint64_t, k_counter_count> counters{};
        std::array<std::uint64_t, k_gauge_count> gauges{};
        std::array<HistogramData, k_histogram_count> histograms{};
        std::vector<detail::SpanRecord> spans;
        std::uint32_t thread_index = 0;
    };
    struct Live {
        detail::ThreadBuffer* buffer = nullptr;
        std::uint32_t thread_index = 0; ///< registry-assigned dense index
    };

    // Lock order: _mutex before any buffer's span_mutex (snapshot/reset/
    // detach all follow it; Span open/close takes only its own span_mutex).
    util::Mutex _mutex;
    std::vector<Live> _live GUARDED_BY(_mutex);
    std::vector<Retired> _retired GUARDED_BY(_mutex);
    std::uint32_t _next_thread_index GUARDED_BY(_mutex) = 0;
    std::uint64_t _epoch_ns GUARDED_BY(_mutex) = 0;
};

/// Shorthands over the global registry.
[[nodiscard]] Snapshot snapshot();
void reset();

/// Serialise a snapshot as the `aalwines-trace-2` JSON document.
[[nodiscard]] std::string to_json(const Snapshot& snap, int indent = 2);

/// Peak resident set size in kB (VmHWM from /proc/self/status; 0 when
/// unavailable on this platform).
[[nodiscard]] std::size_t peak_rss_kb();

} // namespace aalwines::telemetry

#define AALWINES_TELEMETRY_CAT2(a, b) a##b
#define AALWINES_TELEMETRY_CAT(a, b) AALWINES_TELEMETRY_CAT2(a, b)
#if AALWINES_TELEMETRY_ENABLED
/// Open a span for the rest of the enclosing scope.
#define AALWINES_SPAN(name) \
    ::aalwines::telemetry::Span AALWINES_TELEMETRY_CAT(aalwines_span_, __LINE__)(name)
#else
#define AALWINES_SPAN(name) static_cast<void>(0)
#endif
