#pragma once
// Shared machinery of the repository benchmark: command line, timing and
// percentiles, the in-memory span recorder behind the traced run, the host
// calibration loop, a blocking loopback HTTP client, the synthesized
// NORDUnet-like fixture and the canonical answer form every oracle compares.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "server/server.hpp"
#include "server/service.hpp"
#include "synthesis/networks.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point begin, Clock::time_point end) {
    return std::chrono::duration<double, std::milli>(end - begin).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point begin) {
    return ms_between(begin, Clock::now());
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /// "paper" (the measured configuration) or "tiny" (the self-test).
    std::string scale = "paper";
    /// Chrome trace-event output of the traced run ("" = not written).
    std::string trace_file;
    /// Print the per-query answers instead of metrics (pinning helper).
    bool dump_answers = false;

    [[nodiscard]] bool tiny() const { return scale == "tiny"; }
};

/// One metric of the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What a workload run reports: the result line's four keys.
struct Result {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Record one oracle violation (printed to stderr, counted as failed).
    void fail(const std::string& what);
};

/// The end-to-end metrics every workload reports the same way: median
/// set-up time, peak RSS, success rate (1 - failed / attempted) and
/// conclusive rate.  Also prints the host calibration at the start and end
/// of the run beside them.
void add_common_metrics(Result& out, const std::vector<double>& setup_ms,
                        std::size_t inconclusive, std::size_t answers, double calib_start_ms);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Median wall time (ms) of a fixed integer loop that touches no repository
/// code: a drift detector printed beside every run.
[[nodiscard]] double calibrate_host_ms();

[[nodiscard]] double peak_rss_mb();

/// Worker threads / client connections: min(4, nproc).
[[nodiscard]] std::size_t parallelism();

/// In-memory span recorder for the traced run.  Spans are recorded from the
/// benchmark's own code around each public layer call: name, start, end,
/// parent (the innermost open span of the same thread) and the id of the
/// operation (query, request, step) they belong to.  Written at the end in
/// Chrome trace-event form.
class Tracer {
public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// RAII span; a null tracer records nothing.  close() ends the span early
    /// and returns its duration in ms, which the layer metrics are built from.
    class Span {
    public:
        Span(Tracer* tracer, const char* name, std::uint64_t op);
        ~Span() { close(); }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;
        double close();

    private:
        Tracer* _tracer;
        std::size_t _index = 0;
        Clock::time_point _start;
        double _ms = -1;
    };

    /// Write {"traceEvents": [...]} ("ph":"X", µs, tid = recording thread).
    bool write_chrome(const std::string& path) const;

private:
    struct Record {
        const char* name = nullptr;
        std::uint64_t op = 0;
        std::int64_t parent = -1;
        std::uint32_t thread = 0;
        double start_us = 0;
        double end_us = -1;
    };
    Clock::time_point _epoch;
    mutable std::mutex _mutex;
    std::vector<Record> _records;
};

/// One blocking HTTP/1.1 exchange with 127.0.0.1:port (the daemon closes
/// every connection after one response).  status 0 = transport failure.
struct HttpReply {
    int status = 0;
    std::string body;
};
[[nodiscard]] HttpReply http_request(std::uint16_t port, const std::string& method,
                                     const std::string& target, const std::string& body);

/// The NORDUnet-like network (fixed generator seed) plus its topo/route XML.
struct Fixture {
    aalwines::synthesis::SyntheticNetwork net;
    std::string topology_xml;
    std::string routing_xml;
};
[[nodiscard]] Fixture make_fixture(std::size_t service_chains);

/// An in-process `aalwines serve` daemon on an ephemeral loopback port:
/// default ServiceConfig, parallelism() workers.  Stopped and joined on
/// destruction.
class Daemon {
public:
    Daemon();
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] std::uint16_t port() const { return _server.port(); }

private:
    aalwines::server::Service _service;
    aalwines::server::Server _server;
};

/// `POST /networks` with the fixture's XML pair, through `port` (or through
/// `service` directly when port is 0); returns the workspace id.  Throws
/// when the daemon refuses the network.
[[nodiscard]] std::string load_network(std::uint16_t port, aalwines::server::Service* service,
                                       const Fixture& fixture);

/// A request handled by Service::handle directly, as the socket layer would.
[[nodiscard]] HttpReply handle_direct(aalwines::server::Service& service,
                                      const std::string& method, const std::string& target,
                                      const std::string& body);

/// Byte-identity form of an answer: the CLI's result JSON without stats and
/// with the wall-clock field removed.
[[nodiscard]] std::string canonical_result(const aalwines::Network& network,
                                           const std::string& query_text,
                                           const aalwines::verify::VerifyResult& result);
/// The same form of a daemon reply body (drops seconds, cached and path).
[[nodiscard]] std::string canonical_reply(const std::string& body);

/// Telemetry counter difference between two snapshots.
[[nodiscard]] std::uint64_t counter_delta(const aalwines::telemetry::Snapshot& before,
                                          const aalwines::telemetry::Snapshot& after,
                                          aalwines::telemetry::Counter counter);
/// Result-cache hits ÷ lookups between two snapshots (0 without lookups).
[[nodiscard]] double cache_hit_ratio(const aalwines::telemetry::Snapshot& before,
                                     const aalwines::telemetry::Snapshot& after);

/// JSON string literal (escaped, quoted).
[[nodiscard]] std::string quoted(const std::string& text);

} // namespace perfbench
