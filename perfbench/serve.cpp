// serve_mixed: the daemon under a mixed cache load.  The NORDUnet-like
// network at 1600 chains is loaded over `POST /networks` into a fresh
// in-process daemon; a closed loop of parallelism() clients, each waiting
// for its answer as aalwines-client does, sends a seeded fixed-length
// sequence of `POST /networks/{id}/query`.  A hot set that fits the
// 256-entry result LRU takes ~4/5 of the requests and a cold tail larger
// than the LRU takes the rest, so the median request is a cache hit (HTTP,
// cache, serialization) and the tail is a verification under contention.

#include <algorithm>
#include <random>
#include <thread>
#include <unordered_set>

#include "io/formats.hpp"
#include "json/json.hpp"
#include "layers.hpp"
#include "query/query.hpp"
#include "synthesis/queries.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace aalwines;
using telemetry::Counter;

namespace {

constexpr double k_hot_share = 0.8;

struct Plan {
    std::vector<std::string> pool;               ///< distinct queries: hot set first
    std::size_t hot = 0;                         ///< pool[0, hot) is the hot set
    std::vector<std::vector<std::size_t>> sequences; ///< per client, pool indices
};

Plan make_plan(const synthesis::SyntheticNetwork& net, const Args& args) {
    Plan plan;
    plan.hot = args.tiny() ? 16 : 64;
    const std::size_t cold = args.tiny() ? 300 : 1024; // > the 256-entry LRU
    synthesis::QueryBatteryOptions options;
    options.count = 6 * (plan.hot + cold);
    options.seed = args.seed;
    options.include_stress = false;
    std::unordered_set<std::string> seen;
    for (auto& text : synthesis::make_query_battery(net, options))
        if (seen.insert(text).second) plan.pool.push_back(std::move(text));
    if (plan.pool.size() < plan.hot + cold)
        throw std::runtime_error("query pool too small: " + std::to_string(plan.pool.size()));
    std::mt19937_64 rng(args.seed);
    std::shuffle(plan.pool.begin(), plan.pool.end(), rng);
    plan.pool.resize(plan.hot + cold);

    const std::size_t per_client =
        args.tiny() ? 150 : static_cast<std::size_t>(600 * args.seconds);
    std::bernoulli_distribution is_hot(k_hot_share);
    std::uniform_int_distribution<std::size_t> pick_hot(0, plan.hot - 1);
    std::uniform_int_distribution<std::size_t> pick_cold(plan.hot, plan.pool.size() - 1);
    plan.sequences.resize(parallelism());
    for (auto& sequence : plan.sequences) {
        sequence.reserve(per_client);
        for (std::size_t r = 0; r < per_client; ++r)
            sequence.push_back(is_hot(rng) ? pick_hot(rng) : pick_cold(rng));
    }
    return plan;
}

std::string query_body(const std::string& text) {
    return "{\"query\": " + quoted(text) + "}";
}

struct Exchange {
    std::size_t query = 0;
    double ms = 0;
    HttpReply reply;
};

/// A daemon with the network loaded and the hot set answered once.
struct Loaded {
    std::unique_ptr<Daemon> daemon;
    std::string target; ///< /networks/{id}/query
    double setup_ms = 0;
};

Loaded start_daemon(const Fixture& fixture, const Plan& plan) {
    Loaded loaded;
    const auto start = Clock::now();
    loaded.daemon = std::make_unique<Daemon>();
    loaded.target =
        "/networks/" + load_network(loaded.daemon->port(), nullptr, fixture) + "/query";
    for (std::size_t q = 0; q < plan.hot; ++q) {
        const auto reply = http_request(loaded.daemon->port(), "POST", loaded.target,
                                        query_body(plan.pool[q]));
        if (reply.status != 200)
            throw std::runtime_error("warm-up query answered " + std::to_string(reply.status));
    }
    loaded.setup_ms = ms_since(start);
    return loaded;
}

/// The closed loop: every client sends its sequence, one request at a time.
/// Returns the wall time (ms); exchanges are per client, in order.
double drive(const Loaded& loaded, const Plan& plan, Tracer* tracer,
             std::vector<std::vector<Exchange>>& exchanges) {
    std::vector<std::string> bodies;
    bodies.reserve(plan.pool.size());
    for (const auto& text : plan.pool) bodies.push_back(query_body(text));
    exchanges.assign(plan.sequences.size(), {});
    const auto port = loaded.daemon->port();
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < plan.sequences.size(); ++c) {
        clients.emplace_back([&, c] {
            auto& mine = exchanges[c];
            mine.reserve(plan.sequences[c].size());
            for (std::size_t r = 0; r < plan.sequences[c].size(); ++r) {
                const auto q = plan.sequences[c][r];
                Tracer::Span span(tracer, "http.query", c * plan.sequences[c].size() + r);
                const auto begin = Clock::now();
                auto reply = http_request(port, "POST", loaded.target, bodies[q]);
                mine.push_back({q, ms_since(begin), std::move(reply)});
            }
        });
    }
    for (auto& client : clients) client.join();
    return ms_since(start);
}

} // namespace

Result run_serve(const Args& args) {
    Result out;
    const double calib_start = calibrate_host_ms();
    const auto fixture = make_fixture(args.tiny() ? 100 : 1600);
    const auto plan = make_plan(fixture.net, args);

    // Set-up: daemon start, POST /networks and the hot-set warm-up, repeated
    // on fresh daemons so the reported figure is a median; the last one is
    // measured.
    std::vector<double> setup_ms;
    Loaded loaded;
    for (int rep = 0; rep < 3; ++rep) {
        loaded = {};
        loaded = start_daemon(fixture, plan);
        setup_ms.push_back(loaded.setup_ms);
    }

    std::vector<std::vector<Exchange>> exchanges;
    const auto before = telemetry::snapshot();
    const double wall_ms = drive(loaded, plan, nullptr, exchanges);
    const auto after = telemetry::snapshot();
    loaded = {};

    // Oracle (untimed): every reply must equal an in-process verify() of
    // its query on the same network.
    const auto network = io::read_network_xml(fixture.topology_xml, fixture.routing_xml);
    std::vector<std::string> expected(plan.pool.size());
    {
        std::vector<std::thread> workers;
        for (std::size_t w = 0; w < parallelism(); ++w)
            workers.emplace_back([&, w] {
                for (std::size_t q = w; q < plan.pool.size(); q += parallelism()) {
                    try {
                        const auto query = query::parse_query(plan.pool[q], network);
                        expected[q] = canonical_result(network, plan.pool[q],
                                                       verify::verify(network, query));
                    } catch (const std::exception& error) {
                        expected[q] = std::string("oracle error: ") + error.what();
                    }
                }
            });
        for (auto& worker : workers) worker.join();
    }
    std::vector<double> latency_ms;
    std::size_t inconclusive = 0;
    for (const auto& client : exchanges) {
        for (const auto& exchange : client) {
            ++out.attempted;
            latency_ms.push_back(exchange.ms);
            if (exchange.reply.status != 200) {
                out.fail("status " + std::to_string(exchange.reply.status) + " for " +
                         plan.pool[exchange.query]);
                continue;
            }
            if (canonical_reply(exchange.reply.body) != expected[exchange.query]) {
                out.fail("reply differs from verify(): " + plan.pool[exchange.query]);
                continue;
            }
            if (expected[exchange.query].find("\"answer\":\"inconclusive\"") !=
                std::string::npos)
                ++inconclusive;
        }
    }

    if (!args.trace) {
        add_common_metrics(out, setup_ms, inconclusive, out.attempted, calib_start);
        out.add("p50_ms", median(latency_ms), "ms");
        out.add("tail_ms", percentile(latency_ms, 0.99), "ms");
        out.add("throughput_per_s", static_cast<double>(out.attempted) / (wall_ms / 1000.0),
                "1/s");
        return out;
    }

    // Traced run.  1) The same closed loop again on a fresh daemon with a
    // span per request, then once more without: the two later loops run in
    // an equally warm process, so their wall-time difference is the tracing
    // overhead.
    Tracer tracer;
    double traced_ms = 0, untraced_ms = 0;
    {
        auto traced = start_daemon(fixture, plan);
        std::vector<std::vector<Exchange>> ignored;
        traced_ms = drive(traced, plan, &tracer, ignored);
    }
    {
        auto untraced = start_daemon(fixture, plan);
        std::vector<std::vector<Exchange>> ignored;
        untraced_ms = drive(untraced, plan, nullptr, ignored);
    }

    // 2) Service::handle called directly on the same request sequence
    // (clients interleaved, a prefix long enough for a few hundred misses),
    // split into hits and misses by the reply's "cached" flag.
    server::Service service;
    const auto target = "/networks/" + load_network(0, &service, fixture) + "/query";
    for (std::size_t q = 0; q < plan.hot; ++q)
        (void)handle_direct(service, "POST", target, query_body(plan.pool[q]));
    std::vector<double> hit_ms, miss_ms;
    const std::size_t handle_requests = args.tiny() ? 200 : 2000;
    std::uint64_t op = 1u << 30;
    for (std::size_t r = 0; hit_ms.size() + miss_ms.size() < handle_requests; ++r) {
        for (const auto& sequence : plan.sequences) {
            if (r >= sequence.size()) continue;
            Tracer::Span span(&tracer, "server.handle", op++);
            const auto reply =
                handle_direct(service, "POST", target, query_body(plan.pool[sequence[r]]));
            const double ms = span.close();
            if (reply.status != 200) out.fail("handle status " + std::to_string(reply.status));
            const auto body = json::parse(reply.body);
            const auto* cached = body.find("cached");
            (cached != nullptr && cached->as_bool() ? hit_ms : miss_ms).push_back(ms);
        }
        if (r >= plan.sequences.front().size()) break;
    }

    // 3) A single-client loopback pass over hot (cached) queries: round trip
    // minus handle time is the transport's share.
    std::vector<double> roundtrip_ms;
    {
        server::ServerConfig config;
        config.workers = parallelism();
        server::Server socket_front(service, config);
        socket_front.start();
        for (std::size_t r = 0; r < (args.tiny() ? 100u : 1000u); ++r) {
            Tracer::Span span(&tracer, "http.roundtrip", op++);
            const auto reply = http_request(socket_front.port(), "POST", target,
                                            query_body(plan.pool[r % plan.hot]));
            roundtrip_ms.push_back(span.close());
            if (reply.status != 200) out.fail("loopback status " + std::to_string(reply.status));
        }
        socket_front.stop();
    }

    // 4) The verification layers, replayed on a sample of the cold tail
    // (the queries whose misses set the tail latency); answers and work
    // counters must equal a sequential verify() of each.
    LayerTotals totals;
    const std::size_t replayed = std::min<std::size_t>(plan.pool.size() - plan.hot, 128);
    for (std::size_t i = 0; i < replayed; ++i) {
        const auto q = plan.hot + i;
        if (replay_checked(network, plan.pool[q], nullptr, &tracer, op++, totals, out) !=
            expected[q])
            out.fail("sequential verify() differs from the oracle: " + plan.pool[q]);
    }

    totals.emit(out);
    out.add("server.handle_hit_ms", mean(hit_ms), "ms");
    out.add("server.handle_miss_ms", mean(miss_ms), "ms");
    out.add("server.transport_ms", mean(roundtrip_ms) - mean(hit_ms), "ms");
    out.add("server.cache_hit_ratio", cache_hit_ratio(before, after), "share");
    out.add("server.rejected",
            static_cast<double>(counter_delta(before, after, Counter::server_rejected)), "count");
    out.add("host.calib_ms", median({calib_start, calibrate_host_ms()}), "ms");
    out.add("trace.overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
    if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file))
        out.fail("cannot write " + args.trace_file);
    return out;
}

} // namespace perfbench
