// Loopback integration tests for the verification daemon (src/server/):
// real sockets against an in-process Server, covering the REST surface,
// the compiled-query cache, admission control, deadline handling and
// graceful drain.  The concurrent-client tests also run under the tsan CI
// job (ctest -R Server).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>

#include "cli/options.hpp"
#include "json/json.hpp"
#include "server/access_log.hpp"
#include "server/cache.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "telemetry/telemetry.hpp"

namespace aalwines::server {
namespace {

constexpr const char* k_yes_query = "<ip> [.#v0] .* [v3#.] <ip> 0";
constexpr const char* k_no_query = "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1";

struct Reply {
    int status = 0; ///< 0 = connect/read failure
    std::string body;
    std::string raw;
};

/// One raw HTTP exchange over a fresh loopback connection.
Reply roundtrip(std::uint16_t port, const std::string& method, const std::string& target,
                const std::string& body = {}) {
    Reply reply;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return reply;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
        ::close(fd);
        return reply;
    }
    std::string request = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
    if (!body.empty()) request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "\r\n" + body;
    if (!http::write_all(fd, request)) {
        ::close(fd);
        return reply;
    }
    char chunk[4096];
    for (;;) {
        const auto n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        reply.raw.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (reply.raw.rfind("HTTP/1.1 ", 0) == 0)
        reply.status = std::atoi(reply.raw.c_str() + 9);
    if (const auto split = reply.raw.find("\r\n\r\n"); split != std::string::npos)
        reply.body = reply.raw.substr(split + 4);
    return reply;
}

json::Value parse_body(const Reply& reply) { return json::parse(reply.body); }

/// Service + Server on an ephemeral port, stopped on destruction.
struct Daemon {
    explicit Daemon(ServerConfig config = {}, ServiceConfig service_config = {})
        : service(service_config), server(service, std::move(config)) {
        server.start();
    }
    ~Daemon() { server.stop(); }

    [[nodiscard]] std::string load_figure1() {
        const auto reply =
            roundtrip(server.port(), "POST", "/networks", R"({"demo":"figure1"})");
        EXPECT_EQ(reply.status, 201) << reply.raw;
        return parse_body(reply).at("id").as_string();
    }

    Service service;
    Server server;
};

TEST(Server, HealthzAndUnknownEndpoints) {
    Daemon daemon;
    const auto health = roundtrip(daemon.server.port(), "GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(parse_body(health).at("status").as_string(), "ok");

    EXPECT_EQ(roundtrip(daemon.server.port(), "GET", "/nope").status, 404);
    EXPECT_EQ(roundtrip(daemon.server.port(), "GET", "/networks/n1/other").status, 404);
    EXPECT_EQ(roundtrip(daemon.server.port(), "PUT", "/networks").status, 405);
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/healthz").status, 405);
}

TEST(Server, LoadQueryAndCacheHit) {
    Daemon daemon;
    const auto before = telemetry::snapshot();
    const auto id = daemon.load_figure1();

    const auto body = std::string(R"({"query":")") + k_yes_query + R"("})";
    const auto first =
        roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query", body);
    ASSERT_EQ(first.status, 200) << first.raw;
    auto first_json = parse_body(first);
    EXPECT_EQ(first_json.at("answer").as_string(), "yes");
    EXPECT_FALSE(first_json.at("cached").as_bool());

    const auto second =
        roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query", body);
    ASSERT_EQ(second.status, 200);
    auto second_json = parse_body(second);
    EXPECT_EQ(second_json.at("answer").as_string(), "yes");
    EXPECT_TRUE(second_json.at("cached").as_bool());

    // Identical modulo the timing field and the cache marker.
    first_json.as_object().erase("seconds");
    first_json.as_object().erase("cached");
    second_json.as_object().erase("seconds");
    second_json.as_object().erase("cached");
    EXPECT_EQ(first_json, second_json);

    // The hit/miss totals surface through telemetry and /metrics.
    const auto metrics =
        roundtrip(daemon.server.port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    const auto document = parse_body(metrics);
    const auto& cache = document.at("server").at("cache");
#if AALWINES_TELEMETRY_ENABLED
    const auto after = telemetry::snapshot();
    EXPECT_GE(after.counter(telemetry::Counter::server_cache_hits),
              before.counter(telemetry::Counter::server_cache_hits) + 1);
    EXPECT_GE(after.counter(telemetry::Counter::server_cache_misses),
              before.counter(telemetry::Counter::server_cache_misses) + 1);
    EXPECT_GE(cache.at("hits").as_int(), 1);
#else
    (void)before;
#endif
    EXPECT_EQ(cache.at("entries").as_int(), 1);
    EXPECT_EQ(document.at("server").at("workspaces").as_int(), 1);
}

TEST(Server, BatchQueriesWithPerItemErrors) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    const auto body = std::string(R"({"jobs": 2, "queries": [")") + k_yes_query +
                      R"(", "garbage", ")" + k_no_query + R"("]})";
    const auto reply =
        roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query", body);
    ASSERT_EQ(reply.status, 200) << reply.raw;
    const auto document = parse_body(reply);
    const auto& results = document.at("results").as_array();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].at("answer").as_string(), "yes");
    EXPECT_NE(results[1].find("error"), nullptr);
    EXPECT_EQ(results[2].at("answer").as_string(), "no");
}

TEST(Server, SweepEndpointReturnsHealthMatrix) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    const auto reply = roundtrip(
        daemon.server.port(), "POST", "/networks/" + id + "/sweep",
        R"({"template":"<ip> [.#{src}] .* [{dst}#.] <ip> {k}",
            "pairs":[["v0","v3"]], "budgets":[0,1],
            "singleFailures":0, "stats":true})");
    ASSERT_EQ(reply.status, 200) << reply.raw;
    const auto body = parse_body(reply);
    EXPECT_EQ(body.at("network").as_string(), id);
    EXPECT_EQ(body.at("template").as_string(), "<ip> [.#{src}] .* [{dst}#.] <ip> {k}");
    const auto& cells = body.at("cells").as_array();
    const auto& stats = body.at("stats").as_object();
    // figure1 has 8 up links: baseline + 8 scenarios, 1 pair x 2 budgets.
    EXPECT_EQ(body.at("scenarios").as_array().size(), 9u);
    ASSERT_EQ(cells.size(), 18u);
    EXPECT_EQ(stats.at("cells").as_int(), 18);
    EXPECT_EQ(stats.at("errors").as_int(), 0);
    EXPECT_EQ(stats.at("nfaCompiles").as_int(), 1);
    EXPECT_GT(stats.at("reusedFrontiers").as_int() +
                  stats.at("sharedSaturations").as_int(),
              0);

    // The baseline k=0 cell is exactly k_yes_query; its answer must agree
    // with the one-by-one /query endpoint.
    EXPECT_EQ(cells[0].at("answer").as_string(), "yes");
    EXPECT_EQ(cells[0].at("path").as_string(), "cold");
    // --stats carries each cell's full per-query detail.
    EXPECT_NE(cells[0].find("detail"), nullptr);

    // Missing template is a usage error; unresolvable scenario names are a
    // model error (422), reported before anything runs.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/sweep",
                        R"({"pairs":[["v0","v3"]]})")
                  .status,
              400);
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/sweep",
                        R"({"template":"<ip> .* <ip> 0",
                            "scenarios":[{"failedLinks":[["ghost","x"]]}]})")
                  .status,
              422);
    // Sweep on an unknown workspace.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/n999/sweep",
                        R"({"template":"<ip> .* <ip> 0"})")
                  .status,
              404);
}

TEST(Server, QueryOptionsSelectEngineAndWeights) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    const auto weighted = roundtrip(
        daemon.server.port(), "POST", "/networks/" + id + "/query",
        R"({"query":"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",)"
        R"("weight":"hops, failures + 3*tunnels"})");
    ASSERT_EQ(weighted.status, 200) << weighted.raw;
    const auto weighted_json = parse_body(weighted);
    const auto& weight = weighted_json.at("weight").as_array();
    ASSERT_EQ(weight.size(), 2u);
    EXPECT_EQ(weight[0].as_int(), 5);
    EXPECT_EQ(weight[1].as_int(), 0);

    const auto moped = roundtrip(daemon.server.port(), "POST",
                                 "/networks/" + id + "/query",
                                 std::string(R"({"engine":"moped","query":")") +
                                     k_yes_query + R"("})");
    ASSERT_EQ(moped.status, 200);
    EXPECT_EQ(parse_body(moped).at("answer").as_string(), "yes");

    const auto bad_engine = roundtrip(
        daemon.server.port(), "POST", "/networks/" + id + "/query",
        std::string(R"({"engine":"quantum","query":")") + k_yes_query + R"("})");
    EXPECT_EQ(bad_engine.status, 400);
}

TEST(Server, ErrorStatusCodes) {
    Daemon daemon;
    // Unknown network id.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/n999/query",
                        R"({"query":"x"})")
                  .status,
              404);
    // Malformed JSON body.
    const auto id = daemon.load_figure1();
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query",
                        "{not json")
                  .status,
              400);
    // Parse error in the (single) query text.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query",
                        R"({"query":"not a query"})")
                  .status,
              400);
    // Missing network source.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks", R"({})").status, 400);
    // Malformed network documents.
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks",
                        R"({"topologyXml":"<broken", "routingXml":"<routes/>"})")
                  .status,
              400);
    // Malformed HTTP framing.
    EXPECT_EQ(roundtrip(daemon.server.port(), "BROKEN_NO_TARGET", "/x\r\nbad").status,
              400);
}

TEST(Server, WorkspaceLifecycle) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    const auto list = roundtrip(daemon.server.port(), "GET", "/networks");
    ASSERT_EQ(list.status, 200);
    EXPECT_EQ(parse_body(list).at("networks").as_array().size(), 1u);

    const auto info = roundtrip(daemon.server.port(), "GET", "/networks/" + id);
    ASSERT_EQ(info.status, 200);
    EXPECT_EQ(parse_body(info).at("routers").as_int(), 7);

    EXPECT_EQ(roundtrip(daemon.server.port(), "DELETE", "/networks/" + id).status, 204);
    EXPECT_EQ(roundtrip(daemon.server.port(), "GET", "/networks/" + id).status, 404);
    EXPECT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query",
                        std::string(R"({"query":")") + k_yes_query + R"("})")
                  .status,
              404);
}

TEST(Server, PatchAppliesDeltaAndScopesInvalidation) {
    Daemon daemon;
    const auto port = daemon.server.port();
    const auto patched = daemon.load_figure1();
    const auto bystander = daemon.load_figure1();

    // Prime both workspaces' result caches.
    const auto query_body = std::string(R"({"query":")") + k_yes_query + R"("})";
    for (const auto* id : {&patched, &bystander})
        ASSERT_EQ(roundtrip(port, "POST", "/networks/" + *id + "/query", query_body).status,
                  200);

    constexpr const char* k_down_e1 = R"({"operations": [
        {"op": "link-state", "router": "v0", "interface": "e1", "up": false}]})";
    EXPECT_EQ(roundtrip(port, "PATCH", "/networks/nosuch", k_down_e1).status, 404);
    EXPECT_EQ(roundtrip(port, "PATCH", "/networks/" + patched,
                        R"({"operations": [{"op": "frobnicate"}]})")
                  .status,
              422);
    EXPECT_EQ(roundtrip(port, "PATCH", "/networks/" + patched, R"({"operations": [
        {"op": "link-state", "router": "nosuch", "interface": "e1", "up": false}]})")
                  .status,
              422);

    const auto reply = roundtrip(port, "PATCH", "/networks/" + patched, k_down_e1);
    ASSERT_EQ(reply.status, 200) << reply.raw;
    const auto body = parse_body(reply);
    EXPECT_EQ(body.at("generation").as_int(), 1);
    EXPECT_EQ(body.at("operations").as_int(), 1);
    EXPECT_EQ(body.at("invalidations").as_int(), 1);
    // Only the patched workspace's cached result was retired.
    EXPECT_EQ(body.at("cacheEvictions").as_int(), 1);
    EXPECT_EQ(body.at("effects").at("stateLinks").as_array().size(), 1u);
    EXPECT_FALSE(body.at("effects").at("labelAdded").as_bool());

    const auto info = roundtrip(port, "GET", "/networks/" + patched);
    ASSERT_EQ(info.status, 200);
    EXPECT_EQ(parse_body(info).at("generation").as_int(), 1);

    // A patched workspace answers through its Reverifier: still yes (the
    // query re-routes via e2), freshly computed, with the tier surfaced.
    const auto requery = roundtrip(port, "POST", "/networks/" + patched + "/query", query_body);
    ASSERT_EQ(requery.status, 200) << requery.raw;
    const auto requery_json = parse_body(requery);
    EXPECT_EQ(requery_json.at("answer").as_string(), "yes");
    EXPECT_FALSE(requery_json.at("cached").as_bool());
    EXPECT_TRUE(requery_json.find("path") != nullptr);

    // The bystander workspace still serves its cached result.
    const auto untouched = roundtrip(port, "POST", "/networks/" + bystander + "/query",
                                     query_body);
    ASSERT_EQ(untouched.status, 200);
    EXPECT_TRUE(parse_body(untouched).at("cached").as_bool());
}

TEST(Server, ConcurrentPatchAndQueries) {
    // PATCH races against in-flight queries: every query must land on a
    // coherent generation (yes either way — figure1 keeps an alternate path
    // through e2 while e1 is down) and the daemon must stay consistent.
    // Exercised under the tsan CI job (ctest -R Server).
    Daemon daemon;
    const auto port = daemon.server.port();
    const auto id = daemon.load_figure1();
    const auto query_body = std::string(R"({"query":")") + k_yes_query + R"("})";

    std::atomic<int> failures{0};
    std::thread patcher([&] {
        const char* deltas[] = {
            R"({"operations": [{"op": "link-state", "router": "v0", "interface": "e1",
                                "up": false}]})",
            R"({"operations": [{"op": "link-state", "router": "v0", "interface": "e1",
                                "up": true}]})",
        };
        for (int i = 0; i < 24; ++i) {
            const auto reply = roundtrip(port, "PATCH", "/networks/" + id, deltas[i % 2]);
            if (reply.status != 200) ++failures;
        }
    });
    std::vector<std::thread> queriers;
    for (int t = 0; t < 3; ++t) {
        queriers.emplace_back([&] {
            for (int i = 0; i < 16; ++i) {
                const auto reply =
                    roundtrip(port, "POST", "/networks/" + id + "/query", query_body);
                if (reply.status != 200 ||
                    parse_body(reply).at("answer").as_string() != "yes")
                    ++failures;
            }
        });
    }
    patcher.join();
    for (auto& querier : queriers) querier.join();
    EXPECT_EQ(failures.load(), 0);

    const auto info = roundtrip(port, "GET", "/networks/" + id);
    ASSERT_EQ(info.status, 200);
    EXPECT_EQ(parse_body(info).at("generation").as_int(), 24);
}

TEST(Server, LoadsGmlDocuments) {
    Daemon daemon;
    const std::string gml =
        "graph [\n"
        "  node [ id 0 label \"a\" ]\n  node [ id 1 label \"b\" ]\n"
        "  node [ id 2 label \"c\" ]\n  node [ id 3 label \"d\" ]\n"
        "  edge [ source 0 target 1 ]\n  edge [ source 1 target 2 ]\n"
        "  edge [ source 2 target 3 ]\n  edge [ source 3 target 0 ]\n"
        "]\n";
    json::Object body;
    body.emplace("gml", gml);
    body.emplace("name", "ring4");
    const auto reply = roundtrip(daemon.server.port(), "POST", "/networks",
                                 json::write(json::Value(std::move(body))));
    ASSERT_EQ(reply.status, 201) << reply.raw;
    const auto info = parse_body(reply);
    EXPECT_EQ(info.at("name").as_string(), "ring4");
    // 4 ring nodes plus one synthesized external stub per edge router.
    EXPECT_EQ(info.at("routers").as_int(), 8);
}

/// Gate test instrumentation: lets the test hold worker threads mid-request.
struct Gate {
    void open() {
        {
            const std::lock_guard lock(mutex);
            released = true;
        }
        cv.notify_all();
    }
    void wait_entered() {
        std::unique_lock lock(mutex);
        cv.wait(lock, [this] { return entered > 0; });
    }
    void block(const http::Request& request) {
        if (request.target.find("/query") == std::string::npos) return;
        std::unique_lock lock(mutex);
        ++entered;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
    }

    std::mutex mutex;
    std::condition_variable cv;
    int entered = 0;
    bool released = false;
};

TEST(Server, AdmissionControlRejectsWithRetryAfter) {
    Gate gate;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 1;
    config.on_request = [&gate](const http::Request& request) { gate.block(request); };
    Daemon daemon(config);
    const auto id = daemon.load_figure1();
    const auto port = daemon.server.port();
    const auto body = std::string(R"({"query":")") + k_yes_query + R"("})";
    const auto before = telemetry::snapshot();

    // A occupies the single worker; B fills the queue; C must bounce.
    std::thread a([&] {
        const auto reply = roundtrip(port, "POST", "/networks/" + id + "/query", body);
        EXPECT_EQ(reply.status, 200) << reply.raw;
    });
    gate.wait_entered();
    std::thread b([&] {
        const auto reply = roundtrip(port, "POST", "/networks/" + id + "/query", body);
        EXPECT_EQ(reply.status, 200) << reply.raw;
    });
    for (int i = 0; i < 2000 && daemon.server.queue_depth() < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(daemon.server.queue_depth(), 1u);

    const auto rejected = roundtrip(port, "GET", "/healthz");
    EXPECT_EQ(rejected.status, 503) << rejected.raw;
    EXPECT_NE(rejected.raw.find("Retry-After:"), std::string::npos);

    gate.open();
    a.join();
    b.join();
#if AALWINES_TELEMETRY_ENABLED
    const auto after = telemetry::snapshot();
    EXPECT_GE(after.counter(telemetry::Counter::server_rejected),
              before.counter(telemetry::Counter::server_rejected) + 1);
#else
    (void)before;
#endif
}

TEST(Server, GracefulShutdownDrainsInFlightRequests) {
    Gate gate;
    ServerConfig config;
    config.workers = 2;
    config.on_request = [&gate](const http::Request& request) { gate.block(request); };
    Daemon daemon(config);
    const auto id = daemon.load_figure1();
    const auto port = daemon.server.port();

    std::thread client([&] {
        const auto reply =
            roundtrip(port, "POST", "/networks/" + id + "/query",
                      std::string(R"({"query":")") + k_yes_query + R"("})");
        EXPECT_EQ(reply.status, 200) << reply.raw;
        EXPECT_EQ(parse_body(reply).at("answer").as_string(), "yes");
    });
    gate.wait_entered();
    daemon.server.request_stop(); // the in-flight request must still answer
    gate.open();
    daemon.server.wait();
    client.join();

    // Fully drained: new connections are refused.
    EXPECT_EQ(roundtrip(port, "GET", "/healthz").status, 0);
}

TEST(Server, DeadlineExpiresQueuedRequests) {
    Gate gate;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 8;
    config.deadline_ms = 50;
    config.on_request = [&gate](const http::Request& request) { gate.block(request); };
    Daemon daemon(config);
    const auto id = daemon.load_figure1();
    const auto port = daemon.server.port();
    const auto body = std::string(R"({"query":")") + k_yes_query + R"("})";

    std::thread a([&] { (void)roundtrip(port, "POST", "/networks/" + id + "/query", body); });
    gate.wait_entered();
    std::thread b([&] {
        // Queued behind the gated request for > deadline_ms: expired, 504.
        const auto reply = roundtrip(port, "GET", "/healthz");
        EXPECT_EQ(reply.status, 504) << reply.raw;
    });
    for (int i = 0; i < 2000 && daemon.server.queue_depth() < 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    gate.open();
    a.join();
    b.join();
}

// Also exercised by the tsan CI job: many clients, mixed cached/uncached
// queries and metrics scrapes, all against one shared workspace.
TEST(Server, ConcurrentClients) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    const auto port = daemon.server.port();
    const std::vector<std::string> queries = {
        k_yes_query, k_no_query, "<ip> .* <ip> 0", "<smpls ip> .* <smpls ip> 1"};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(8);
    for (int c = 0; c < 8; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < 6; ++i) {
                if (i == 3 && c % 2 == 0) {
                    if (roundtrip(port, "GET", "/metrics").status != 200) ++failures;
                    continue;
                }
                const auto& query = queries[static_cast<std::size_t>(c + i) % queries.size()];
                const auto reply = roundtrip(port, "POST", "/networks/" + id + "/query",
                                             R"({"query":")" + query + R"("})");
                if (reply.status != 200) ++failures;
            }
        });
    }
    for (auto& client : clients) client.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Server, PrometheusMetricsExposition) {
    Daemon daemon;
    const auto id = daemon.load_figure1();
    ASSERT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/query",
                        std::string(R"({"query":")") + k_yes_query + R"("})")
                  .status,
              200);

    const auto reply =
        roundtrip(daemon.server.port(), "GET", "/metrics?format=prometheus");
    ASSERT_EQ(reply.status, 200) << reply.raw;
    EXPECT_NE(reply.raw.find("text/plain; version=0.0.4"), std::string::npos);
    const auto& text = reply.body;
    EXPECT_NE(text.find("# TYPE aalwines_server_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE aalwines_request_duration_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("aalwines_request_duration_seconds_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("aalwines_cache_entries 1\n"), std::string::npos);
    EXPECT_NE(text.find("aalwines_workspaces 1\n"), std::string::npos);

    // Extract the single un-labelled sample value of `series`.
    const auto value_of = [&](const std::string& series) {
        const auto pos = text.find("\n" + series + " ");
        EXPECT_NE(pos, std::string::npos) << series;
        if (pos == std::string::npos) return -1LL;
        return std::stoll(text.substr(pos + series.size() + 2));
    };
    // Counter and duration histogram fire together after routing, so any
    // scrape — including this one — sees them equal.
    EXPECT_EQ(value_of("aalwines_request_duration_seconds_count"),
              value_of("aalwines_server_requests_total"));

    // The plain endpoint still answers JSON, now as metrics-2.
    const auto json_reply = roundtrip(daemon.server.port(), "GET", "/metrics");
    ASSERT_EQ(json_reply.status, 200);
    const auto document = parse_body(json_reply);
    EXPECT_EQ(document.at("schema").as_string(), "aalwines-metrics-2");
    EXPECT_EQ(document.at("current").at("cacheEntries").as_int(), 1);
#if AALWINES_TELEMETRY_ENABLED
    EXPECT_TRUE(document.at("histograms").as_object().contains("request_duration"));
#endif
}

TEST(Server, AccessLogRoundTrip) {
    const std::string path =
        "/tmp/aalwines_access_" + std::to_string(::getpid()) + ".log";
    ::unlink(path.c_str());
    ServiceConfig service_config;
    service_config.access_log_path = path;
    service_config.slow_query_ms = 3'600'000; // nothing qualifies as slow
    std::string id;
    {
        Daemon daemon({}, service_config);
        id = daemon.load_figure1();
        const auto body = std::string(R"({"query":")") + k_yes_query + R"("})";
        ASSERT_EQ(roundtrip(daemon.server.port(), "POST",
                            "/networks/" + id + "/query", body)
                      .status,
                  200);
        ASSERT_EQ(roundtrip(daemon.server.port(), "POST",
                            "/networks/" + id + "/query", body)
                      .status,
                  200);
        // A patched workspace answers through its Reverifier (cold: its
        // first sight of the query), and a sweep logs the same tier keys.
        ASSERT_EQ(roundtrip(daemon.server.port(), "PATCH", "/networks/" + id,
                            R"({"operations": [{"op": "link-state", "router": "v0",
                                "interface": "e1", "up": false}]})")
                      .status,
                  200);
        ASSERT_EQ(roundtrip(daemon.server.port(), "POST",
                            "/networks/" + id + "/query", body)
                      .status,
                  200);
        ASSERT_EQ(roundtrip(daemon.server.port(), "POST", "/networks/" + id + "/sweep",
                            R"({"template":"<ip> [.#v0] .* [v3#.] <ip> 0",
                                "singleFailures":0})")
                      .status,
                  200);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty()) records.push_back(json::parse(line));
    ::unlink(path.c_str());

    // Load, two queries, patch, re-query and sweep, in request order.
    ASSERT_EQ(records.size(), 6u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].at("id").as_int(), static_cast<std::int64_t>(i + 1));
        EXPECT_EQ(records[i].at("method").as_string(), i == 3 ? "PATCH" : "POST");
        EXPECT_GE(records[i].at("durationMs").as_double(), 0.0);
        const auto time = records[i].at("time").as_string();
        ASSERT_EQ(time.size(), 20u) << time;
        EXPECT_EQ(time[10], 'T');
        EXPECT_EQ(time.back(), 'Z');
        EXPECT_EQ(records[i].find("slow"), nullptr);
        EXPECT_EQ(records[i].find("queryTexts"), nullptr); // slow-only detail
    }
    EXPECT_EQ(records[0].at("target").as_string(), "/networks");
    EXPECT_EQ(records[0].at("status").as_int(), 201);

    const auto& first = records[1];
    const auto& second = records[2];
    EXPECT_EQ(first.at("network").as_string(), id);
    EXPECT_EQ(first.at("queries").as_int(), 1);
    EXPECT_EQ(first.at("answer").as_string(), "yes");
    EXPECT_EQ(first.at("cacheMisses").as_int(), 1);
    EXPECT_EQ(first.at("cacheHits").as_int(), 0);
    EXPECT_EQ(second.at("cacheHits").as_int(), 1);
    EXPECT_EQ(second.at("cacheMisses").as_int(), 0);
    // Identical query => identical stable hash, 16 lower-case hex digits.
    const auto hash = first.at("queryHash").as_string();
    EXPECT_EQ(hash.size(), 16u);
    EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_EQ(hash, second.at("queryHash").as_string());

    // Tier counts appear only where the Reverifier answered, under the same
    // keys as the sweep line's.
    for (const auto* key : {"reused", "warm", "cold"}) {
        EXPECT_EQ(first.find(key), nullptr) << key;
        EXPECT_EQ(second.find(key), nullptr) << key;
    }
    const auto& requery = records[4];
    EXPECT_EQ(requery.at("cacheMisses").as_int(), 1);
    EXPECT_EQ(requery.at("reused").as_int(), 0);
    EXPECT_EQ(requery.at("warm").as_int(), 0);
    EXPECT_EQ(requery.at("cold").as_int(), 1);
    const auto& sweep = records[5];
    EXPECT_EQ(sweep.at("answer").as_string(), "sweep");
    EXPECT_EQ(sweep.at("reused").as_int() + sweep.at("warm").as_int() +
                  sweep.at("cold").as_int(),
              sweep.at("sweepCells").as_int());
    EXPECT_EQ(sweep.at("cold").as_int(), 1);
    EXPECT_EQ(sweep.find("coldSaturations"), nullptr);
}

TEST(AccessLog, StableHashIdsAndTimestamp) {
    // FNV-1a 64: hash of "" is the offset basis, "a" is the textbook value.
    EXPECT_EQ(stable_hash_hex(""), "cbf29ce484222325");
    EXPECT_EQ(stable_hash_hex("a"), "af63dc4c8601ec8c");
    EXPECT_NE(stable_hash_hex("<ip> .* <ip> 0"), stable_hash_hex("<ip> .* <ip> 1"));

    AccessLog slow_only("", 5);
    EXPECT_TRUE(slow_only.enabled());
    EXPECT_EQ(slow_only.slow_ms(), 5u);

    // Ids are stamped by write() itself, so line order == id order.
    const auto path = "/tmp/aalwines_access_ids_" + std::to_string(::getpid()) + ".log";
    {
        AccessLog log(path, 0);
        log.write(json::Object{{"target", json::Value("/a")}}, false);
        log.write(json::Object{{"target", json::Value("/b")}}, false);
    }
    std::ifstream stream(path);
    std::string line;
    std::uint64_t expected_id = 0;
    while (std::getline(stream, line)) {
        const auto record = json::parse(line);
        EXPECT_EQ(record.at("id").as_int(), static_cast<std::int64_t>(++expected_id));
    }
    EXPECT_EQ(expected_id, 2u);
    ::unlink(path.c_str());

    AccessLog disabled("", 0);
    EXPECT_FALSE(disabled.enabled());

    EXPECT_THROW(AccessLog("/nonexistent-dir/x.log", 0), std::runtime_error);

    const auto time = log_timestamp();
    ASSERT_EQ(time.size(), 20u) << time;
    EXPECT_EQ(time[4], '-');
    EXPECT_EQ(time[10], 'T');
    EXPECT_EQ(time.back(), 'Z');
}

// --- TSan regression tests (the tsan CI job runs ctest -R Server) --------

TEST(Server, AccessLogConcurrentWritesKeepIdOrder) {
    // Regression: ids used to be minted in a critical section separate from
    // the line write (Service asked next_id(), then AccessLog locked again
    // to append), so two racing requests could land in the file out of id
    // order.  write() now stamps the id under the same lock as the append.
    const auto path =
        "/tmp/aalwines_access_race_" + std::to_string(::getpid()) + ".log";
    ::unlink(path.c_str());
    constexpr int k_threads = 8;
    constexpr int k_writes = 50;
    {
        AccessLog log(path, 0);
        std::vector<std::thread> writers;
        writers.reserve(k_threads);
        for (int t = 0; t < k_threads; ++t)
            writers.emplace_back([&log] {
                for (int i = 0; i < k_writes; ++i)
                    log.write(json::Object{{"target", json::Value("/race")}}, false);
            });
        for (auto& writer : writers) writer.join();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::string line;
    std::int64_t expected = 0;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        EXPECT_EQ(json::parse(line).at("id").as_int(), ++expected);
    }
    ::unlink(path.c_str());
    EXPECT_EQ(expected, k_threads * k_writes);
}

TEST(Server, ConcurrentStopAndWaitDrainTogether) {
    // Regression: a second concurrent wait() caller used to return straight
    // away while the first was still joining the worker pool — its caller
    // then observed a daemon that was still serving.  Every stop() caller
    // must come back only once the listener is really gone.
    ServiceConfig service_config;
    Service service(service_config);
    Server server(service, {});
    server.start();
    const auto port = server.port();
    ASSERT_EQ(roundtrip(port, "GET", "/healthz").status, 200);

    constexpr int k_threads = 4;
    std::vector<std::thread> stoppers;
    stoppers.reserve(k_threads);
    for (int t = 0; t < k_threads; ++t)
        stoppers.emplace_back([&server, port] {
            server.stop();
            // stop() returned => the drain is complete for *this* caller
            // too, so the listening socket must be closed already.
            EXPECT_EQ(roundtrip(port, "GET", "/healthz").status, 0);
        });
    for (auto& stopper : stoppers) stopper.join();
}

TEST(Server, ResultCacheConcurrentInsertFindEvict) {
    // The LRU list and index share one mutex; hammer insert/find/evict from
    // several threads (32 hot keys against capacity 8 forces constant
    // eviction) and check the structural invariants afterwards.
    ResultCache cache(8);
    constexpr int k_threads = 4;
    constexpr int k_ops = 400;
    std::vector<std::thread> workers;
    workers.reserve(k_threads);
    for (int t = 0; t < k_threads; ++t)
        workers.emplace_back([&cache, t] {
            for (int i = 0; i < k_ops; ++i) {
                const auto key = "key-" + std::to_string((t * k_ops + i) % 32);
                if (cache.find(key) == nullptr)
                    cache.insert(key, std::make_shared<verify::VerifyResult>());
            }
        });
    for (auto& worker : workers) worker.join();
    EXPECT_GT(cache.size(), 0u);
    EXPECT_LE(cache.size(), cache.capacity());
    const auto snap = telemetry::snapshot();
    const auto high_water = snap.gauges[static_cast<std::size_t>(
        telemetry::Gauge::cache_entries_high_water)];
    EXPECT_GE(high_water, 1u); // raised under the same lock as the insert
}

// --- option-layer units shared with the daemon (src/cli/options) ---------

TEST(ServerOptions, SplitQueriesHandlesCommentsAndSemicolons) {
    const auto queries = cli::split_queries(
        "# comment line\n<ip> .* <ip> 0 ; <ip> [.#v0] .* <ip> 1\n\n  \t\n<ip> .* <ip> 2\n");
    ASSERT_EQ(queries.size(), 3u);
    EXPECT_EQ(queries[0], "<ip> .* <ip> 0");
    EXPECT_EQ(queries[1], "<ip> [.#v0] .* <ip> 1"); // '#' kept inside link atoms
    EXPECT_EQ(queries[2], "<ip> .* <ip> 2");
}

TEST(ServerOptions, LoadersThrowInsteadOfExiting) {
    EXPECT_THROW((void)cli::read_file("/nonexistent/file"), cli::io_error);
    EXPECT_THROW((void)cli::load_network(cli::NetworkSource{}), cli::usage_error);
    cli::NetworkSource bad_demo;
    bad_demo.demo = "bogus";
    EXPECT_THROW((void)cli::load_network(bad_demo), cli::usage_error);
    cli::NetworkDocuments docs;
    docs.topology_xml = "<broken";
    docs.routing_xml = "<routes/>";
    EXPECT_THROW((void)cli::load_network(docs), std::exception);
}

TEST(ServerOptions, VerifySpecValidation) {
    WeightExpr weights;
    cli::VerifySpec spec;
    spec.engine = "weighted";
    EXPECT_THROW((void)cli::make_verify_options(spec, weights), cli::usage_error);
    spec.engine = "nope";
    EXPECT_THROW((void)cli::make_verify_options(spec, weights), cli::usage_error);
    spec.engine = "dual";
    spec.reduction = 7;
    EXPECT_THROW((void)cli::make_verify_options(spec, weights), cli::usage_error);
    spec.reduction = 1;
    spec.weight = "hops";
    const auto options = cli::make_verify_options(spec, weights);
    EXPECT_EQ(options.engine, verify::EngineKind::Weighted);
    EXPECT_EQ(options.reduction_level, 1);
}

/// The result cache and the Reverifier's session pool key on
/// VerifySpec::append_key: a field it left out would hand one spec's answer
/// to another.  Every single-field change must change the key.
TEST(ServerOptions, VerifySpecKeyCoversEveryField) {
    const auto key_of = [](const cli::VerifySpec& spec) {
        return cache_key(1, 0, k_yes_query, spec);
    };
    std::vector<std::string> keys{key_of({})};
    const auto with = [&](auto edit) {
        cli::VerifySpec spec;
        edit(spec);
        keys.push_back(key_of(spec));
    };
    with([](cli::VerifySpec& spec) { spec.engine = "moped"; });
    with([](cli::VerifySpec& spec) { spec.weight = "hops"; });
    with([](cli::VerifySpec& spec) { spec.reduction = 1; });
    with([](cli::VerifySpec& spec) { spec.trace = false; });
    with([](cli::VerifySpec& spec) { spec.witnesses = 2; });
    with([](cli::VerifySpec& spec) { spec.max_iterations = 5; });
    with([](cli::VerifySpec& spec) { spec.translation = "eager"; });
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << "edits " << i << " and " << j;
}

} // namespace
} // namespace aalwines::server
