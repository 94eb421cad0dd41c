#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "io/formats.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"

namespace perfbench {

using namespace aalwines;

void Result::fail(const std::string& what) {
    ++failed;
    std::cerr << "perfbench: oracle: " << what << "\n";
}

void add_common_metrics(Result& out, const std::vector<double>& setup_ms,
                        std::size_t inconclusive, std::size_t answers, double calib_start_ms) {
    out.add("setup_s", median(setup_ms) / 1000.0, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("success_rate",
            1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted), "share");
    out.add("conclusive_rate",
            1.0 - static_cast<double>(inconclusive) / static_cast<double>(answers), "share");
    std::cerr << "perfbench: host.calib_ms start=" << calib_start_ms
              << " end=" << calibrate_host_ms() << "\n";
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double calibrate_host_ms() {
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        const auto ms = ms_since(start);
        // Keep the loop observable so it cannot be folded away.
        if (x == 42) std::cerr << "";
        samples.push_back(ms);
    }
    return median(std::move(samples));
}

double peak_rss_mb() { return static_cast<double>(telemetry::peak_rss_kb()) / 1024.0; }

std::size_t parallelism() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

namespace {
thread_local std::int64_t t_open_span = -1;

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next++;
    return index;
}
} // namespace

Tracer::Tracer() : _epoch(Clock::now()) {}

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t op)
    : _tracer(tracer), _start(Clock::now()) {
    if (_tracer == nullptr) return;
    const std::lock_guard lock(_tracer->_mutex);
    _index = _tracer->_records.size();
    Record record;
    record.name = name;
    record.op = op;
    record.parent = t_open_span;
    record.thread = thread_index();
    record.start_us =
        std::chrono::duration<double, std::micro>(_start - _tracer->_epoch).count();
    _tracer->_records.push_back(record);
    t_open_span = static_cast<std::int64_t>(_index);
}

double Tracer::Span::close() {
    if (_ms >= 0) return _ms;
    const auto end = Clock::now();
    _ms = ms_between(_start, end);
    if (_tracer != nullptr) {
        const std::lock_guard lock(_tracer->_mutex);
        auto& record = _tracer->_records[_index];
        record.end_us =
            std::chrono::duration<double, std::micro>(end - _tracer->_epoch).count();
        t_open_span = record.parent;
    }
    return _ms;
}

bool Tracer::write_chrome(const std::string& path) const {
    json::Array events;
    {
        const std::lock_guard lock(_mutex);
        events.reserve(_records.size());
        for (std::size_t i = 0; i < _records.size(); ++i) {
            const auto& record = _records[i];
            json::Object args;
            args.emplace("op", static_cast<std::size_t>(record.op));
            args.emplace("span", i);
            args.emplace("parent", static_cast<std::int64_t>(record.parent));
            json::Object event;
            event.emplace("name", record.name);
            event.emplace("ph", "X");
            event.emplace("pid", 1);
            event.emplace("tid", static_cast<std::size_t>(record.thread));
            event.emplace("ts", record.start_us);
            event.emplace("dur", std::max(0.0, record.end_us - record.start_us));
            event.emplace("args", json::Value(std::move(args)));
            events.emplace_back(std::move(event));
        }
    }
    json::Object document;
    document.emplace("traceEvents", json::Value(std::move(events)));
    document.emplace("displayTimeUnit", "ms");
    std::ofstream out(path);
    if (!out) return false;
    out << json::write(json::Value(std::move(document))) << "\n";
    return static_cast<bool>(out);
}

HttpReply http_request(std::uint16_t port, const std::string& method,
                       const std::string& target, const std::string& body) {
    HttpReply reply;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return reply;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
        ::close(fd);
        return reply;
    }
    const std::string request = method + " " + target + " HTTP/1.1\r\nHost: perfbench\r\n" +
                                "Content-Type: application/json\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const auto n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            return reply;
        }
        sent += static_cast<std::size_t>(n);
    }
    std::string raw;
    char buffer[16384];
    for (;;) {
        const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        raw.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
    const auto space = raw.find(' ');
    const auto header_end = raw.find("\r\n\r\n");
    if (space == std::string::npos || header_end == std::string::npos) return reply;
    reply.status = std::atoi(raw.c_str() + space + 1);
    reply.body = raw.substr(header_end + 4);
    return reply;
}

Fixture make_fixture(std::size_t service_chains) {
    Fixture fixture;
    fixture.net = synthesis::make_nordunet_like(service_chains, 1);
    fixture.topology_xml = io::write_topology_xml(fixture.net.network.topology,
                                                  fixture.net.network.name);
    fixture.routing_xml = io::write_routing_xml(fixture.net.network);
    return fixture;
}

namespace {
server::ServerConfig daemon_config() {
    server::ServerConfig config;
    config.workers = parallelism();
    return config;
}
} // namespace

Daemon::Daemon() : _service(server::ServiceConfig{}), _server(_service, daemon_config()) {
    _server.start();
}

Daemon::~Daemon() { _server.stop(); }

std::string load_network(std::uint16_t port, server::Service* service,
                         const Fixture& fixture) {
    json::Object object;
    object.emplace("topologyXml", fixture.topology_xml);
    object.emplace("routingXml", fixture.routing_xml);
    const auto body = json::write(json::Value(std::move(object)));
    const auto reply = service != nullptr ? handle_direct(*service, "POST", "/networks", body)
                                          : http_request(port, "POST", "/networks", body);
    if (reply.status != 201)
        throw std::runtime_error("POST /networks answered " + std::to_string(reply.status) +
                                 ": " + reply.body.substr(0, 200));
    return json::parse(reply.body).at("id").as_string();
}

HttpReply handle_direct(server::Service& service, const std::string& method,
                        const std::string& target, const std::string& body) {
    server::http::Request request;
    request.method = method;
    request.target = target;
    request.headers.emplace("content-type", "application/json");
    request.headers.emplace("content-length", std::to_string(body.size()));
    request.body = body;
    auto response = service.handle(request);
    return {response.status, std::move(response.body)};
}

std::string canonical_result(const Network& network, const std::string& query_text,
                             const verify::VerifyResult& result) {
    auto value = io::result_to_json_value(network, query_text, result, false);
    value.as_object().erase("seconds");
    return json::write(value);
}

std::string canonical_reply(const std::string& body) {
    auto value = json::parse(body);
    if (!value.is_object()) return body;
    auto& object = value.as_object();
    object.erase("seconds");
    object.erase("cached");
    object.erase("path");
    return json::write(value);
}

std::uint64_t counter_delta(const telemetry::Snapshot& before,
                            const telemetry::Snapshot& after, telemetry::Counter counter) {
    return after.counter(counter) - before.counter(counter);
}

double cache_hit_ratio(const telemetry::Snapshot& before, const telemetry::Snapshot& after) {
    const auto hits = counter_delta(before, after, telemetry::Counter::server_cache_hits);
    const auto misses = counter_delta(before, after, telemetry::Counter::server_cache_misses);
    return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                             : 0.0;
}

std::string quoted(const std::string& text) { return json::write(json::Value(text)); }

} // namespace perfbench
