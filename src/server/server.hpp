#pragma once
// `aalwines serve` — the long-running verification daemon's socket front
// end.  A single acceptor thread feeds a bounded queue of accepted
// connections; a fixed worker pool pops, reads one HTTP request, answers
// through the Service, and closes.  Admission control: when the queue is
// full the acceptor replies `503 Service Unavailable` + `Retry-After`
// immediately instead of queueing unboundedly.  `request_stop()` is
// async-signal-safe (a self-pipe write), so SIGINT/SIGTERM drain
// gracefully: stop accepting, finish queued and in-flight requests, join.

#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/service.hpp"
#include "util/mutex.hpp"

namespace aalwines::server {

struct ServerConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;          ///< 0 = ephemeral, read back via port()
    std::size_t workers = 0;         ///< 0 = hardware concurrency
    std::size_t queue_capacity = 64; ///< pending-connection bound
    long deadline_ms = 0; ///< max queue wait before a request is expired (504); 0 = off
    std::size_t max_body_bytes = 64ull << 20;
    /// Test instrumentation: runs in the worker after the request is read,
    /// before it is handled (used to hold requests in flight).
    std::function<void(const http::Request&)> on_request;
};

class Server {
public:
    Server(Service& service, ServerConfig config);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen and spawn acceptor + workers.  Throws std::runtime_error
    /// when the address cannot be bound.
    void start();

    /// The bound port (after start()); useful with an ephemeral port 0.
    [[nodiscard]] std::uint16_t port() const { return _port; }

    /// Async-signal-safe shutdown trigger: stop accepting, drain, exit.
    void request_stop() noexcept;

    /// Block until the daemon has drained and every thread is joined.
    /// Safe to call from several threads: the first caller joins, the
    /// others block until the drain completes (none returns early).
    void wait();

    /// request_stop() + wait().
    void stop();

    /// Pending (accepted, not yet handled) connections — for /metrics/tests.
    [[nodiscard]] std::size_t queue_depth() const;

private:
    struct Pending {
        int fd = -1;
        std::chrono::steady_clock::time_point accepted;
    };

    void accept_loop();
    void worker_loop();
    void serve_connection(Pending pending);

    Service& _service;
    ServerConfig _config;        ///< immutable after construction
    std::uint16_t _port = 0;     ///< written by start() before any thread spawns
    int _listen_fd = -1;         ///< owned by the acceptor thread after start()
    int _wake_read = -1, _wake_write = -1; ///< written by start() before spawning

    mutable util::Mutex _mutex;
    util::CondVar _ready; ///< signals _queue growth and the drain flag
    std::deque<Pending> _queue GUARDED_BY(_mutex);
    bool _draining GUARDED_BY(_mutex) = false;

    // _acceptor/_workers are written by start() before any concurrency and
    // joined by the single wait() caller that won _join_started.
    std::thread _acceptor;
    std::vector<std::thread> _workers;
    bool _started = false; ///< main-thread only (start() / destructor)
    util::CondVar _join_cv;
    bool _join_started GUARDED_BY(_mutex) = false;
    bool _join_done GUARDED_BY(_mutex) = false;
};

} // namespace aalwines::server
