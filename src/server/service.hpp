#pragma once
// The daemon's REST surface, independent of any socket: maps one HTTP
// request to one JSON response.  Exercised directly by unit tests and
// through src/server/server.hpp in production.
//
//   GET    /healthz              liveness probe
//   GET    /metrics              telemetry snapshot + server/cache gauges
//   GET    /networks             list loaded workspaces
//   POST   /networks             load a network (demo | gml | XML pair)
//   GET    /networks/{id}        workspace statistics
//   PATCH  /networks/{id}        apply a what-if delta (new generation)
//   DELETE /networks/{id}        unload a workspace
//   POST   /networks/{id}/query  verify one query or a batch
//   POST   /networks/{id}/sweep  run an amortized what-if battery (a query
//                                template over endpoint-pair × failure-budget
//                                × link-failure-scenario axes) and return the
//                                health matrix (see verify/sweep.hpp)
//
// A PATCH applies a NetworkDelta (docs/FORMATS.md) to a copy-on-write
// snapshot and publishes it as the workspace's next delta generation; the
// workspace's cached results are evicted and later queries run through a
// delta::Reverifier, which reuses or rebases per-query translation caches
// instead of recompiling from scratch.
//
// See docs/SERVER.md for the request/response schemas.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "delta/reverify.hpp"
#include "json/json.hpp"
#include "server/access_log.hpp"
#include "server/cache.hpp"
#include "server/http.hpp"
#include "server/workspace.hpp"
#include "util/mutex.hpp"

namespace aalwines::server {

struct ServiceConfig {
    std::size_t cache_capacity = 256; ///< compiled-result LRU entries, 0 = off
    std::string access_log_path;      ///< JSON-lines request log; "" = off, "-" = stdout
    std::uint32_t slow_query_ms = 0;  ///< flag+detail requests slower than this; 0 = off
};

class Service {
public:
    explicit Service(ServiceConfig config = {});

    /// Handle one request.  Thread-safe; never throws (internal errors
    /// become 500 responses).  `queue_wait_ms` is the accept-to-worker
    /// delay measured by the socket layer (< 0 = unknown/not queued).
    [[nodiscard]] http::Response handle(const http::Request& request,
                                        double queue_wait_ms = -1.0);

    /// Extra key/values merged into the /metrics "server" object (queue
    /// depth, worker count, ... — installed by the socket front end).
    void set_runtime_info(std::function<json::Object()> provider);

    [[nodiscard]] WorkspaceRegistry& workspaces() { return _workspaces; }
    [[nodiscard]] ResultCache& cache() { return _cache; }

private:
    [[nodiscard]] http::Response route(const http::Request& request, json::Object* log);
    [[nodiscard]] http::Response handle_networks(const http::Request& request);
    [[nodiscard]] http::Response handle_network_item(const http::Request& request,
                                                     const std::string& id,
                                                     const std::string& action,
                                                     json::Object* log);
    [[nodiscard]] http::Response handle_query(const http::Request& request,
                                              const Workspace& workspace,
                                              json::Object* log);
    [[nodiscard]] http::Response handle_sweep(const http::Request& request,
                                              const Workspace& workspace,
                                              json::Object* log);
    [[nodiscard]] http::Response handle_patch(const http::Request& request,
                                              const Workspace& workspace,
                                              json::Object* log);
    [[nodiscard]] http::Response handle_metrics(const http::Request& request);

    /// The workspace's incremental re-verifier.  Created on first demand
    /// (`create` = true, the PATCH path); queries pass false and get null
    /// for never-patched workspaces, keeping their fast verify_batch path.
    [[nodiscard]] std::shared_ptr<delta::Reverifier> reverifier_for(const Workspace& workspace,
                                                                    bool create);

    ServiceConfig _config;
    WorkspaceRegistry _workspaces;
    ResultCache _cache;
    std::function<json::Object()> _runtime_info;
    std::unique_ptr<AccessLog> _access_log;
    mutable util::Mutex _mutex;
    /// Keyed by workspace id; dropped with the workspace.  shared_ptr so a
    /// handler can use one after the workspace was deleted concurrently.
    std::unordered_map<std::string, std::shared_ptr<delta::Reverifier>> _reverifiers
        GUARDED_BY(_mutex);
    /// Per-workspace cache-invalidation totals (PATCHes that evicted), for
    /// /metrics.
    std::unordered_map<std::string, std::uint64_t> _invalidations GUARDED_BY(_mutex);
};

/// JSON error body + status, shared with the socket layer's early replies.
[[nodiscard]] http::Response error_response(int status, const std::string& message);

} // namespace aalwines::server
