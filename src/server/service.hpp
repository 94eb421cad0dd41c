#pragma once
// The daemon's REST surface, independent of any socket: maps one HTTP
// request to one JSON response.  Exercised directly by unit tests and
// through src/server/server.hpp in production.
//
//   GET    /healthz              liveness probe
//   GET    /metrics              telemetry snapshot + server/answer-store gauges
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
// Every query is answered by the workspace's delta::Reverifier, its one
// answer store: a stored answer is served again while the deltas since it
// miss its footprint, and otherwise re-answered warm (rebasing its live
// translation) or cold.  A PATCH applies a NetworkDelta (docs/FORMATS.md)
// through the same Reverifier, which publishes the copy-on-write result as
// the next delta generation.
//
// See docs/SERVER.md for the request/response schemas.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "json/json.hpp"
#include "server/access_log.hpp"
#include "server/http.hpp"
#include "server/workspace.hpp"

namespace aalwines::server {

struct ServiceConfig {
    std::string access_log_path;     ///< JSON-lines request log; "" = off, "-" = stdout
    std::uint32_t slow_query_ms = 0; ///< flag+detail requests slower than this; 0 = off
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

    ServiceConfig _config;
    WorkspaceRegistry _workspaces;
    std::function<json::Object()> _runtime_info;
    std::unique_ptr<AccessLog> _access_log;
};

/// JSON error body + status, shared with the socket layer's early replies.
[[nodiscard]] http::Response error_response(int status, const std::string& message);

} // namespace aalwines::server
