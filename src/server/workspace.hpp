#pragma once
// Session workspaces for the verification daemon: each loaded network is
// registered once (the expensive load/synthesis/translation amortizes over
// every later query, as the paper's online tool and Tiramisu's shared graph
// construction both exploit) and handed out as shared, immutable state to
// concurrently running query handlers.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/routing.hpp"
#include "util/mutex.hpp"

namespace aalwines::server {

struct Workspace {
    std::string id;                         ///< registry handle, "n1", "n2", ...
    std::uint64_t sequence = 0;             ///< monotonic load sequence number
    /// Delta generation: 0 for the network as loaded, +1 per applied PATCH.
    /// Together with `sequence` it versions every cache key — patching
    /// never resurrects results computed against an older snapshot.
    std::uint64_t generation = 0;
    /// Each snapshot is immutable; a PATCH swaps in a *new* snapshot via
    /// update_network, so handlers that already copied the Workspace keep a
    /// consistent (network, generation) pair for their whole request.
    std::shared_ptr<const Network> network;
};

/// Thread-safe id → network map.  Networks are immutable after
/// registration; erase only unlinks — in-flight queries keep their
/// shared_ptr alive until they finish.
class WorkspaceRegistry {
public:
    /// Register a loaded network and mint its id.
    Workspace add(Network&& network);

    /// Look up by id; nullopt when unknown.
    [[nodiscard]] std::optional<Workspace> find(const std::string& id) const;

    /// Publish a patched snapshot for `id` (see Workspace::generation)
    /// unless a newer generation is already published; false when the id is
    /// unknown (e.g. deleted concurrently).
    bool update_network(const std::string& id, std::shared_ptr<const Network> network,
                        std::uint64_t generation);

    /// Unlink a workspace; false when the id is unknown.
    bool erase(const std::string& id);

    [[nodiscard]] std::vector<Workspace> list() const;
    [[nodiscard]] std::size_t size() const;

private:
    mutable util::Mutex _mutex;
    std::vector<Workspace> _workspaces GUARDED_BY(_mutex);
    std::uint64_t _next_sequence GUARDED_BY(_mutex) = 1;
};

} // namespace aalwines::server
