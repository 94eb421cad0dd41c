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

#include "delta/reverify.hpp"
#include "util/mutex.hpp"

namespace aalwines::server {

/// A workspace as one lookup saw it.
struct Workspace {
    std::string id; ///< registry handle, "n1", "n2", ...
    /// The only holder of the workspace's snapshot chain and its answer
    /// store, from registration on: a PATCH publishes through its apply(),
    /// and every query is answered by its verify().
    std::shared_ptr<delta::Reverifier> reverifier;
    /// The snapshot current at the lookup, read under one lock.  Generation
    /// 0 is the network as loaded, +1 per applied PATCH.
    std::uint64_t generation = 0;
    std::shared_ptr<const Network> network;
};

/// Thread-safe id → Reverifier map.  Erase only unlinks — in-flight
/// requests keep their shared_ptr alive until they finish.
class WorkspaceRegistry {
public:
    /// Register a loaded network as generation 0 and mint its id.
    Workspace add(Network&& network);

    /// Look up by id; nullopt when unknown.
    [[nodiscard]] std::optional<Workspace> find(const std::string& id) const;

    /// Unlink a workspace; false when the id is unknown.
    bool erase(const std::string& id);

    [[nodiscard]] std::vector<Workspace> list() const;
    [[nodiscard]] std::size_t size() const;

private:
    struct Entry {
        std::string id;
        std::shared_ptr<delta::Reverifier> reverifier;
    };

    /// The entry with its Reverifier's current snapshot.  Called without the
    /// registry mutex: apply() holds the Reverifier's lock while it copies
    /// the network, and other lookups must not wait on that.
    static Workspace lookup(const Entry& entry);

    mutable util::Mutex _mutex;
    std::vector<Entry> _entries GUARDED_BY(_mutex);
    std::uint64_t _next_id GUARDED_BY(_mutex) = 1;
};

} // namespace aalwines::server
