#include "server/workspace.hpp"

#include <algorithm>

namespace aalwines::server {

Workspace WorkspaceRegistry::add(Network&& network) {
    const util::MutexLock lock(_mutex);
    Workspace workspace;
    workspace.sequence = _next_sequence++;
    workspace.id = "n" + std::to_string(workspace.sequence);
    workspace.network = std::make_shared<const Network>(std::move(network));
    _workspaces.push_back(workspace);
    return workspace;
}

std::optional<Workspace> WorkspaceRegistry::find(const std::string& id) const {
    const util::MutexLock lock(_mutex);
    for (const auto& workspace : _workspaces)
        if (workspace.id == id) return workspace;
    return std::nullopt;
}

bool WorkspaceRegistry::update_network(const std::string& id,
                                       std::shared_ptr<const Network> network,
                                       std::uint64_t generation) {
    const util::MutexLock lock(_mutex);
    for (auto& workspace : _workspaces) {
        if (workspace.id != id) continue;
        // PATCHes publish after their apply returns, so they can arrive out
        // of order; an older generation must not replace a newer one.
        if (generation > workspace.generation) {
            workspace.network = std::move(network);
            workspace.generation = generation;
        }
        return true;
    }
    return false;
}

bool WorkspaceRegistry::erase(const std::string& id) {
    const util::MutexLock lock(_mutex);
    const auto it = std::find_if(_workspaces.begin(), _workspaces.end(),
                                 [&](const Workspace& w) { return w.id == id; });
    if (it == _workspaces.end()) return false;
    _workspaces.erase(it);
    return true;
}

std::vector<Workspace> WorkspaceRegistry::list() const {
    const util::MutexLock lock(_mutex);
    return _workspaces;
}

std::size_t WorkspaceRegistry::size() const {
    const util::MutexLock lock(_mutex);
    return _workspaces.size();
}

} // namespace aalwines::server
