#include "server/workspace.hpp"

#include <algorithm>

namespace aalwines::server {

Workspace WorkspaceRegistry::lookup(const Entry& entry) {
    auto snapshot = entry.reverifier->snapshot();
    return {entry.id, entry.sequence, entry.reverifier, snapshot.generation,
            std::move(snapshot.network)};
}

Workspace WorkspaceRegistry::add(Network&& network) {
    Entry entry;
    entry.reverifier = std::make_shared<delta::Reverifier>(
        std::make_shared<const Network>(std::move(network)));
    {
        const util::MutexLock lock(_mutex);
        entry.sequence = _next_sequence++;
        entry.id = "n" + std::to_string(entry.sequence);
        _entries.push_back(entry);
    }
    return lookup(entry);
}

std::optional<Workspace> WorkspaceRegistry::find(const std::string& id) const {
    std::optional<Entry> found;
    {
        const util::MutexLock lock(_mutex);
        for (const auto& entry : _entries)
            if (entry.id == id) found = entry;
    }
    if (!found) return std::nullopt;
    return lookup(*found);
}

bool WorkspaceRegistry::erase(const std::string& id) {
    const util::MutexLock lock(_mutex);
    const auto it = std::find_if(_entries.begin(), _entries.end(),
                                 [&](const Entry& entry) { return entry.id == id; });
    if (it == _entries.end()) return false;
    _entries.erase(it);
    return true;
}

std::vector<Workspace> WorkspaceRegistry::list() const {
    std::vector<Entry> entries;
    {
        const util::MutexLock lock(_mutex);
        entries = _entries;
    }
    std::vector<Workspace> workspaces;
    for (const auto& entry : entries) workspaces.push_back(lookup(entry));
    return workspaces;
}

std::size_t WorkspaceRegistry::size() const {
    const util::MutexLock lock(_mutex);
    return _entries.size();
}

} // namespace aalwines::server
