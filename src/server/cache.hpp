#pragma once
// Compiled-query LRU cache: memoizes VerifyResults keyed by everything that
// determines them — network workspace, query text, engine, weight
// expression, witness count, iteration cap and trace flag
// (cli::VerifySpec::append_key).  Repeat queries (the dominant interactive
// pattern: re-checking the same invariants after each what-if edit) skip
// parse, translation and saturation entirely.  Hit/miss totals land in the
// telemetry registry (server_cache_hits / server_cache_misses) and in
// /metrics.

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "cli/options.hpp"
#include "util/mutex.hpp"
#include "verify/engine.hpp"

namespace aalwines::server {

/// Build the canonical cache key.  `sequence` is the workspace's load
/// sequence number, so re-loading a network never resurrects stale results;
/// `generation` is its delta generation, so a PATCH retires every result
/// computed against the pre-patch snapshot even if eviction lags.
[[nodiscard]] std::string cache_key(std::uint64_t sequence, std::uint64_t generation,
                                    const std::string& query_text,
                                    const cli::VerifySpec& spec);

/// The key prefix shared by every entry of the workspace with this load
/// sequence — the argument for ResultCache::invalidate after a PATCH.
[[nodiscard]] std::string cache_scope(std::uint64_t sequence);

class ResultCache {
public:
    /// `capacity` = max cached results; 0 disables caching entirely.
    explicit ResultCache(std::size_t capacity) : _capacity(capacity) {}

    /// Look up a result; null on miss.  Hits refresh LRU order and count
    /// telemetry::Counter::server_cache_hits (misses the sibling counter).
    [[nodiscard]] std::shared_ptr<const verify::VerifyResult> find(const std::string& key);

    /// Insert (or refresh) a result, evicting the least recently used
    /// entries beyond capacity.
    void insert(const std::string& key, std::shared_ptr<const verify::VerifyResult> result);

    /// Drop every entry whose key starts with `prefix` (one workspace's
    /// results — see cache_scope), leaving other workspaces' entries alone.
    /// Counts telemetry::Counter::server_cache_evictions; returns how many
    /// entries were dropped.
    std::size_t invalidate(const std::string& prefix);

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const { return _capacity; }

private:
    struct Entry {
        std::string key;
        std::shared_ptr<const verify::VerifyResult> result;
    };

    /// Evict LRU entries beyond capacity and raise the
    /// cache_entries_high_water gauge — called with the size about to
    /// settle, so the gauge never reads _order.size() unlocked.
    void evict_locked() REQUIRES(_mutex);

    mutable util::Mutex _mutex;
    std::size_t _capacity; ///< immutable after construction
    std::list<Entry> _order GUARDED_BY(_mutex); ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> _index
        GUARDED_BY(_mutex);
};

} // namespace aalwines::server
