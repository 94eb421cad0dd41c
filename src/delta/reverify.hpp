#pragma once
// Incremental re-verification over a patched network: the what-if PATCH
// pipeline, and a daemon workspace's one answer store.
//
// A Reverifier owns the evolving network (a chain of copy-on-write
// snapshots minted by apply()) and one store entry per (query text, spec)
// pair.  An entry holds the last computed answer as an immutable
// delta::Anchor — the answer, its generation and, for Dual and Weighted, the
// footprint frozen right after it — and, while it has one, the live
// translation of its delta::Session (delta/session.hpp).
//
// verify() serves an entry without verifying (tier Reused) when its
// generation is current, or when every delta since its generation misses its
// footprint; Moped and Exact answers have no footprint and are served only
// at their own generation.  Serving claims nothing; the footprint check runs
// outside the lock, and a pass is recorded on the entry, so a repeat at the
// same generation is served in O(1).  Otherwise the entry's session answers
// warm (rebasing its live translation over the deltas since) or cold, and
// the answer re-anchors the entry.  Cold also covers first sight of a query,
// a minted label, an effects window overflow and a concurrently busy
// session, which is answered through an unpooled session rather than waited
// on.
//
// Generation 0 keeps no live translation: a never-patched network (a daemon
// workspace often is one) keeps only its anchors, as a live translation
// costs about half a MB at 1,600 chains; the first delta that touches a
// footprint then answers cold, and later ones warm.
//
// Caps: k_max_entries entries and k_max_sessions live translations, each
// LRU-evicted in O(1) once an answer is stored, so a failing query evicts
// nothing.
//
// Thread-safe: apply() and verify() may race freely; a session is used by
// at most one verification at a time.

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "cli/options.hpp"
#include "delta/delta.hpp"
#include "delta/session.hpp"
#include "util/mutex.hpp"
#include "verify/engine.hpp"

namespace aalwines::delta {

/// The tier a verify() answer took.
using VerifyPath = Tier;

class Reverifier {
public:
    /// `network`: the generation-0 snapshot.
    explicit Reverifier(std::shared_ptr<const Network> network);
    ~Reverifier();

    Reverifier(const Reverifier&) = delete;
    Reverifier& operator=(const Reverifier&) = delete;

    struct Applied {
        std::uint64_t generation = 0;           ///< the generation the delta produced
        std::shared_ptr<const Network> network; ///< that generation's snapshot
        DeltaEffects effects;                   ///< what it disturbed (deduplicated)
    };

    /// Apply a delta on top of the current snapshot and publish the result
    /// as the next generation.  Throws model_error when the delta does not
    /// resolve; nothing is published in that case.  In-flight
    /// verifications keep their own snapshot and are unaffected.
    Applied apply(const NetworkDelta& delta);

    /// One published generation and its network.
    struct Snapshot {
        std::shared_ptr<const Network> network;
        std::uint64_t generation = 0; ///< 0 as constructed, +1 per apply()
    };

    struct Outcome {
        verify::VerifyResult result;
        Tier path = Tier::Cold; ///< Reused: served from the store
        /// The snapshot the result answers for; render it with this one,
        /// which a concurrent apply() may already have superseded.
        Snapshot snapshot;
    };

    /// Answer `query_text` under `spec` on the current generation.  Throws
    /// what query parsing / option resolution throw (parse_error,
    /// usage_error, model_error); engine-level errors also propagate.
    [[nodiscard]] Outcome verify(const std::string& query_text,
                                 const cli::VerifySpec& spec);

    /// The current snapshot, network and generation read under one lock.
    [[nodiscard]] Snapshot snapshot() const;
    /// The current snapshot's network (cheap pointer copy).
    [[nodiscard]] std::shared_ptr<const Network> network() const;
    /// Entries in the answer store.
    [[nodiscard]] std::size_t entries() const;

    static constexpr std::size_t k_max_entries = 256; ///< LRU-evicted beyond this
    static constexpr std::size_t k_max_sessions = 64; ///< live translations, LRU-evicted

private:
    struct Entry;
    using Entries = std::list<Entry>;

    /// Union of the per-generation effects in (base, upto]; nullopt when the
    /// window no longer reaches back to `base` (session must go Cold).
    [[nodiscard]] std::optional<DeltaEffects> effects_since(std::uint64_t base,
                                                            std::uint64_t upto) const
        REQUIRES(_mutex);
    /// Claim an idle `entry` to answer generation `generation`, with the
    /// deltas its live translation must rebase over in `since`.
    bool try_claim(Entries::iterator entry, std::uint64_t generation,
                   std::optional<DeltaEffects>& since) REQUIRES(_mutex);
    /// Drop the least recently used idle entries past k_max_entries and idle
    /// live translations past k_max_sessions.
    void evict() REQUIRES(_mutex);
    void erase(Entries::iterator entry) REQUIRES(_mutex);

    mutable util::Mutex _mutex;
    Snapshot _current GUARDED_BY(_mutex);
    /// effects of the delta generation g -> g+1 sits at index
    /// g - _effects_base; trimmed from the front once the window exceeds
    /// k_effects_window (entries older than the window rebuild Cold).
    std::deque<DeltaEffects> _effects GUARDED_BY(_mutex);
    std::uint64_t _effects_base GUARDED_BY(_mutex) = 0;
    Entries _entries GUARDED_BY(_mutex); ///< front = most recently used
    std::unordered_map<std::string, Entries::iterator> _index GUARDED_BY(_mutex);
    std::list<Entries::iterator> _live GUARDED_BY(_mutex); ///< with a session, MRU first

    static constexpr std::size_t k_effects_window = 1024;
};

} // namespace aalwines::delta
