#pragma once
// Incremental re-verification over a patched network: the what-if PATCH
// pipeline.
//
// A Reverifier owns the evolving network (a chain of copy-on-write
// snapshots minted by apply()) and a pool of per-query delta::Sessions
// (delta/session.hpp, which decides between the reused, warm and cold
// tiers).  Re-answering a query hands its session the effects of every
// delta since the session's generation.  The snapshots form a chain, so
// every computed answer re-anchors its session.  Cold also covers first
// sight of a query, an effects window overflow, a concurrently busy session
// and engines that cannot rebase (no session is kept for those).
//
// Thread-safe: apply() and verify() may race freely; a session is used by
// at most one verification at a time (competitors fall back to Cold).

#include <cstdint>
#include <deque>
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
    /// `network`: the generation-0 snapshot.  `max_sessions` bounds the
    /// per-query session pool (LRU-evicted; 0 disables sessions entirely,
    /// making every verify() Cold).
    explicit Reverifier(std::shared_ptr<const Network> network,
                        std::size_t max_sessions = 64);
    ~Reverifier();

    Reverifier(const Reverifier&) = delete;
    Reverifier& operator=(const Reverifier&) = delete;

    struct Applied {
        std::uint64_t generation = 0; ///< the generation the delta produced
        DeltaEffects effects;         ///< what it disturbed (deduplicated)
    };

    /// Apply a delta on top of the current snapshot and publish the result
    /// as the next generation.  Throws model_error when the delta does not
    /// resolve; nothing is published in that case.  In-flight
    /// verifications keep their own snapshot and are unaffected.
    Applied apply(const NetworkDelta& delta);

    struct Outcome {
        verify::VerifyResult result;
        Tier path = Tier::Cold;
        std::uint64_t generation = 0; ///< generation the result was computed on
    };

    /// Verify `query_text` under `spec` against the current generation.
    /// Throws what query parsing / option resolution throw (parse_error,
    /// usage_error, model_error); engine-level errors also propagate.
    [[nodiscard]] Outcome verify(const std::string& query_text,
                                 const cli::VerifySpec& spec);

    /// The current snapshot (for stats endpoints; cheap pointer copy).
    [[nodiscard]] std::shared_ptr<const Network> network() const;
    [[nodiscard]] std::uint64_t generation() const;

private:
    struct Slot;

    /// Union of the per-generation effects in (base, current]; nullopt when
    /// the window no longer reaches back to `base` (session must go Cold).
    [[nodiscard]] std::optional<DeltaEffects> effects_since(std::uint64_t base) const
        REQUIRES(_mutex);

    mutable util::Mutex _mutex;
    std::shared_ptr<const Network> _network GUARDED_BY(_mutex);
    std::uint64_t _generation GUARDED_BY(_mutex) = 0;
    /// effects of the delta generation g -> g+1 sits at index
    /// g - _effects_base; trimmed from the front once the window exceeds
    /// k_effects_window (sessions older than the window rebuild Cold).
    std::deque<DeltaEffects> _effects GUARDED_BY(_mutex);
    std::uint64_t _effects_base GUARDED_BY(_mutex) = 0;
    std::unordered_map<std::string, std::unique_ptr<Slot>> _sessions GUARDED_BY(_mutex);
    std::uint64_t _session_clock GUARDED_BY(_mutex) = 0; ///< LRU tick
    std::size_t _max_sessions;

    static constexpr std::size_t k_effects_window = 1024;
};

} // namespace aalwines::delta
