#pragma once
// Re-answering one query on variants of one network: the reused / warm /
// cold decision shared by PATCH re-answers (delta::Reverifier) and sweep
// cells (verify::run_sweep).
//
// A Session holds the query text and its options, the live lazy translation
// (a verify::TranslationCache plus the snapshot it is based on) and an
// *anchor*: the last answer it may hand out unchanged, plus the
// verify::LinkFootprint frozen right after that answer's saturation.  The
// anchor is immutable and shared, so the Reverifier's answer store serves it
// without claiming the session.  answer() reaches a target snapshot by the
// cheapest of three tiers:
//
//   Reused — the changes since the anchor miss its footprint, so a cold run
//            would replay the anchor's saturation transcript: the anchor's
//            answer is returned without running anything.
//   Warm   — the live translation is rebased over the changes since it
//            (invalidating only the affected frontier, see
//            Translation::rebase) and saturation re-runs; untouched
//            materialized states are reused.  Needs a warm-capable run and
//            no minted label.
//   Cold   — the query is re-parsed against the target (a minted label can
//            change what its atoms match) and verified from a fresh
//            translation.
//
// All three answer byte-identically to a cold verify() of the target.  The
// caller decides which computed answers become the anchor: the Reverifier
// re-anchors on every one (its snapshots form a chain), a sweep chain
// anchors only its first (its scenarios form a star around the base
// network).  Every answer counts its tier in the delta_tier1_reused /
// delta_tier2_resaturations / delta_cold_rebuilds telemetry counters.
// Moped and Exact answers are anchored without a footprint: they are
// valid on their own snapshot only.
//
// Not thread-safe: one answer() at a time per session.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "delta/delta.hpp"
#include "query/query.hpp"
#include "verify/engine.hpp"
#include "verify/translation.hpp"

namespace aalwines::delta {

/// How an answer was obtained.
enum class Tier : std::uint8_t { Reused, Warm, Cold };

[[nodiscard]] std::string_view to_string(Tier tier);

/// Whether a run can rebase, and so keep a live translation and an anchor:
/// only the native post* engines, which translate lazily.  Moped
/// re-serialises and Exact re-enumerates from scratch every time.
[[nodiscard]] bool warm_capable(const verify::VerifyOptions& options);

/// An answer plus, for a warm-capable run, the footprint frozen right after
/// its saturations.
struct Anchor {
    verify::VerifyResult result;
    std::optional<verify::LinkFootprint> footprint; ///< none: Moped or Exact

    /// Whether a cold run after `changes` (from the anchor's snapshot, on a
    /// network of `n_links` links) would replay the anchor's saturations and
    /// so give its answer.  Never for a minted label or without a footprint.
    [[nodiscard]] bool carries_over(const DeltaEffects& changes, std::size_t n_links,
                                    bool weighted) const;
};

class Session {
public:
    /// `options.weights` must outlive the session.  `nfas`, when set, are the
    /// query's NFAs compiled against a network with the same links and
    /// labels as every target; each translation then shares them instead of
    /// compiling its own.
    Session(std::string query_text, const verify::VerifyOptions& options,
            std::shared_ptr<const verify::CompiledNfas> nfas = nullptr);
    /// The live translation points into the session's own fields.
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    struct Answer {
        Tier tier = Tier::Cold;
        verify::VerifyResult result;
    };

    /// Answer the query on `target`.  `since_anchor` and `since_live` are
    /// the changes from the anchor's and from the live translation's
    /// snapshot to `target`; nullptr means unknown and rules that tier out.
    /// With `anchor`, a computed answer becomes the new anchor.  Throws
    /// what parsing and verification throw; the live translation is dropped
    /// then (it may be half-rebased), the anchor stays.
    [[nodiscard]] Answer answer(std::shared_ptr<const Network> target,
                                const DeltaEffects* since_anchor,
                                const DeltaEffects* since_live, bool anchor);

    /// The current anchor; null before the first anchored answer.
    [[nodiscard]] const std::shared_ptr<const Anchor>& anchor() const noexcept {
        return _anchor;
    }

private:
    std::string _text;
    verify::VerifyOptions _options;
    std::shared_ptr<const verify::CompiledNfas> _nfas;
    std::shared_ptr<const Network> _network; ///< snapshot `_cache` is based on
    query::Query _query;                     ///< parsed against `_network`
    std::unique_ptr<verify::TranslationCache> _cache; ///< points into the two above
    std::shared_ptr<const Anchor> _anchor;
};

} // namespace aalwines::delta
