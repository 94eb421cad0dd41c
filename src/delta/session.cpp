#include "delta/session.hpp"

#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace aalwines::delta {

namespace {

/// The links `effects` changed, split by how they reach a control state's
/// rules (the two bitmaps of Translation::rebase and LinkFootprint::touches).
/// `dirty`: the link's own entries emit different rules — entry edits,
/// up/down flips and, weighted, repricing.  `behavior`: the link changed as
/// an out-link — up/down flips (skipped rules, failure budget, initial-state
/// membership) and, weighted, distance (rule and entry weights).  A pure
/// entry edit never lands in `behavior`, so forwarding *into* an edited link
/// stays untouched and the common single-entry delta is usually reused.
/// Distance only prices rules, which an unweighted run never reads.
struct ChangedLinks {
    std::vector<bool> dirty;
    std::vector<bool> behavior;
};

ChangedLinks changed_links(const DeltaEffects& effects, std::size_t n_links,
                           bool weighted) {
    ChangedLinks out{std::vector<bool>(n_links, false), std::vector<bool>(n_links, false)};
    for (const auto link : effects.entry_links) out.dirty[link] = true;
    for (const auto link : effects.state_links) out.dirty[link] = out.behavior[link] = true;
    if (weighted)
        for (const auto link : effects.distance_links)
            out.dirty[link] = out.behavior[link] = true;
    return out;
}

} // namespace

std::string_view to_string(Tier tier) {
    switch (tier) {
        case Tier::Reused: return "reused";
        case Tier::Warm: return "warm";
        case Tier::Cold: return "cold";
    }
    return "?";
}

bool warm_capable(const verify::VerifyOptions& options) {
    return options.engine == verify::EngineKind::Dual ||
           options.engine == verify::EngineKind::Weighted;
}

Session::Session(std::string query_text, const verify::VerifyOptions& options,
                 std::shared_ptr<const verify::CompiledNfas> nfas)
    : _text(std::move(query_text)), _options(options), _nfas(std::move(nfas)) {}

Session::Answer Session::answer(std::shared_ptr<const Network> target,
                                const DeltaEffects* since_anchor,
                                const DeltaEffects* since_live, bool anchor) {
    const auto n_links = target->topology.link_count();
    const auto* weights = verify::translation_weights(_options);
    if (_anchor && since_anchor != nullptr && !since_anchor->label_added) {
        const auto changed = changed_links(*since_anchor, n_links, weights != nullptr);
        if (!_anchor->footprint.touches(changed.dirty, changed.behavior)) {
            telemetry::count(telemetry::Counter::delta_tier1_reused);
            return {Tier::Reused, _anchor->result};
        }
    }

    const bool warm = warm_capable(_options);
    Answer out;
    try {
        if (_cache != nullptr && since_live != nullptr && !since_live->label_added) {
            const auto changed = changed_links(*since_live, n_links, weights != nullptr);
            _cache->rebase(*target, changed.dirty, changed.behavior);
            out.tier = Tier::Warm;
        } else {
            _cache.reset(); // it points into the fields replaced next
            _query = query::parse_query(_text, *target);
            if (warm) {
                _cache = _nfas != nullptr ? std::make_unique<verify::TranslationCache>(
                                                *target, _query, weights, /*lazy=*/true, _nfas)
                                          : std::make_unique<verify::TranslationCache>(
                                                *target, _query, weights, /*lazy=*/true);
            }
        }
        _network = std::move(target);
        out.result = _cache != nullptr
                         ? verify::verify(*_network, _query, _options, *_cache)
                         : verify::verify(*_network, _query, _options);
    } catch (...) {
        _cache.reset();
        throw;
    }
    if (warm && anchor) {
        // Frozen now, while the translation holds exactly what this answer's
        // saturations materialized.
        verify::LinkFootprint footprint;
        if (const auto* over = _cache->over_or_null()) over->add_to_footprint(footprint);
        if (const auto* under = _cache->under_or_null()) under->add_to_footprint(footprint);
        _anchor = Anchor{out.result, std::move(footprint)};
    }
    telemetry::count(out.tier == Tier::Warm ? telemetry::Counter::delta_tier2_resaturations
                                            : telemetry::Counter::delta_cold_rebuilds);
    return out;
}

} // namespace aalwines::delta
