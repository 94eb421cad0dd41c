#include "delta/reverify.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace aalwines::delta {

namespace {

// Field separator for session keys (cannot appear in query text or specs).
constexpr char k_sep = '\x1f';

std::string session_key(const std::string& query, const cli::VerifySpec& spec) {
    std::string key = query;
    key += k_sep;
    key += spec.engine;
    key += k_sep;
    key += spec.weight;
    key += k_sep;
    key += std::to_string(spec.reduction);
    key += k_sep;
    key += spec.trace ? '1' : '0';
    key += k_sep;
    key += std::to_string(spec.witnesses);
    key += k_sep;
    key += std::to_string(spec.max_iterations);
    key += k_sep;
    key += spec.translation;
    return key;
}

/// Only the native post* engines with a lazy translation can rebase; Moped
/// re-serialises and Exact re-enumerates from scratch every time, so a
/// session would buy nothing.
bool warm_capable(const verify::VerifyOptions& options) {
    if (options.engine != verify::EngineKind::Dual &&
        options.engine != verify::EngineKind::Weighted)
        return false;
    return verify::use_lazy_translation(options.translation, options.engine);
}

} // namespace

std::string_view to_string(VerifyPath path) {
    switch (path) {
        case VerifyPath::Reused: return "reused";
        case VerifyPath::Warm: return "warm";
        case VerifyPath::Cold: return "cold";
    }
    return "?";
}

/// One per (query text, spec) pair.  Lifecycle: created busy, published in
/// the session map, then mutated only by the thread that claimed `busy`
/// under the Reverifier mutex — the claim/release pairs give the necessary
/// happens-before edges, so the non-flag fields need no lock of their own.
/// Heap-allocated and address-stable: `cache` points into `query`,
/// `weights` and `network`.
struct Reverifier::Session {
    std::shared_ptr<const Network> network; ///< snapshot the cache is based on
    std::uint64_t generation = 0;           ///< that snapshot's generation
    query::Query query;
    WeightExpr weights;
    verify::VerifyOptions options; ///< weights pointer targets `weights`
    std::unique_ptr<verify::TranslationCache> cache;
    verify::VerifyResult last;
    bool has_result = false;
    bool busy = false;
    std::uint64_t last_used = 0; ///< LRU tick
};

Reverifier::Reverifier(std::shared_ptr<const Network> network, std::size_t max_sessions)
    : _network(std::move(network)), _max_sessions(max_sessions) {
    AALWINES_CHECK(_network != nullptr, "Reverifier requires a network snapshot");
}

Reverifier::~Reverifier() = default;

std::shared_ptr<const Network> Reverifier::network() const {
    const util::MutexLock lock(_mutex);
    return _network;
}

std::uint64_t Reverifier::generation() const {
    const util::MutexLock lock(_mutex);
    return _generation;
}

Reverifier::Applied Reverifier::apply(const NetworkDelta& delta) {
    // Resolve-and-publish is one exclusive section so concurrent apply()
    // calls serialise (no lost snapshot); deltas are small, the copy is the
    // dominant cost and in-flight queries never wait on it — they hold
    // their own snapshot.
    const util::MutexLock lock(_mutex);
    auto applied = apply_delta(*_network, delta);
    _network = std::move(applied.network);
    ++_generation;
    _effects.push_back(applied.effects);
    while (_effects.size() > k_effects_window) {
        _effects.pop_front();
        ++_effects_base;
    }
    return {_generation, std::move(applied.effects)};
}

std::optional<DeltaEffects> Reverifier::effects_since(std::uint64_t base) const {
    if (base < _effects_base) return std::nullopt; // window trimmed past it
    DeltaEffects out;
    for (std::uint64_t g = base; g < _generation; ++g) out.merge(_effects[g - _effects_base]);
    return out;
}

Reverifier::Outcome Reverifier::verify(const std::string& query_text,
                                       const cli::VerifySpec& spec) {
    const auto key = session_key(query_text, spec);
    std::shared_ptr<const Network> current;
    std::uint64_t gen = 0;
    Session* session = nullptr;
    std::optional<DeltaEffects> pending; ///< deltas in (session base, current]
    bool session_exists = false;

    {
        const util::MutexLock lock(_mutex);
        current = _network;
        gen = _generation;
        if (auto it = _sessions.find(key); it != _sessions.end()) {
            session_exists = true;
            if (!it->second->busy) {
                session = it->second.get();
                session->busy = true;
                session->last_used = ++_session_clock;
                if (session->generation != gen) pending = effects_since(session->generation);
            }
            // else: another thread is verifying through this session right
            // now; fall through to a standalone cold run rather than wait.
        }
    }

    // Helper: store a warm/cold session result and release the claim.
    const auto finish = [&](Session& s, VerifyPath path,
                            verify::VerifyResult result) -> Outcome {
        Outcome out;
        out.path = path;
        out.generation = s.generation;
        const util::MutexLock lock(_mutex);
        s.last = std::move(result);
        s.has_result = true;
        s.busy = false;
        out.result = s.last;
        return out;
    };
    // Helper: a session failed mid-flight (exception); drop it entirely so
    // no half-rebased cache survives, then let the error propagate.
    const auto drop = [&]() {
        const util::MutexLock lock(_mutex);
        _sessions.erase(key);
    };

    if (session != nullptr) {
        if (session->generation == gen && session->has_result) {
            // Same generation, same query: the stored result is the answer.
            telemetry::count(telemetry::Counter::delta_tier1_reused);
            Outcome out;
            out.path = VerifyPath::Reused;
            out.generation = session->generation;
            const util::MutexLock lock(_mutex);
            out.result = session->last;
            session->busy = false;
            return out;
        }
        bool rebuild = false;
        if (session->generation != gen) {
            if (!pending || pending->label_added) {
                // Effects window overflow, or the alphabet grew: the cached
                // PDA's symbol domain is stale — rebuild from scratch.
                rebuild = true;
            } else {
                // Split the dirty links by how they reach a control state's
                // rules.  `dirty`: the link's own entries emit different
                // rules (entry edits, up/down flips, weighted repricing).
                // `behavior`: the link changed as an *out-link* — up/down
                // flips (skipped rules, failure budget) and, weighted,
                // distance changes; a pure entry edit never lands here, so
                // forwarding *into* an edited link stays untouched and the
                // common single-entry delta reuses Tier 1.  Distance
                // changes only price rules — invisible to an unweighted
                // run.  `behavior` doubles as the initial-state filter: only
                // up/down (membership) and weighted distance (entry weight)
                // can perturb initial configurations.
                const bool weighted = session->options.weights != nullptr &&
                                      !session->options.weights->empty();
                const auto n_links = current->topology.link_count();
                std::vector<bool> dirty(n_links, false);
                std::vector<bool> behavior(n_links, false);
                for (const auto link : pending->entry_links) dirty[link] = true;
                for (const auto link : pending->state_links)
                    dirty[link] = behavior[link] = true;
                if (weighted)
                    for (const auto link : pending->distance_links)
                        dirty[link] = behavior[link] = true;

                const auto touches = [&](verify::Translation* t) {
                    return t != nullptr && (t->footprint_touches(dirty, behavior) ||
                                            t->initial_links_touch(behavior));
                };
                if (session->has_result && !touches(session->cache->over_or_null()) &&
                    !touches(session->cache->under_or_null())) {
                    // Tier 1: no delta reaches the materialized footprint or
                    // an initial-configuration candidate, so a cold rerun
                    // would replay the exact saturation transcript — the
                    // stored result is byte-identical to what it would
                    // compute.  The session deliberately stays at its base
                    // generation (its snapshot keeps the old network alive).
                    telemetry::count(telemetry::Counter::delta_tier1_reused);
                    Outcome out;
                    out.path = VerifyPath::Reused;
                    out.generation = session->generation;
                    const util::MutexLock lock(_mutex);
                    out.result = session->last;
                    session->busy = false;
                    return out;
                }

                // Tier 2: invalidate the affected frontier and re-saturate.
                try {
                    session->cache->rebase(*current, dirty, behavior);
                } catch (...) {
                    drop();
                    throw;
                }
                session->network = current;
                session->generation = gen;
            }
        }

        if (rebuild) {
            try {
                // Reset first: the cache points into the fields replaced next.
                session->cache.reset();
                session->network = current;
                session->generation = gen;
                session->query = query::parse_query(query_text, *current);
                session->weights = {};
                session->options = cli::make_verify_options(spec, session->weights);
                session->has_result = false;
                session->cache = std::make_unique<verify::TranslationCache>(
                    *session->network, session->query, session->options.weights,
                    /*lazy=*/true);
            } catch (...) {
                drop();
                throw;
            }
        }

        verify::VerifyResult result;
        try {
            result = verify::verify(*session->network, session->query, session->options,
                                    *session->cache);
        } catch (...) {
            drop();
            throw;
        }
        telemetry::count(rebuild ? telemetry::Counter::delta_cold_rebuilds
                                 : telemetry::Counter::delta_tier2_resaturations);
        return finish(*session, rebuild ? VerifyPath::Cold : VerifyPath::Warm,
                      std::move(result));
    }

    // No claimable session: build the query/options either way (both the
    // standalone run and a fresh session need them).
    auto fresh = std::make_unique<Session>();
    fresh->network = current;
    fresh->generation = gen;
    fresh->query = query::parse_query(query_text, *current);
    fresh->options = cli::make_verify_options(spec, fresh->weights);
    fresh->busy = true;
    fresh->last_used = 0;

    if (session_exists || _max_sessions == 0 || !warm_capable(fresh->options)) {
        // Busy session, sessions disabled, or an engine the warm path can't
        // serve: one-shot cold verification, no state kept.
        telemetry::count(telemetry::Counter::delta_cold_rebuilds);
        Outcome out;
        out.result = verify::verify(*current, fresh->query, fresh->options);
        out.path = VerifyPath::Cold;
        out.generation = gen;
        return out;
    }

    fresh->cache = std::make_unique<verify::TranslationCache>(
        *fresh->network, fresh->query, fresh->options.weights, /*lazy=*/true);

    {
        const util::MutexLock lock(_mutex);
        if (_sessions.find(key) != _sessions.end()) {
            // Lost the creation race; run this one standalone below.
            session = nullptr;
        } else {
            fresh->last_used = ++_session_clock;
            session = fresh.get();
            _sessions.emplace(key, std::move(fresh));
            // LRU-evict idle sessions beyond the cap (busy ones are skipped;
            // transiently exceeding the cap while every session is busy is
            // fine — the next insertion retries).
            while (_sessions.size() > _max_sessions) {
                auto victim = _sessions.end();
                for (auto it = _sessions.begin(); it != _sessions.end(); ++it) {
                    if (it->second->busy || it->second.get() == session) continue;
                    if (victim == _sessions.end() ||
                        it->second->last_used < victim->second->last_used)
                        victim = it;
                }
                if (victim == _sessions.end()) break;
                _sessions.erase(victim);
            }
        }
    }

    if (session == nullptr) {
        telemetry::count(telemetry::Counter::delta_cold_rebuilds);
        Outcome out;
        out.result = verify::verify(*current, fresh->query, fresh->options, *fresh->cache);
        out.path = VerifyPath::Cold;
        out.generation = gen;
        return out;
    }

    verify::VerifyResult result;
    try {
        result = verify::verify(*session->network, session->query, session->options,
                                *session->cache);
    } catch (...) {
        drop();
        throw;
    }
    telemetry::count(telemetry::Counter::delta_cold_rebuilds);
    return finish(*session, VerifyPath::Cold, std::move(result));
}

} // namespace aalwines::delta
