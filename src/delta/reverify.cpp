#include "delta/reverify.hpp"

#include <optional>

#include "util/check.hpp"

namespace aalwines::delta {

/// One pooled session per (query text, spec) pair.  Lifecycle: created
/// busy, published in the pool, then used only by the thread that claimed
/// `busy` under the Reverifier mutex — the claim/release pairs give the
/// necessary happens-before edges, so the other fields need no lock of
/// their own.  Heap-allocated and address-stable: `options` points into
/// `weights`, and the session copies it.
struct Reverifier::Slot {
    Slot(const std::string& query_text, const cli::VerifySpec& spec)
        : options(cli::make_verify_options(spec, weights)), session(query_text, options) {}

    WeightExpr weights;
    verify::VerifyOptions options;
    Session session;
    std::uint64_t generation = 0; ///< generation of the session's anchor
    bool busy = true;
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
    std::string key = query_text;
    key += '\x1f';
    spec.append_key(key);
    std::shared_ptr<const Network> current;
    std::uint64_t gen = 0;
    Slot* slot = nullptr; ///< the claimed pooled session, if any
    bool busy = false;    ///< another thread is answering through this key's session
    std::optional<DeltaEffects> pending; ///< deltas in (slot generation, current]
    {
        const util::MutexLock lock(_mutex);
        current = _network;
        gen = _generation;
        if (auto it = _sessions.find(key); it != _sessions.end()) {
            busy = it->second->busy;
            if (!busy) {
                slot = it->second.get();
                slot->busy = true;
                slot->last_used = ++_session_clock;
                pending = effects_since(slot->generation);
            }
        }
    }

    // No claimable session: a fresh one, pooled when it can ever go warm.  A
    // busy session (rather than wait), disabled sessions or an engine that
    // cannot rebase answer cold through one that is dropped afterwards.
    std::unique_ptr<Slot> fresh;
    if (slot == nullptr) {
        fresh = std::make_unique<Slot>(query_text, spec);
        if (!busy && _max_sessions > 0 && warm_capable(fresh->options)) {
            const util::MutexLock lock(_mutex);
            if (_sessions.find(key) == _sessions.end()) { // else lost the creation race
                fresh->last_used = ++_session_clock;
                slot = fresh.get();
                _sessions.emplace(key, std::move(fresh));
                // LRU-evict idle sessions beyond the cap (busy ones are
                // skipped; transiently exceeding the cap while every session
                // is busy is fine — the next insertion retries).
                while (_sessions.size() > _max_sessions) {
                    auto victim = _sessions.end();
                    for (auto it = _sessions.begin(); it != _sessions.end(); ++it) {
                        if (it->second->busy) continue;
                        if (victim == _sessions.end() ||
                            it->second->last_used < victim->second->last_used)
                            victim = it;
                    }
                    if (victim == _sessions.end()) break;
                    _sessions.erase(victim);
                }
            }
        }
    }

    Slot& used = slot != nullptr ? *slot : *fresh;
    const DeltaEffects* since = pending ? &*pending : nullptr;
    Session::Answer answer;
    try {
        answer = used.session.answer(current, since, since, /*anchor=*/slot != nullptr);
    } catch (...) {
        if (slot != nullptr) { // no half-rebased session survives
            const util::MutexLock lock(_mutex);
            _sessions.erase(key);
        }
        throw;
    }
    if (answer.tier != Tier::Reused) used.generation = gen;
    Outcome out{std::move(answer.result), answer.tier, used.generation};
    if (slot != nullptr) {
        const util::MutexLock lock(_mutex);
        slot->busy = false;
    }
    return out;
}

} // namespace aalwines::delta
