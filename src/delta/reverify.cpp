#include "delta/reverify.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace aalwines::delta {

using Clock = std::chrono::steady_clock;

/// One store entry per (query text, spec) pair.  Lifecycle: created busy,
/// published in the store, then answered only by the thread that claimed
/// `busy` under the Reverifier mutex — the claim/release pairs give the
/// necessary happens-before edges for `session`, which is touched outside
/// the lock only by the claimer.  The other fields are read and written
/// under the mutex.  Address-stable (a list node): `options` points into
/// `weights`, and the session copies it.
struct Reverifier::Entry {
    Entry(std::string store_key, const cli::VerifySpec& spec)
        : key(std::move(store_key)), options(cli::make_verify_options(spec, weights)) {}

    std::string key; ///< query text, '\x1f', VerifySpec::append_key
    WeightExpr weights;
    verify::VerifyOptions options;
    std::shared_ptr<const Anchor> answer; ///< the last computed answer
    std::uint64_t generation = 0;         ///< of `answer`, and of the live translation
    /// The newest generation `answer` was found to hold at: every delta
    /// since `generation` up to it misses the footprint.
    std::uint64_t valid_at = 0;
    std::unique_ptr<Session> session;     ///< null: no live translation
    std::list<Entries::iterator>::iterator live; ///< in _live while `session` is set
    bool busy = true;
};

Reverifier::Reverifier(std::shared_ptr<const Network> network)
    : _current{std::move(network)} {
    AALWINES_CHECK(_current.network != nullptr, "Reverifier requires a network snapshot");
}

Reverifier::~Reverifier() = default;

Reverifier::Snapshot Reverifier::snapshot() const {
    const util::MutexLock lock(_mutex);
    return _current;
}

std::shared_ptr<const Network> Reverifier::network() const {
    const util::MutexLock lock(_mutex);
    return _current.network;
}

std::size_t Reverifier::entries() const {
    const util::MutexLock lock(_mutex);
    return _entries.size();
}

Reverifier::Applied Reverifier::apply(const NetworkDelta& delta) {
    // Resolve-and-publish is one exclusive section so concurrent apply()
    // calls serialise (no lost snapshot); deltas are small, the copy is the
    // dominant cost and in-flight queries never wait on it — they hold
    // their own snapshot.
    const util::MutexLock lock(_mutex);
    auto applied = apply_delta(*_current.network, delta);
    _current = {std::move(applied.network), _current.generation + 1};
    _effects.push_back(applied.effects);
    while (_effects.size() > k_effects_window) {
        _effects.pop_front();
        ++_effects_base;
    }
    return {_current.generation, _current.network, std::move(applied.effects)};
}

std::optional<DeltaEffects> Reverifier::effects_since(std::uint64_t base,
                                                      std::uint64_t upto) const {
    if (base < _effects_base) return std::nullopt; // window trimmed past it
    DeltaEffects out;
    for (std::uint64_t g = base; g < upto; ++g) out.merge(_effects[g - _effects_base]);
    return out;
}

bool Reverifier::try_claim(Entries::iterator entry, std::uint64_t generation,
                           std::optional<DeltaEffects>& since) {
    // An entry re-anchored past `generation` meanwhile cannot rebase back.
    if (entry->busy || entry->generation > generation) return false;
    entry->busy = true;
    since = effects_since(entry->generation, generation);
    return true;
}

void Reverifier::erase(Entries::iterator entry) {
    if (entry->live != _live.end()) _live.erase(entry->live);
    _index.erase(entry->key);
    _entries.erase(entry);
}

void Reverifier::evict() {
    // From the least recently used end; busy entries are being answered and
    // stay (the next eviction retries).
    std::size_t evicted = 0;
    for (auto next = _entries.end();
         _entries.size() > k_max_entries && next != _entries.begin();) {
        const auto victim = std::prev(next);
        if (victim->busy) {
            next = victim;
            continue;
        }
        erase(victim);
        ++evicted;
    }
    if (evicted > 0) telemetry::count(telemetry::Counter::server_cache_evictions, evicted);
    for (auto next = _live.end(); _live.size() > k_max_sessions && next != _live.begin();) {
        const auto victim = std::prev(next);
        const auto entry = *victim;
        if (entry->busy) {
            next = victim;
            continue;
        }
        entry->session.reset();
        entry->live = _live.end();
        _live.erase(victim);
    }
}

Reverifier::Outcome Reverifier::verify(const std::string& query_text,
                                       const cli::VerifySpec& spec) {
    std::string key = query_text;
    key += '\x1f';
    spec.append_key(key);
    const auto lookup_start = Clock::now();
    Snapshot current;
    std::shared_ptr<const Anchor> served;
    bool across = false; ///< served across at least one delta
    std::shared_ptr<const Anchor> candidate; ///< to check against `since`
    bool weighted = false;
    bool known = false; ///< the store has an entry for the key
    Entries::iterator claimed;
    bool claim = false;
    std::optional<DeltaEffects> since; ///< the deltas to check or rebase over
    {
        const util::MutexLock lock(_mutex);
        current = _current;
        if (const auto it = _index.find(key); it != _index.end()) {
            known = true;
            const auto entry = it->second;
            _entries.splice(_entries.begin(), _entries, entry);
            const auto& answer = entry->answer;
            if (answer != nullptr && entry->valid_at == current.generation) {
                served = answer;
                across = entry->generation != current.generation;
            } else if (answer != nullptr && answer->footprint &&
                       (since = effects_since(entry->valid_at, current.generation))) {
                candidate = answer;
                weighted = verify::translation_weights(entry->options) != nullptr;
            } else if (try_claim(entry, current.generation, since)) {
                claimed = entry;
                claim = true;
            }
        }
    }
    if (candidate != nullptr) {
        // Off the lock; a pass is recorded so repeats skip the check.
        const bool holds =
            candidate->carries_over(*since, current.network->topology.link_count(), weighted);
        const util::MutexLock lock(_mutex);
        const auto it = _index.find(key);
        if (holds) {
            served = std::move(candidate);
            across = true;
            if (it != _index.end() && it->second->answer == served)
                it->second->valid_at = std::max(it->second->valid_at, current.generation);
        } else if (it != _index.end() && try_claim(it->second, current.generation, since)) {
            claimed = it->second;
            claim = true;
        }
    }
    const std::chrono::duration<double> lookup = Clock::now() - lookup_start;
    telemetry::observe_duration(telemetry::Histogram::cache_lookup, lookup.count());
    if (served != nullptr) {
        telemetry::count(telemetry::Counter::server_cache_hits);
        if (across) telemetry::count(telemetry::Counter::delta_tier1_reused);
        return {served->result, Tier::Reused, std::move(current)};
    }
    telemetry::count(telemetry::Counter::server_cache_misses);

    // Nothing claimable: first sight makes a new entry, published busy and
    // evicting nothing until its answer is stored; a busy one (rather than
    // wait), or a lost creation race, answers cold through an unpooled
    // session.
    Entries fresh;
    if (!claim) {
        fresh.emplace_back(key, spec); // validates the spec
        if (!known) {
            const util::MutexLock lock(_mutex);
            if (_index.find(key) == _index.end()) {
                fresh.front().live = _live.end();
                _entries.splice(_entries.begin(), fresh);
                claimed = _entries.begin();
                claim = true;
                _index.emplace(std::move(key), claimed);
            }
        }
        since.reset();
    }

    Entry& used = claim ? *claimed : fresh.front();
    Session::Answer answer;
    try {
        if (used.session == nullptr)
            used.session = std::make_unique<Session>(query_text, used.options);
        answer = used.session->answer(current.network, nullptr, since ? &*since : nullptr,
                                      /*anchor=*/claim);
    } catch (...) {
        if (claim) { // no half-rebased session survives
            const util::MutexLock lock(_mutex);
            erase(claimed);
        }
        throw;
    }
    if (claim) {
        const bool keep = warm_capable(used.options) && current.generation > 0;
        const util::MutexLock lock(_mutex);
        used.busy = false;
        used.answer = used.session->anchor();
        used.generation = used.valid_at = current.generation;
        if (!keep) {
            used.session.reset();
            if (used.live != _live.end()) _live.erase(used.live);
            used.live = _live.end();
        } else if (used.live == _live.end()) {
            _live.push_front(claimed);
            used.live = _live.begin();
        } else {
            _live.splice(_live.begin(), _live, used.live);
        }
        evict();
        telemetry::gauge_max(telemetry::Gauge::cache_entries_high_water, _entries.size());
    }
    return {std::move(answer.result), answer.tier, std::move(current)};
}

} // namespace aalwines::delta
