#pragma once
// Layer-by-layer replay of verify(): the traced run re-answers a query
// through the same public calls verify() makes for the dual and weighted
// engines (parse → compile_query_nfas → TranslationCache::translation →
// post_star with the engine's check_accepted → find_accepted →
// unroll_post_star + witness_to_trace + check_feasibility, the under pass
// when the engine runs it → result_to_json_value + json::write), timing
// each call with a span.  The replayed answer must equal verify()'s.

#include <string>

#include "harness.hpp"
#include "model/quantity.hpp"

namespace perfbench {

/// Per-layer sums over every replayed query.
struct LayerTotals {
    std::size_t queries = 0;
    double parse_ms = 0, nfa_ms = 0, translate_ms = 0, saturate_ms = 0;
    double accept_ms = 0, witness_ms = 0, serialize_ms = 0;
    double nfa_states = 0, rules_total = 0, transitions = 0;
    std::size_t under_runs = 0;
    /// Telemetry counters over the replay pass (deterministic work).
    std::uint64_t states_interned = 0, pops = 0, relaxations = 0;
    std::uint64_t rules_materialized = 0, accept_decrease_keys = 0, unroll_steps = 0;

    /// Take the counters as the difference of two snapshots around the pass.
    void absorb_counters(const aalwines::telemetry::Snapshot& before,
                         const aalwines::telemetry::Snapshot& after);
    /// Append the verification-layer metrics (per-query means) to `result`.
    void emit(Result& result) const;
};

/// Replay one query (weighted engine when `weights` is non-null, dual
/// otherwise) and return its canonical answer (see canonical_result).
[[nodiscard]] std::string replay_query(const aalwines::Network& network,
                                       const std::string& text,
                                       const aalwines::WeightExpr* weights, Tracer* tracer,
                                       std::uint64_t op, LayerTotals& totals);

/// The four counters a replay must reproduce exactly, read from a snapshot
/// difference: post_star_pops, edge_relaxations, pda_rules_materialized,
/// pda_states_interned.
struct WorkCounters {
    std::uint64_t pops = 0, relaxations = 0, rules_materialized = 0, states_interned = 0;

    [[nodiscard]] static WorkCounters between(const aalwines::telemetry::Snapshot& before,
                                              const aalwines::telemetry::Snapshot& after);
    bool operator==(const WorkCounters&) const = default;
    [[nodiscard]] std::string describe() const;
};

/// Answer `text` with verify() (weighted engine when `weights` is non-null),
/// then replay it into `totals`.  Records a failure in `out` unless the
/// replayed answer and the replay's WorkCounters equal verify()'s.  Returns
/// verify()'s canonical answer.
std::string replay_checked(const aalwines::Network& network, const std::string& text,
                           const aalwines::WeightExpr* weights, Tracer* tracer,
                           std::uint64_t op, LayerTotals& totals, Result& out);

} // namespace perfbench
