#pragma once
// Differential cross-engine checking: run the same query through the dual
// (or weighted), Moped-baseline and exact engines and flag any conclusive
// disagreement.  All engines are sound on conclusive answers — over- and
// under-approximation only widen the Inconclusive band — so a YES/NO split
// between any two of them is a bug in one of the pipelines.
//
// The exact engine enumerates every failure scenario (exponential in k), so
// deep checks gate it on the scenario count; the Moped baseline cannot carry
// weights and is skipped for weighted queries.

#include <cstdint>
#include <optional>

#include "validate/witness.hpp"

namespace aalwines::validate {

struct CrossCheckOptions {
    /// Minimisation objective; non-null selects the weighted engine.
    const WeightExpr* weights = nullptr;
    /// Also run the exact scenario-enumerating engine (when tractable).
    bool deep = false;
    /// Skip the exact engine above this many failure scenarios Σ C(|E|, i).
    std::uint64_t max_exact_scenarios = 2048;
    /// Per-saturation iteration cap forwarded to every engine (0 = none).
    std::size_t max_iterations = 0;
};

struct CrossCheckOutcome {
    verify::VerifyResult dual;                 ///< dual or weighted engine
    std::optional<verify::VerifyResult> moped; ///< absent for weighted queries
    std::optional<verify::VerifyResult> exact; ///< deep mode, within the gate
    Report report;

    [[nodiscard]] bool ok() const { return report.ok(); }
};

/// Number of failure scenarios the exact engine would enumerate for `links`
/// directed links under budget `k`, saturating at UINT64_MAX.
[[nodiscard]] std::uint64_t exact_scenario_count(std::uint64_t links, std::uint64_t k);

/// Run the engines, validate every YES witness via check_result, and compare
/// answers (and, for weighted queries, minimal weight vectors).  Dual and
/// Moped run the same approximations, so they are compared in every mode;
/// the comparison with the exact engine is only meaningful for DUAL-mode
/// queries (OVER/UNDER are approximate by design and downgrade it to a
/// warning).
[[nodiscard]] CrossCheckOutcome cross_check(const Network& network,
                                            const query::Query& query,
                                            const CrossCheckOptions& options = {});

} // namespace aalwines::validate
