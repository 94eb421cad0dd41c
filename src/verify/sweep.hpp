#pragma once
// Sweep engine: amortized verification of a whole query battery — one query
// template instantiated over (endpoint pair × failure budget k × link-failure
// scenario) — against one network.
//
// Verifying the grid one cell at a time repeats work the cells share.  The
// sweep engine plans the grid and shares it across cells instead:
//
//   NFA tier       The query NFAs (path regex, L(a) ∩ H, L(c) ∩ H) depend
//                  only on the template's regexes and the label table —
//                  never on k or link state — so one CompiledNfas per
//                  endpoint pair serves every (k, scenario) cell of that
//                  pair (`SweepStats::nfa_compiles` counts pairs, not
//                  cells).
//   Frontier tier  Cells of one (pair, k) chain differ only in which links
//                  are down.  The chain answers through one delta::Session
//                  (delta/session.hpp), handing it the links flipped since
//                  the session's anchor and since its live translation.  The
//                  scenarios form a star around the base network, so only
//                  the chain's first answer is anchored: a single-failure
//                  battery then diffs one flipped link against the anchor
//                  instead of two against its predecessor.  A cell is
//                  reused (`shared_saturations`) when the diff misses the
//                  anchor's footprint, warm (`reused_frontiers`) when the
//                  live translation is rebased and re-saturated, cold
//                  otherwise.  Answers are byte-identical to a cold run on
//                  the scenario network either way.
//   Workspace tier Each worker owns one pda::SolverWorkspace reused across
//                  all its cells (VerifyOptions::workspace), so worklist
//                  buckets are allocated once per worker, not once per
//                  cell.
//
// Chains — one per (pair, k) — distribute over a `jobs`-sized worker pool;
// within a chain, scenarios run in spec order.  The frontier tier needs a
// warm-capable run (delta::warm_capable); other engines still get the NFA
// and workspace tiers, with every cell cold.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "delta/session.hpp"
#include "verify/engine.hpp"

namespace aalwines::verify {

/// One concrete failure scenario: the set of links administratively down,
/// addressed like the delta layer by (router, out-interface) name.  Links
/// already down in the base network stay down in every scenario.
struct SweepScenario {
    std::string name; ///< display name; "" = generated ("baseline", "s3", …)
    std::vector<std::pair<std::string, std::string>> failed_links;
};

/// The sweep grid: a query template plus its generator axes.  The template
/// may use the placeholders `{src}`, `{dst}` (endpoint-pair routers) and
/// `{k}` (failure budget); axes whose placeholder is absent simply repeat
/// the same query.  Empty axes collapse to one implicit element (one
/// unsubstituted pair / budget 0 / the baseline scenario).
struct SweepSpec {
    std::string query_template;
    std::vector<std::pair<std::string, std::string>> endpoint_pairs;
    std::vector<std::uint64_t> failure_budgets;
    std::vector<SweepScenario> scenarios;
};

/// How a cell's answer was obtained.
using CellPath = delta::Tier;

struct SweepCell {
    std::size_t pair = 0;     ///< index into SweepSpec::endpoint_pairs
    std::size_t budget = 0;   ///< index into SweepSpec::failure_budgets
    std::size_t scenario = 0; ///< index into SweepSpec::scenarios
    std::string query_text;   ///< the instantiated template
    VerifyResult result;
    std::string error;        ///< non-empty when the cell failed to parse/verify
    CellPath path = CellPath::Cold;
    double seconds = 0.0;     ///< wall clock spent on this cell
};

/// Cross-cell sharing accounting (`--stats` / the sweep JSON's "stats").
struct SweepStats {
    std::size_t cells = 0;
    std::size_t cold_saturations = 0;  ///< cells verified from scratch
    std::size_t reused_frontiers = 0;  ///< cells re-saturated from a rebased frontier
    std::size_t shared_saturations = 0;///< cells answered from an earlier saturation
    std::size_t nfa_compiles = 0;      ///< templates compiled (≤ endpoint pairs)
    std::size_t errors = 0;
    double seconds = 0.0;              ///< wall clock of the whole sweep
};

struct SweepResult {
    /// Pair-major, then budget, then scenario: cell (p, b, s) sits at
    /// (p * budgets + b) * scenarios + s.
    std::vector<SweepCell> cells;
    SweepStats stats;
};

/// Substitute `{src}`, `{dst}` and `{k}` into the template (every
/// occurrence; absent placeholders are fine).
[[nodiscard]] std::string instantiate_template(const std::string& query_template,
                                               const std::string& src,
                                               const std::string& dst,
                                               std::uint64_t failures);

/// The baseline plus one scenario per administratively-up link of `network`
/// (in link-id order, capped at `count` failure scenarios; 0 = all links) —
/// the "every single-link failure" what-if battery.
[[nodiscard]] std::vector<SweepScenario> make_single_failure_scenarios(
    const Network& network, std::size_t count = 0);

/// Execute the sweep with up to `jobs` chain workers (0 = hardware
/// concurrency).  Per-cell parse/verify errors land in the cell's `error`;
/// an unresolvable scenario (unknown router/interface) throws model_error
/// before anything runs.  Cell answers, weights and traces are identical to
/// an independent cold verification of the same query on the same scenario
/// network (stats differ: warm cells report only the re-saturated part).
[[nodiscard]] SweepResult run_sweep(const Network& network, const SweepSpec& spec,
                                    const VerifyOptions& options = {},
                                    std::size_t jobs = 0);

} // namespace aalwines::verify
