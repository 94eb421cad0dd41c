#include "validate/cross_check.hpp"

namespace aalwines::validate {

namespace {

using verify::Answer;

bool conclusive(Answer answer) { return answer != Answer::Inconclusive; }

void compare_answers(Answer a, std::string_view engine_a, Answer b,
                     std::string_view engine_b, Report& report) {
    if (conclusive(a) && conclusive(b) && a != b)
        report.error("cross-check", std::string(engine_a) + " answers " +
                                        std::string(verify::to_string(a)) + " but " +
                                        std::string(engine_b) + " answers " +
                                        std::string(verify::to_string(b)));
}

std::string format_weight(const std::vector<std::uint64_t>& weight) {
    std::string out = "(";
    for (std::size_t i = 0; i < weight.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(weight[i]);
    }
    return out + ")";
}

} // namespace

std::uint64_t exact_scenario_count(std::uint64_t links, std::uint64_t k) {
    std::uint64_t total = 0;
    std::uint64_t choose = 1; // C(links, i)
    for (std::uint64_t i = 0; i <= std::min(links, k); ++i) {
        if (total > UINT64_MAX - choose) return UINT64_MAX;
        total += choose;
        if (i == links) break;
        // C(links, i+1) = C(links, i) * (links - i) / (i + 1)
        const auto factor = links - i;
        if (choose > UINT64_MAX / factor) return UINT64_MAX;
        choose = choose * factor / (i + 1);
    }
    return total;
}

CrossCheckOutcome cross_check(const Network& network, const query::Query& query,
                              const CrossCheckOptions& options) {
    CrossCheckOutcome outcome;
    const bool weighted = options.weights != nullptr && !options.weights->empty();

    verify::VerifyOptions base;
    base.engine = weighted ? verify::EngineKind::Weighted : verify::EngineKind::Dual;
    base.weights = options.weights;
    base.max_iterations = options.max_iterations;
    outcome.dual = verify::verify(network, query, base);
    outcome.report.merge(check_result(network, query, outcome.dual, options.weights));

    if (!weighted) {
        auto moped_options = base;
        moped_options.engine = verify::EngineKind::Moped;
        outcome.moped = verify::verify(network, query, moped_options);
        outcome.report.merge(check_result(network, query, *outcome.moped));
    }

    if (options.deep) {
        const auto scenarios =
            exact_scenario_count(network.topology.link_count(), query.max_failures);
        if (scenarios <= options.max_exact_scenarios) {
            auto exact_options = base;
            exact_options.engine = verify::EngineKind::Exact;
            outcome.exact = verify::verify(network, query, exact_options);
            outcome.report.merge(
                check_result(network, query, *outcome.exact, options.weights));
        } else {
            outcome.report.warning("cross-check",
                                   "exact engine skipped: " + std::to_string(scenarios) +
                                       " failure scenarios exceed the gate of " +
                                       std::to_string(options.max_exact_scenarios));
        }
    }

    // Dual and Moped run the same approximations in every mode, so a split
    // between them is a bug whatever the mode.
    const auto dual_name = weighted ? "weighted" : "dual";
    if (outcome.moped)
        compare_answers(outcome.dual.answer, dual_name, outcome.moped->answer, "moped",
                        outcome.report);
    if (outcome.exact && query.mode != query::Mode::Dual) {
        outcome.report.warning("cross-check",
                               "query mode " + std::string(to_string(query.mode)) +
                                   " is approximate by design; answers were not "
                                   "compared with the exact engine");
    } else if (outcome.exact) {
        // Exact is conclusive ground truth: an inconclusive dual answer is
        // fine, a conclusive disagreement is not.
        compare_answers(outcome.dual.answer, dual_name, outcome.exact->answer, "exact",
                        outcome.report);
        if (outcome.moped)
            compare_answers(outcome.moped->answer, "moped", outcome.exact->answer,
                            "exact", outcome.report);
        // Both engines minimise the same lexicographic objective, so their
        // witness weights must coincide exactly.
        if (weighted && outcome.dual.answer == Answer::Yes &&
            outcome.exact->answer == Answer::Yes &&
            outcome.dual.weight != outcome.exact->weight)
            outcome.report.error("cross-check",
                                 std::string("weighted minimal weight ") +
                                     format_weight(outcome.dual.weight) +
                                     " differs from exact minimal weight " +
                                     format_weight(outcome.exact->weight));
    }
    return outcome;
}

} // namespace aalwines::validate
