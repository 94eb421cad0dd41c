#include <gtest/gtest.h>

#include "model/quantity.hpp"
#include "synthesis/dataplane.hpp"
#include "util/errors.hpp"

namespace aalwines {
namespace {

class QuantityFixture : public ::testing::Test {
protected:
    Network net = synthesis::make_figure1_network();

    Label get(LabelType type, std::string_view name) {
        return *net.labels.find(type, name);
    }
    Label ip1 = get(LabelType::Ip, "ip1");
    Label s10 = get(LabelType::MplsBos, "10");
    Label s11 = get(LabelType::MplsBos, "11");
    Label s20 = get(LabelType::MplsBos, "20");
    Label s21 = get(LabelType::MplsBos, "21");
    Label m30 = get(LabelType::Mpls, "30");
    Label s40 = get(LabelType::MplsBos, "40");
    Label s41 = get(LabelType::MplsBos, "41");
    Label s42 = get(LabelType::MplsBos, "42");
    Label s43 = get(LabelType::MplsBos, "43");
    Label s44 = get(LabelType::MplsBos, "44");

    Trace sigma0{{{0, {ip1}}, {1, {ip1, s20}}, {4, {ip1, s21}}, {7, {ip1}}}};
    Trace sigma1{{{0, {ip1}}, {2, {ip1, s10}}, {3, {ip1, s11}}, {7, {ip1}}}};
    Trace sigma2{{{0, {ip1}},
                  {1, {ip1, s20}},
                  {5, {ip1, s21, m30}},
                  {6, {ip1, s21}},
                  {7, {ip1}}}};
    Trace sigma3{{{0, {ip1, s40}},
                  {1, {ip1, s41}},
                  {5, {ip1, s42}},
                  {6, {ip1, s43}},
                  {7, {ip1, s44}}}};
};

// Paper §3: Hops(σ0) = Links(σ0) = 4, Hops(σ3) = Links(σ3) = 5,
// Failures(σ2) = 1, Failures(σ3) = 0, Tunnels(σ1) = 1, Tunnels(σ2) = 2,
// Tunnels(σ3) = 0.
TEST_F(QuantityFixture, PaperValues) {
    EXPECT_EQ(evaluate_atomic(net, sigma0, Quantity::Links), 4u);
    EXPECT_EQ(evaluate_atomic(net, sigma0, Quantity::Hops), 4u);
    EXPECT_EQ(evaluate_atomic(net, sigma3, Quantity::Links), 5u);
    EXPECT_EQ(evaluate_atomic(net, sigma3, Quantity::Hops), 5u);
    EXPECT_EQ(evaluate_atomic(net, sigma2, Quantity::Failures), 1u);
    EXPECT_EQ(evaluate_atomic(net, sigma3, Quantity::Failures), 0u);
    EXPECT_EQ(evaluate_atomic(net, sigma1, Quantity::Tunnels), 1u);
    EXPECT_EQ(evaluate_atomic(net, sigma2, Quantity::Tunnels), 2u);
    EXPECT_EQ(evaluate_atomic(net, sigma3, Quantity::Tunnels), 0u);
}

// Paper §3 minimum-witness example: for (Hops, Failures + 3·Tunnels),
// σ2 evaluates to (5, 7) and σ3 to (5, 0).
TEST_F(QuantityFixture, PaperMinimisationVector) {
    const auto expr = parse_weight_expression("hops, failures + 3*tunnels");
    EXPECT_EQ(evaluate(net, sigma2, expr), (std::vector<std::uint64_t>{5, 7}));
    EXPECT_EQ(evaluate(net, sigma3, expr), (std::vector<std::uint64_t>{5, 0}));
}

TEST_F(QuantityFixture, DistanceSumsLinkDistances) {
    // Figure-1 links default to distance 1 each.
    EXPECT_EQ(evaluate_atomic(net, sigma0, Quantity::Distance), 4u);
    net.topology.set_distance(1, 100);
    EXPECT_EQ(evaluate_atomic(net, sigma0, Quantity::Distance), 103u);
}

TEST_F(QuantityFixture, StepAndInitialWeightsDecomposeTraceValue) {
    // Sum of initial weight + per-step weights equals the whole-trace value,
    // for each atomic quantity of σ2 (the trace with a failover push).
    const std::vector<Quantity> quantities{Quantity::Links, Quantity::Hops,
                                           Quantity::Distance, Quantity::Tunnels,
                                           Quantity::Failures};
    // Per-step (out_link, ops, local failures) of σ2's forwarding decisions.
    struct Step {
        LinkId out;
        std::vector<Op> ops;
        std::uint64_t fails;
    };
    const std::vector<Step> steps{
        {1, {Op::push(s20)}, 0},
        {5, {Op::swap(s21), Op::push(m30)}, 1},
        {6, {Op::pop()}, 0},
        {7, {Op::pop()}, 0},
    };
    for (const auto quantity : quantities) {
        LinearExpr expr{{{1, quantity}}};
        auto total = initial_weight(net, expr, 0);
        for (const auto& step : steps)
            total += step_weight(net, expr, step.out, step.ops, step.fails);
        EXPECT_EQ(total, evaluate_atomic(net, sigma2, quantity))
            << to_string(quantity);
    }
}

TEST(WeightParser, ParsesVectorsAndCoefficients) {
    const auto expr = parse_weight_expression(" hops , failures + 3*tunnels, 2 * distance ");
    ASSERT_EQ(expr.size(), 3u);
    EXPECT_EQ(expr.priorities[0].terms.size(), 1u);
    EXPECT_EQ(expr.priorities[0].terms[0].quantity, Quantity::Hops);
    EXPECT_EQ(expr.priorities[1].terms.size(), 2u);
    EXPECT_EQ(expr.priorities[1].terms[1].coefficient, 3u);
    EXPECT_EQ(expr.priorities[1].terms[1].quantity, Quantity::Tunnels);
    EXPECT_EQ(expr.priorities[2].terms[0].coefficient, 2u);
}

TEST(WeightParser, AcceptsTrailingCoefficientAndLatencyAlias) {
    const auto expr = parse_weight_expression("links*4 + latency");
    ASSERT_EQ(expr.size(), 1u);
    EXPECT_EQ(expr.priorities[0].terms[0].coefficient, 4u);
    EXPECT_EQ(expr.priorities[0].terms[1].quantity, Quantity::Distance);
}

TEST(WeightParser, RejectsGarbage) {
    EXPECT_THROW(parse_weight_expression(""), parse_error);
    EXPECT_THROW(parse_weight_expression("speed"), parse_error);
    EXPECT_THROW(parse_weight_expression("hops +"), parse_error);
    EXPECT_THROW(parse_weight_expression("3 hops"), parse_error);
    // At most k_max_weight_priorities priorities.
    std::string priorities = "hops";
    for (std::size_t i = 1; i < k_max_weight_priorities; ++i) priorities += ", hops";
    EXPECT_EQ(parse_weight_expression(priorities).size(), k_max_weight_priorities);
    EXPECT_THROW(parse_weight_expression(priorities + ", hops"), parse_error);
}

TEST(WeightParser, RoundTripsThroughToString) {
    const auto expr = parse_weight_expression("hops, failures + 3*tunnels");
    EXPECT_EQ(to_string(expr), "hops, failures + 3*tunnels");
    EXPECT_EQ(parse_weight_expression(to_string(expr)), expr);
}

TEST(Weights, WeightOfBuildsSingleton) {
    const auto expr = weight_of(Quantity::Failures);
    ASSERT_EQ(expr.size(), 1u);
    EXPECT_EQ(expr.priorities[0].terms[0].quantity, Quantity::Failures);
}

} // namespace
} // namespace aalwines
