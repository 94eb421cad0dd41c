#include <gtest/gtest.h>

#include "json/json.hpp"

namespace aalwines::json {
namespace {

TEST(JsonParser, ParsesScalars) {
    EXPECT_TRUE(parse("null").is_null());
    EXPECT_EQ(parse("true").as_bool(), true);
    EXPECT_EQ(parse("false").as_bool(), false);
    EXPECT_EQ(parse("42").as_int(), 42);
    EXPECT_EQ(parse("-7").as_int(), -7);
    EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
    EXPECT_DOUBLE_EQ(parse("1e3").as_double(), 1000.0);
    EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, ParsesContainers) {
    const auto value = parse(R"({"a": [1, 2, {"b": true}], "c": null})");
    ASSERT_TRUE(value.is_object());
    const auto& array = value.at("a").as_array();
    ASSERT_EQ(array.size(), 3u);
    EXPECT_EQ(array[0].as_int(), 1);
    EXPECT_TRUE(array[2].at("b").as_bool());
    EXPECT_TRUE(value.at("c").is_null());
}

TEST(JsonParser, ParsesEscapes) {
    EXPECT_EQ(parse(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
    EXPECT_EQ(parse(R"("A")").as_string(), "A");
    EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");           // é
    EXPECT_EQ(parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80"); // 😀
}

TEST(JsonParser, RejectsMalformedInput) {
    EXPECT_THROW(parse("{"), parse_error);
    EXPECT_THROW(parse("[1,]"), parse_error);
    EXPECT_THROW(parse("tru"), parse_error);
    EXPECT_THROW(parse("\"unterminated"), parse_error);
    EXPECT_THROW(parse("1 2"), parse_error);
    EXPECT_THROW(parse(R"("\ud800x")"), parse_error); // unpaired surrogate
}

TEST(JsonParser, RejectsNestingPastTheBound) {
    const auto arrays = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW((void)parse(arrays(k_max_nesting)));
    EXPECT_THROW((void)parse(arrays(k_max_nesting + 1)), parse_error);
    // Far deeper than the stack could recurse: rejected, not a crash.
    EXPECT_THROW((void)parse(std::string(1'000'000, '[')), parse_error);
    std::string objects;
    for (std::size_t i = 0; i < 1'000'000; ++i) objects += R"({"a":)";
    EXPECT_THROW((void)parse(objects), parse_error);
}

TEST(JsonParser, LocationFileShape) {
    const auto value = parse(R"({ "R0": { "lat": 46.5, "lng": 7.3} })");
    EXPECT_DOUBLE_EQ(value.at("R0").at("lat").as_double(), 46.5);
    EXPECT_DOUBLE_EQ(value.at("R0").at("lng").as_double(), 7.3);
}

TEST(JsonWriter, RoundTrips) {
    Object object;
    object.emplace("name", Value("demo \"net\""));
    object.emplace("count", Value(31));
    object.emplace("ratio", Value(0.125));
    Array list;
    list.push_back(Value(true));
    list.push_back(Value(nullptr));
    object.emplace("flags", Value(std::move(list)));

    const Value original{std::move(object)};
    EXPECT_EQ(parse(write(original)), original);
    EXPECT_EQ(parse(write(original, 2)), original); // pretty-printed too
}

TEST(JsonWriter, FindReturnsNullptrForMissing) {
    const auto value = parse(R"({"x": 1})");
    EXPECT_EQ(value.find("y"), nullptr);
    EXPECT_NE(value.find("x"), nullptr);
}

} // namespace
} // namespace aalwines::json
