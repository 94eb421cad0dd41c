#include <gtest/gtest.h>

#include "xml/xml.hpp"

namespace aalwines::xml {
namespace {

TEST(XmlParser, ParsesElementWithAttributes) {
    const auto root = parse(R"(<router name="R0" kind='edge'/>)");
    EXPECT_EQ(root.name, "router");
    EXPECT_EQ(root.attr("name"), "R0");
    EXPECT_EQ(root.attr("kind"), "edge");
    EXPECT_FALSE(root.attr("missing").has_value());
}

TEST(XmlParser, ParsesNestedChildren) {
    const auto root = parse("<a><b/><c><d/></c><b/></a>");
    EXPECT_EQ(root.children.size(), 3u);
    EXPECT_EQ(root.children_named("b").size(), 2u);
    ASSERT_NE(root.first_child("c"), nullptr);
    EXPECT_EQ(root.first_child("c")->children.size(), 1u);
}

TEST(XmlParser, DecodesEntities) {
    const auto root = parse("<t a=\"&lt;&amp;&gt;\">x &#65;&#x42; &quot;</t>");
    EXPECT_EQ(root.attr("a"), "<&>");
    EXPECT_EQ(root.text, "x AB \"");
}

TEST(XmlParser, HandlesCommentsAndDeclaration) {
    const auto root = parse(
        "<?xml version=\"1.0\"?><!-- hi --><root><!-- inner -->body</root>");
    EXPECT_EQ(root.name, "root");
    EXPECT_EQ(root.text, "body");
}

TEST(XmlParser, HandlesCdata) {
    const auto root = parse("<r><![CDATA[<not-a-tag> & raw]]></r>");
    EXPECT_EQ(root.text, "<not-a-tag> & raw");
}

TEST(XmlParser, RejectsMismatchedClose) {
    EXPECT_THROW(parse("<a><b></a></b>"), parse_error);
}

TEST(XmlParser, RejectsTrailingContent) {
    EXPECT_THROW(parse("<a/><b/>"), parse_error);
}

TEST(XmlParser, RejectsUnterminatedTag) {
    EXPECT_THROW(parse("<a attr=\"v\""), parse_error);
}

TEST(XmlParser, ReportsErrorPosition) {
    try {
        (void)parse("<a>\n  <b>\n</a>");
        FAIL() << "expected parse_error";
    } catch (const parse_error& error) {
        EXPECT_GE(error.where().line, 3u);
    }
}

TEST(XmlParser, RequiredAttrThrowsWhenMissing) {
    const auto root = parse("<x/>");
    EXPECT_THROW((void)root.required_attr("name"), model_error);
}

TEST(XmlWriter, RoundTripsDocument) {
    Element root;
    root.name = "network";
    root.attributes.emplace_back("name", "demo <&> \"q\"");
    Element child;
    child.name = "router";
    child.text = "some <text>";
    root.children.push_back(child);

    const auto text = write(root);
    const auto reparsed = parse(text);
    EXPECT_EQ(reparsed.name, "network");
    EXPECT_EQ(reparsed.attr("name"), "demo <&> \"q\"");
    ASSERT_EQ(reparsed.children.size(), 1u);
    EXPECT_EQ(reparsed.children[0].text, "some <text>");
}

TEST(XmlWriter, CompactModeHasNoNewlines) {
    Element root;
    root.name = "a";
    root.children.emplace_back();
    root.children.back().name = "b";
    const auto text = write(root, {.pretty = false, .declaration = false});
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_EQ(text, "<a><b/></a>");
}

} // namespace
} // namespace aalwines::xml
