#include <gtest/gtest.h>

#include "io/formats.hpp"
#include "synthesis/topologies.hpp"
#include "synthesis/dataplane.hpp"
#include "verify/engine.hpp"

namespace aalwines::io {
namespace {

TEST(TopologyXml, ParsesPaperAppendixShape) {
    const auto topology = read_topology_xml(R"(
        <network name="demo">
          <routers>
            <router name="R0">
              <interfaces>
                <interface name="ae1.11"/>
                <interface name="et-3/0/0.2"/>
              </interfaces>
            </router>
            <router name="R3" lat="55.5" lng="12.5">
              <interfaces><interface name="et-1/3/0.2"/></interfaces>
            </router>
          </routers>
          <links>
            <sides distance="12">
              <shared_interface interface="et-3/0/0.2" router="R0"/>
              <shared_interface interface="et-1/3/0.2" router="R3"/>
            </sides>
          </links>
        </network>)");
    EXPECT_EQ(topology.router_count(), 2u);
    EXPECT_EQ(topology.link_count(), 2u); // duplex pair
    const auto r0 = topology.find_router("R0");
    const auto r3 = topology.find_router("R3");
    ASSERT_TRUE(r0 && r3);
    EXPECT_TRUE(topology.find_interface(*r0, "ae1.11").has_value());
    const auto forward = topology.out_link_through(*r0, "et-3/0/0.2");
    ASSERT_TRUE(forward.has_value());
    EXPECT_EQ(topology.link(*forward).target, *r3);
    EXPECT_EQ(topology.link(*forward).distance, 12u);
    ASSERT_TRUE(topology.coordinate(*r3).has_value());
    EXPECT_DOUBLE_EQ(topology.coordinate(*r3)->latitude, 55.5);
}

TEST(TopologyXml, RejectsBadDocuments) {
    EXPECT_THROW(read_topology_xml("<nope/>"), model_error);
    EXPECT_THROW(read_topology_xml(R"(
        <network><routers><router name="A"/></routers>
        <links><sides>
          <shared_interface interface="x" router="A"/>
        </sides></links></network>)"),
                 model_error);
    EXPECT_THROW(read_topology_xml(R"(
        <network><routers><router name="A"/></routers>
        <links><sides>
          <shared_interface interface="x" router="A"/>
          <shared_interface interface="y" router="GHOST"/>
        </sides></links></network>)"),
                 model_error);
}

TEST(NetworkXml, Figure1RoundTrips) {
    const auto original = aalwines::synthesis::make_figure1_network();
    const auto topo_doc = write_topology_xml(original.topology, original.name);
    const auto route_doc = write_routing_xml(original);
    const auto reloaded = read_network_xml(topo_doc, route_doc);

    EXPECT_EQ(reloaded.topology.router_count(), original.topology.router_count());
    EXPECT_EQ(reloaded.routing.rule_count(), original.routing.rule_count());

    // The reloaded network must verify identically on the running example.
    for (const auto& [text, expected] :
         std::vector<std::pair<std::string, verify::Answer>>{
             {"<ip> [.#v0] .* [v3#.] <ip> 0", verify::Answer::Yes},
             {"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1", verify::Answer::No}}) {
        const auto result =
            verify::verify(reloaded, query::parse_query(text, reloaded), {});
        EXPECT_EQ(result.answer, expected) << text;
    }
}

TEST(NetworkXml, SyntheticDataplaneRoundTrips) {
    auto synth = aalwines::synthesis::build_dataplane(
        aalwines::synthesis::make_ring(6), {.max_lsp_pairs = 10, .service_chains = 2});
    const auto& original = synth.network;
    const auto reloaded = read_network_xml(
        write_topology_xml(original.topology, original.name), write_routing_xml(original));
    EXPECT_EQ(reloaded.topology.link_count(), original.topology.link_count());
    EXPECT_EQ(reloaded.routing.rule_count(), original.routing.rule_count());
    // Only labels referenced by rules survive the round trip; the generator
    // may allocate a few never-used destination labels on top of those.
    EXPECT_LE(reloaded.labels.size(), original.labels.size());
    EXPECT_GE(reloaded.labels.size() + 4, original.labels.size());
}

TEST(Locations, AppliesAndWrites) {
    Topology topology;
    const auto r0 = topology.add_router("R0");
    topology.add_router("R1");
    const auto applied = apply_locations_json(
        R"({ "R0": { "lat": 46.5, "lng": 7.3 }, "GHOST": {"lat": 1, "lng": 2} })",
        topology);
    EXPECT_EQ(applied, 1u);
    ASSERT_TRUE(topology.coordinate(r0).has_value());
    EXPECT_DOUBLE_EQ(topology.coordinate(r0)->longitude, 7.3);

    const auto text = write_locations_json(topology);
    Topology other;
    other.add_router("R0");
    EXPECT_EQ(apply_locations_json(text, other), 1u);
}

TEST(Locations, RejectsNonObject) {
    Topology topology;
    EXPECT_THROW(apply_locations_json("[1,2]", topology), model_error);
}

TEST(Gml, ParsesTopologyZooStyle) {
    std::string name;
    const auto topology = read_gml(R"(
        # a comment
        Creator "Topology Zoo"
        graph [
          label "TestNet"
          node [ id 0 label "Copenhagen" Latitude 55.67 Longitude 12.56 ]
          node [ id 1 label "Stockholm" Latitude 59.33 Longitude 18.06 ]
          node [ id 2 label "Oslo" ]
          edge [ source 0 target 1 LinkLabel "leased" ]
          edge [ source 1 target 2 ]
        ])",
                                   &name);
    EXPECT_EQ(name, "TestNet");
    EXPECT_EQ(topology.router_count(), 3u);
    EXPECT_EQ(topology.link_count(), 4u); // two duplex pairs
    const auto cph = topology.find_router("Copenhagen");
    const auto sto = topology.find_router("Stockholm");
    ASSERT_TRUE(cph && sto);
    const auto links = topology.links_between(*cph, *sto);
    ASSERT_EQ(links.size(), 1u);
    EXPECT_GT(topology.link(links[0]).distance, 400'000u); // from coordinates
}

TEST(Gml, HandlesDuplicateLabelsAndMissingLabels) {
    const auto topology = read_gml(R"(
        graph [
          node [ id 0 label "X" ]
          node [ id 1 label "X" ]
          node [ id 2 ]
          edge [ source 0 target 2 ]
        ])");
    EXPECT_EQ(topology.router_count(), 3u);
    EXPECT_TRUE(topology.find_router("X").has_value());
    EXPECT_TRUE(topology.find_router("X_1").has_value());
    EXPECT_TRUE(topology.find_router("N2").has_value());
}

TEST(Gml, WriteRoundTrips) {
    const auto original = aalwines::synthesis::make_ring(6).topology;
    std::string name;
    const auto reloaded = read_gml(write_gml(original, "ring6"), &name);
    EXPECT_EQ(name, "ring6");
    EXPECT_EQ(reloaded.router_count(), original.router_count());
    EXPECT_EQ(reloaded.link_count(), original.link_count());
    for (RouterId r = 0; r < original.router_count(); ++r) {
        ASSERT_TRUE(reloaded.find_router(original.router_name(r)).has_value());
        ASSERT_TRUE(reloaded.coordinate(r).has_value());
        EXPECT_NEAR(reloaded.coordinate(r)->latitude,
                    original.coordinate(r)->latitude, 1e-4);
    }
}

TEST(Gml, RejectsNestingPastTheBound) {
    // `graph [` opens the first level; each `x [` one more.
    const auto nested = [](std::size_t depth) {
        std::string text = "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ";
        for (std::size_t i = 2; i < depth; ++i) text += "x [ ";
        for (std::size_t i = 0; i < depth; ++i) text += "] ";
        return text;
    };
    EXPECT_NO_THROW((void)read_gml(nested(k_max_nesting)));
    EXPECT_THROW((void)read_gml(nested(k_max_nesting + 1)), parse_error);
    // Far deeper than the stack could recurse: rejected, not a crash.
    std::string deep;
    for (std::size_t i = 0; i < 1'000'000; ++i) deep += "x [ ";
    EXPECT_THROW((void)read_gml(deep), parse_error);
}

TEST(Gml, RejectsMalformed) {
    EXPECT_THROW(read_gml("graph [ node [ id 0 ]"), parse_error); // unterminated
    EXPECT_THROW(read_gml("nograph 1"), model_error);
    EXPECT_THROW(read_gml("graph [ edge [ source 0 target 1 ] ]"), model_error);
}

} // namespace
} // namespace aalwines::io
