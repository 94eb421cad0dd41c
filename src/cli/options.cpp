#include "cli/options.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/formats.hpp"
#include "io/isis.hpp"
#include "synthesis/networks.hpp"
#include "synthesis/queries.hpp"

namespace aalwines::cli {

namespace {

/// Strict unsigned parse for option values; throws usage_error on garbage.
std::size_t parse_size(const std::string& flag, const std::string& text) {
    std::size_t value = 0;
    const auto* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        throw usage_error(flag + " expects a non-negative integer, got '" + text + "'");
    return value;
}

int parse_int(const std::string& flag, const std::string& text) {
    int value = 0;
    const auto* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        throw usage_error(flag + " expects an integer, got '" + text + "'");
    return value;
}

Network load_demo(const std::string& demo) {
    if (demo == "figure1") return synthesis::make_figure1_network();
    if (demo == "nordunet") return std::move(synthesis::make_nordunet_like().network);
    if (demo.rfind("zoo:", 0) == 0) {
        const auto index = parse_size("--demo zoo:", demo.substr(4));
        return std::move(synthesis::make_zoo_like(index).net.network);
    }
    throw usage_error("unknown demo '" + demo + "' (figure1, nordunet or zoo:N)");
}

} // namespace

std::vector<std::string> demo_query_battery(const std::string& demo, std::size_t count) {
    synthesis::QueryBatteryOptions options;
    if (count > 0) options.count = count;
    // Re-synthesize the demo: the battery needs the SyntheticNetwork's edge
    // metadata, which load_demo discards.  Deterministic, so the queries
    // target the same network the caller loaded.
    if (demo == "nordunet")
        return synthesis::make_query_battery(synthesis::make_nordunet_like(), options);
    if (demo.rfind("zoo:", 0) == 0) {
        const auto index = parse_size("--demo zoo:", demo.substr(4));
        return synthesis::make_query_battery(synthesis::make_zoo_like(index).net, options);
    }
    throw usage_error("--battery needs --demo nordunet or --demo zoo:N "
                      "(query batteries are generated from synthesis metadata)");
}

namespace {

Network load_gml_text(const std::string& text, const std::string& fallback_name) {
    synthesis::SyntheticTopology topo;
    std::string name;
    topo.topology = io::read_gml(text, &name);
    // Low-degree routers act as edges, as in the zoo pipeline.
    for (RouterId r = 0; r < topo.topology.router_count(); ++r)
        if (topo.topology.out_links(r).size() <= 2) topo.edge_routers.push_back(r);
    if (topo.edge_routers.size() < 2)
        for (RouterId r = 0; r < std::min<std::size_t>(4, topo.topology.router_count()); ++r)
            topo.edge_routers.push_back(r);
    synthesis::DataplaneOptions options;
    options.max_lsp_pairs = topo.topology.router_count() * 4;
    auto net = synthesis::build_dataplane(std::move(topo), options);
    net.network.name = name.empty() ? fallback_name : name;
    return std::move(net.network);
}

} // namespace

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw io_error("cannot open '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

Network load_network(const NetworkSource& source) {
    Network network = [&] {
        if (!source.demo.empty()) return load_demo(source.demo);
        if (!source.isis_file.empty()) {
            const auto base = std::filesystem::path(source.isis_file).parent_path();
            const auto entries = io::parse_isis_mapping(read_file(source.isis_file));
            std::vector<io::IsisRouterDocuments> documents;
            for (const auto& entry : entries) {
                io::IsisRouterDocuments doc;
                doc.entry = entry;
                if (!entry.is_edge()) {
                    doc.adjacency_xml = read_file((base / entry.adjacency_file).string());
                    doc.route_xml = read_file((base / entry.route_file).string());
                    doc.pfe_xml = read_file((base / entry.pfe_file).string());
                }
                documents.push_back(std::move(doc));
            }
            return io::read_isis(documents);
        }
        if (!source.gml_file.empty())
            return load_gml_text(read_file(source.gml_file), source.gml_file);
        if (!source.topology_file.empty() && !source.routing_file.empty())
            return io::read_network_xml(read_file(source.topology_file),
                                        read_file(source.routing_file));
        if (!source.topology_file.empty() || !source.routing_file.empty())
            throw usage_error("--topology and --routing must be given together");
        throw usage_error("no network given (use --topology/--routing, --gml or --demo)");
    }();
    if (!source.locations_file.empty())
        io::apply_locations_json(read_file(source.locations_file), network.topology);
    return network;
}

Network load_network(const NetworkDocuments& documents) {
    Network network = [&] {
        if (!documents.demo.empty()) return load_demo(documents.demo);
        if (!documents.gml.empty()) return load_gml_text(documents.gml, "gml");
        if (!documents.topology_xml.empty() && !documents.routing_xml.empty())
            return io::read_network_xml(documents.topology_xml, documents.routing_xml);
        throw usage_error(
            "no network given (need demo, gml, or topologyXml + routingXml)");
    }();
    if (!documents.locations_json.empty())
        io::apply_locations_json(documents.locations_json, network.topology);
    return network;
}

void VerifySpec::append_key(std::string& key) const {
    key += engine;
    key += '\x1f';
    key += weight;
    key += '\x1f';
    key += std::to_string(witnesses);
    key += '\x1f';
    key += std::to_string(max_iterations);
    key += '\x1f';
    key += trace ? '1' : '0';
}

verify::VerifyOptions make_verify_options(const VerifySpec& spec, WeightExpr& weights) {
    verify::VerifyOptions options;
    options.build_trace = spec.trace;
    options.max_witnesses = spec.witnesses;
    options.max_iterations = spec.max_iterations;
    if (!spec.weight.empty()) {
        weights = parse_weight_expression(spec.weight);
        options.weights = &weights;
        options.engine = verify::EngineKind::Weighted;
    }
    if (spec.engine == "moped") options.engine = verify::EngineKind::Moped;
    else if (spec.engine == "exact") options.engine = verify::EngineKind::Exact;
    else if (spec.engine == "weighted") {
        options.engine = verify::EngineKind::Weighted;
        if (options.weights == nullptr)
            throw usage_error("engine 'weighted' requires a weight expression");
    } else if (spec.engine != "dual") {
        throw usage_error("unknown engine '" + spec.engine +
                          "' (moped, dual, weighted or exact)");
    }
    return options;
}

std::vector<std::string> split_queries(const std::string& text) {
    std::vector<std::string> queries;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        // '#' only comments out whole lines: inside a query it is the
        // router#router separator of link atoms like [.#v0].
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') continue;
        std::istringstream parts(line);
        std::string part;
        while (std::getline(parts, part, ';')) {
            const auto first = part.find_first_not_of(" \t\r");
            if (first == std::string::npos) continue;
            const auto last = part.find_last_not_of(" \t\r");
            queries.push_back(part.substr(first, last - first + 1));
        }
    }
    return queries;
}

namespace {

/// A command line being read left to right.
struct Args {
    int argc;
    char** argv;
    int i; ///< the option being read

    /// Consume and return the current option's value.
    std::string value() {
        if (i + 1 >= argc)
            throw usage_error(std::string("option '") + argv[i] + "' expects a value");
        return argv[++i];
    }
};

/// Read `arg` into `source` when it is a network-source flag.
bool source_flag(Args& args, const std::string& arg, NetworkSource& source) {
    if (arg == "--topology") source.topology_file = args.value();
    else if (arg == "--routing") source.routing_file = args.value();
    else if (arg == "--gml") source.gml_file = args.value();
    else if (arg == "--isis") source.isis_file = args.value();
    else if (arg == "--demo") source.demo = args.value();
    else if (arg == "--locations") source.locations_file = args.value();
    else return false;
    return true;
}

/// Read `arg` into `spec` when it is a verify-option flag.
bool spec_flag(Args& args, const std::string& arg, VerifySpec& spec) {
    if (arg == "--engine") spec.engine = args.value();
    else if (arg == "--weight") spec.weight = args.value();
    else if (arg == "--witnesses") spec.witnesses = parse_size(arg, args.value());
    else if (arg == "--max-iterations") spec.max_iterations = parse_size(arg, args.value());
    else if (arg == "--no-trace") spec.trace = false;
    else return false;
    return true;
}

} // namespace

Cli parse_cli(int argc, char** argv) {
    Cli cli;
    for (Args args{argc, argv, 1}; args.i < argc; ++args.i) {
        const std::string arg = argv[args.i];
        if (source_flag(args, arg, cli.source) || spec_flag(args, arg, cli.spec)) continue;
        if (arg == "--query" || arg == "-q") cli.queries.push_back(args.value());
        else if (arg == "--jobs") cli.jobs = parse_size(arg, args.value());
        else if (arg == "--queries-file") cli.queries_file = args.value();
        else if (arg == "--battery") cli.battery = parse_size(arg, args.value());
        else if (arg == "--interactive") cli.interactive = true;
        else if (arg == "--validate") cli.validate = true;
        else if (arg == "--validate=deep") cli.validate = cli.validate_deep = true;
        else if (arg == "--json") cli.as_json = true;
        else if (arg == "--html") cli.html_file = args.value();
        else if (arg == "--trace-json") cli.trace_json_file = args.value();
        else if (arg == "--trace-chrome") cli.trace_chrome_file = args.value();
        else if (arg == "--stats") cli.stats = true;
        else if (arg == "--explain") cli.explain = true;
        else if (arg == "--write-topology") cli.write_topology = args.value();
        else if (arg == "--write-routing") cli.write_routing = args.value();
        else if (arg == "--write-gml") cli.write_gml = args.value();
        else if (arg == "--info") cli.info = true;
        else if (arg == "--help" || arg == "-h") cli.help = true;
        else throw usage_error("unknown option '" + arg + "'");
    }
    return cli;
}

SweepCli parse_sweep_cli(int argc, char** argv, int first) {
    SweepCli sweep;
    for (Args args{argc, argv, first}; args.i < argc; ++args.i) {
        const std::string arg = argv[args.i];
        if (source_flag(args, arg, sweep.source) || spec_flag(args, arg, sweep.spec))
            continue;
        if (arg == "--template") sweep.query_template = args.value();
        else if (arg == "--pair") {
            const auto pair = args.value();
            const auto colon = pair.find(':');
            if (colon == std::string::npos || colon == 0 || colon + 1 == pair.size())
                throw usage_error("--pair expects SRC:DST, got '" + pair + "'");
            sweep.pairs.emplace_back(pair.substr(0, colon), pair.substr(colon + 1));
        } else if (arg == "--k") {
            std::istringstream parts(args.value());
            std::string part;
            while (std::getline(parts, part, ','))
                sweep.budgets.push_back(parse_size("--k", part));
            if (sweep.budgets.empty()) throw usage_error("--k expects N[,M,...]");
        } else if (arg == "--scenarios") sweep.scenarios_file = args.value();
        else if (arg == "--single-failures") {
            sweep.single_failures = true;
            sweep.single_failure_cap = parse_size(arg, args.value());
        } else if (arg == "--jobs") sweep.jobs = parse_size(arg, args.value());
        else if (arg == "--json") sweep.as_json = true;
        else if (arg == "--stats") sweep.stats = true;
        else if (arg == "--help" || arg == "-h") sweep.help = true;
        else throw usage_error("unknown option '" + arg + "'");
    }
    return sweep;
}

std::vector<verify::SweepScenario> scenarios_from_json(const json::Value& value) {
    if (!value.is_array())
        throw usage_error("scenarios must be a JSON array of scenario objects");
    std::vector<verify::SweepScenario> scenarios;
    scenarios.reserve(value.as_array().size());
    for (const auto& entry : value.as_array()) {
        if (!entry.is_object())
            throw usage_error("each scenario must be an object with 'failedLinks'");
        verify::SweepScenario scenario;
        if (const auto* name = entry.find("name"); name != nullptr) {
            if (!name->is_string())
                throw usage_error("scenario 'name' must be a string");
            scenario.name = name->as_string();
        }
        if (const auto* links = entry.find("failedLinks"); links != nullptr) {
            if (!links->is_array())
                throw usage_error("scenario 'failedLinks' must be an array of "
                                  "[router, interface] pairs");
            for (const auto& link : links->as_array()) {
                if (!link.is_array() || link.as_array().size() != 2 ||
                    !link.as_array()[0].is_string() || !link.as_array()[1].is_string())
                    throw usage_error("each failed link must be a [router, interface] "
                                      "string pair");
                scenario.failed_links.emplace_back(link.as_array()[0].as_string(),
                                                   link.as_array()[1].as_string());
            }
        }
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

void append_single_failure_scenarios(verify::SweepSpec& spec, const Network& network,
                                     std::size_t cap) {
    auto generated = verify::make_single_failure_scenarios(network, cap);
    // The generated battery leads with its own baseline; keep it only when
    // no explicit scenarios cover the grid yet.
    const auto begin =
        spec.scenarios.empty() ? generated.begin() : generated.begin() + 1;
    spec.scenarios.insert(spec.scenarios.end(), std::make_move_iterator(begin),
                          std::make_move_iterator(generated.end()));
}

verify::SweepSpec make_sweep_spec(const SweepCli& sweep, const Network& network) {
    if (sweep.query_template.empty())
        throw usage_error("sweep needs --template (with {src}/{dst}/{k} placeholders)");
    verify::SweepSpec spec;
    spec.query_template = sweep.query_template;
    spec.endpoint_pairs = sweep.pairs;
    spec.failure_budgets = sweep.budgets;
    if (!sweep.scenarios_file.empty())
        spec.scenarios = scenarios_from_json(json::parse(read_file(sweep.scenarios_file)));
    if (sweep.single_failures)
        append_single_failure_scenarios(spec, network, sweep.single_failure_cap);
    return spec;
}

ServeCli parse_serve_cli(int argc, char** argv, int first) {
    ServeCli serve;
    for (Args args{argc, argv, first}; args.i < argc; ++args.i) {
        const std::string arg = argv[args.i];
        if (source_flag(args, arg, serve.preload)) continue;
        if (arg == "--port") serve.port = parse_int(arg, args.value());
        else if (arg == "--bind") serve.bind_address = args.value();
        else if (arg == "--workers") serve.workers = parse_size(arg, args.value());
        else if (arg == "--queue") serve.queue_capacity = parse_size(arg, args.value());
        else if (arg == "--cache") serve.cache_capacity = parse_size(arg, args.value());
        else if (arg == "--deadline-ms") serve.deadline_ms = parse_int(arg, args.value());
        else if (arg == "--max-body-mb")
            serve.max_body_bytes = parse_size(arg, args.value()) << 20;
        else if (arg == "--access-log") serve.access_log = args.value();
        else if (arg == "--slow-query-ms") serve.slow_query_ms = parse_size(arg, args.value());
        else if (arg == "--help" || arg == "-h") serve.help = true;
        else throw usage_error("unknown option '" + arg + "'");
    }
    if (serve.port < 0 || serve.port > 65535)
        throw usage_error("--port expects 0..65535");
    return serve;
}

} // namespace aalwines::cli
