// aalwines — command-line front end for the AalWiNes what-if analysis
// engine.  Loads a network (vendor-agnostic XML, a bundled demo network, or
// a Topology Zoo GML), verifies queries with the selected engine, and
// prints results as text or JSON.  `aalwines serve` runs the same pipeline
// as a long-lived HTTP daemon (docs/SERVER.md).
//
// Exit codes: 0 ok · 1 load/runtime error · 2 usage error ·
// 3 inconclusive or failed query · 4 validation violation.

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "io/formats.hpp"
#include "io/html_report.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"
#include "model/quantity.hpp"
#include "server/server.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/telemetry.hpp"
#include "validate/cross_check.hpp"
#include "verify/batch.hpp"
#include "verify/engine.hpp"

namespace {

using namespace aalwines;

void usage(std::ostream& out) {
    out <<
        "usage: aalwines [options] --query '<a> b <c> k'\n"
        "       aalwines serve [options]   (run the HTTP daemon, see below)\n"
        "       aalwines sweep [options]   (amortized what-if battery, see below)\n"
        "\n"
        "network sources (choose one):\n"
        "  --topology FILE --routing FILE   vendor-agnostic XML (Appendix A)\n"
        "  --isis MAPPING                   IS-IS export mapping file (Appendix A.1);\n"
        "                                   referenced XML files resolve relative to it\n"
        "  --gml FILE                       Topology Zoo GML (synthesizes a dataplane)\n"
        "  --demo figure1|nordunet|zoo:N    bundled demo networks\n"
        "\n"
        "options:\n"
        "  --query Q            query to verify (repeatable)\n"
        "  --engine E           moped | dual | weighted | exact  (default dual)\n"
        "  --weight W           weight vector, e.g. 'hops, failures + 3*tunnels'\n"
        "                       (implies --engine weighted)\n"
        "  --locations FILE     apply router coordinates (JSON)\n"
        "  --queries-file F     read one query per line from F ('#' comments)\n"
        "  --battery N          also verify N generated battery queries (the\n"
        "                       paper-suite shapes; needs --demo nordunet|zoo:N)\n"
        "  --interactive        read queries from stdin, one per line (the\n"
        "                       network stays loaded; ';' separates queries on\n"
        "                       a line; quit with EOF or 'quit')\n"
        "  --jobs N             verify queries on N worker threads (default 1)\n"
        "  --max-iterations N   per-saturation iteration cap (0 = unlimited)\n"
        "  --no-trace           do not reconstruct witness traces\n"
        "  --witnesses N        enumerate up to N distinct witness traces\n"
        "  --validate           check network well-formedness and replay every\n"
        "                       witness trace through the dataplane semantics\n"
        "  --validate=deep      additionally cross-check answers against the\n"
        "                       Moped baseline and (when tractable) the exact\n"
        "                       engine (see docs/CORRECTNESS.md)\n"
        "  --json               machine-readable output\n"
        "  --html FILE          write an HTML report with topology + witness paths\n"
        "  --stats              print engine statistics\n"
        "  --explain            print a per-query phase breakdown (translate /\n"
        "                       reduce / saturate / accept / witness, per pass,\n"
        "                       plus materialized vs total rules)\n"
        "  --trace-json FILE    write the telemetry trace (span tree + counters)\n"
        "                       as JSON on exit (see docs/OBSERVABILITY.md)\n"
        "  --trace-chrome FILE  write the span tree as Chrome trace-event JSON\n"
        "                       on exit (opens in ui.perfetto.dev)\n"
        "  --write-topology F   write the loaded topology as XML and exit\n"
        "  --write-routing F    write the loaded routing as XML and exit\n"
        "  --write-gml F        write the loaded topology as GML and exit\n"
        "  --info               print network statistics and exit\n"
        "\n"
        "serve options (see docs/SERVER.md for the HTTP API):\n"
        "  --port N             listen port (default 0 = ephemeral, printed)\n"
        "  --bind ADDR          bind address (default 127.0.0.1)\n"
        "  --workers N          worker threads (default: hardware concurrency)\n"
        "  --queue N            pending-request bound; overflow answers 503\n"
        "                       with Retry-After (default 64)\n"
        "  --cache N            compiled-query LRU capacity, 0 = off (default 256)\n"
        "  --deadline-ms N      expire requests that waited longer (504; 0 = off)\n"
        "  --max-body-mb N      request body limit (default 64)\n"
        "  --access-log FILE    append one JSON line per request ('-' = stdout;\n"
        "                       see docs/OBSERVABILITY.md for the record fields)\n"
        "  --slow-query-ms N    flag requests slower than N ms in the access\n"
        "                       log with full query detail (without\n"
        "                       --access-log, slow requests go to stderr)\n"
        "  plus any network source flags above to preload a workspace\n"
        "\n"
        "sweep options (amortize translation/saturation across a grid of\n"
        "queries; see docs/PERFORMANCE.md):\n"
        "  --template T         query template; {src}, {dst} and {k} expand per\n"
        "                       cell, e.g. '<ip> [.#{src}] .* [{dst}#.] <ip> {k}'\n"
        "  --pair SRC:DST       endpoint-pair axis (repeatable)\n"
        "  --k N[,M,...]        failure-budget axis\n"
        "  --scenarios FILE     link-failure scenarios as JSON:\n"
        "                       [{\"name\": \"...\", \"failedLinks\": [[router,\n"
        "                       out-interface], ...]}, ...]\n"
        "  --single-failures N  also sweep the baseline plus every single-link\n"
        "                       failure (capped at N scenarios; 0 = all links)\n"
        "  --jobs N             chain worker threads (default: hardware)\n"
        "  --json               emit the health-matrix JSON\n"
        "  --stats              include sharing accounting (and, with --json,\n"
        "                       per-cell engine stats)\n"
        "  plus network source and engine/verification flags above\n";
}

std::string read_file(const std::string& path) { return cli::read_file(path); }

void print_issues(const validate::Report& report, const std::string& subject) {
    for (const auto& issue : report.issues())
        std::cerr << "aalwines: validate: " << subject << ": "
                  << validate::to_string(issue.severity) << "(" << issue.component
                  << "): " << issue.message << "\n";
}

/// Witness replay (and, deep, cross-engine) validation of one query result.
/// Returns false when an error-severity issue was found.
bool validate_result(const Network& network, const std::string& query_text,
                     const verify::VerifyResult& result, const verify::VerifyOptions& options,
                     bool deep) {
    validate::Report report;
    try {
        const auto query = query::parse_query(query_text, network);
        report = validate::check_result(network, query, result, options.weights);
        if (deep) {
            validate::CrossCheckOptions cross;
            cross.weights = options.weights;
            cross.deep = true;
            cross.max_iterations = options.max_iterations;
            report.merge(validate::cross_check(network, query, cross).report);
        }
    } catch (const std::exception& error) {
        std::cerr << "aalwines: validate: " << query_text << ": " << error.what() << "\n";
        return false;
    }
    print_issues(report, query_text);
    return report.ok();
}

void write_trace_json(const std::string& path) {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "aalwines: cannot write '" << path << "'\n";
        return;
    }
    out << telemetry::to_json(telemetry::snapshot(), 2) << "\n";
    std::cerr << "wrote " << path << "\n";
}

void write_trace_chrome(const std::string& path) {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "aalwines: cannot write '" << path << "'\n";
        return;
    }
    out << telemetry::to_chrome_trace(telemetry::snapshot()) << "\n";
    std::cerr << "wrote " << path << " (open in ui.perfetto.dev)\n";
}

/// Both on-exit trace sinks; the snapshot is shared implicitly (each call
/// takes its own, but nothing runs between them).
void write_trace_outputs(const cli::Cli& cli) {
    write_trace_json(cli.trace_json_file);
    write_trace_chrome(cli.trace_chrome_file);
}

/// `--explain`: the per-pass phase breakdown of one result, from the same
/// PhaseStats the JSON stats output serialises.
void print_explain(const verify::VerifyStats& stats) {
    const auto pass = [](const char* name, const verify::PhaseStats& phase) {
        if (!phase.ran) return;
        const auto ms = [](double seconds) { return seconds * 1000.0; };
        std::cout << "  " << name << ": translate " << ms(phase.translate_seconds)
                  << "ms  reduce " << ms(phase.reduce_seconds) << "ms  saturate "
                  << ms(phase.saturate_seconds) << "ms (materialize "
                  << ms(phase.materialize_seconds) << "ms)  accept "
                  << ms(phase.accept_seconds) << "ms  witness "
                  << ms(phase.witness_seconds) << "ms  (phase total "
                  << ms(phase.seconds) << "ms)\n";
        std::cout << "    rules: " << phase.pda_rules_materialized << " materialized of "
                  << phase.pda_rules_total << " total";
        if (phase.lazy_translation && phase.pda_rules_total > 0)
            std::cout << " ("
                      << 100 * phase.pda_rules_materialized / phase.pda_rules_total
                      << "%, lazy)";
        else if (!phase.lazy_translation)
            std::cout << " (eager)";
        std::cout << "\n";
        if (phase.truncated) std::cout << "    truncated: iteration cap hit\n";
    };
    std::cout << "  explain (total " << stats.total_seconds * 1000.0 << "ms):\n";
    pass("over pass ", stats.over);
    pass("under pass", stats.under);
}

void print_result_text(const Network& network, const verify::VerifyResult& result,
                       bool stats, bool explain) {
    std::cout << "  answer: " << to_string(result.answer);
    if (!result.weight.empty()) {
        std::cout << "  weight: (";
        for (std::size_t i = 0; i < result.weight.size(); ++i)
            std::cout << (i ? ", " : "") << result.weight[i];
        std::cout << ")";
    }
    std::cout << "\n";
    if (result.witnesses.size() > 1) {
        for (std::size_t w = 0; w < result.witnesses.size(); ++w) {
            std::cout << "  witness " << (w + 1) << ":\n"
                      << display_trace(network, result.witnesses[w]);
        }
    } else if (result.trace) {
        std::cout << "  witness trace:\n" << display_trace(network, *result.trace);
    }
    if (!result.note.empty()) std::cout << "  note: " << result.note << "\n";
    if (stats) {
        std::cout << "  time: " << result.stats.total_seconds << "s"
                  << "  pda-rules: " << result.stats.over.pda_rules << " (of "
                  << result.stats.over.pda_rules_before_reduction
                  << " before reduction)"
                  << "  saturation-iterations: "
                  << result.stats.over.saturation_iterations
                  << "  relaxations: " << result.stats.over.worklist_relaxations
                  << "  peak-worklist: " << result.stats.over.peak_worklist << "\n";
        if (result.stats.over.lazy_translation)
            std::cout << "  materialized-rules: "
                      << result.stats.over.pda_rules_materialized << " of "
                      << result.stats.over.pda_rules_total
                      << "  materialized-states: "
                      << result.stats.over.pda_states_materialized << " of "
                      << result.stats.over.pda_states << "\n";
        if (result.stats.over.pda_rules_expanded != 0)
            std::cout << "  expanded-pda-rules: " << result.stats.over.pda_rules_expanded
                      << "  expanded-pda-states: " << result.stats.over.pda_states_expanded
                      << "\n";
        if (result.stats.under.ran)
            std::cout << "  under-phase: " << result.stats.under.saturation_iterations
                      << " iterations, " << result.stats.under.worklist_relaxations
                      << " relaxations, " << result.stats.under.seconds << "s\n";
    }
    if (explain) print_explain(result.stats);
}

// ---------------------------------------------------------------------------
// `aalwines serve`

server::Server* g_server = nullptr; ///< signal handler target

extern "C" void handle_stop_signal(int) {
    if (g_server != nullptr) g_server->request_stop();
}

int serve_main(const cli::ServeCli& serve) {
    server::ServiceConfig service_config;
    service_config.cache_capacity = serve.cache_capacity;
    service_config.access_log_path = serve.access_log;
    service_config.slow_query_ms = static_cast<std::uint32_t>(serve.slow_query_ms);
    server::Service service(service_config);

    if (!serve.preload.empty()) {
        const auto workspace = service.workspaces().add(cli::load_network(serve.preload));
        std::cerr << "aalwines: preloaded network '" << workspace.network->name
                  << "' as " << workspace.id << "\n";
    }

    server::ServerConfig config;
    config.bind_address = serve.bind_address;
    config.port = static_cast<std::uint16_t>(serve.port);
    config.workers = serve.workers;
    config.queue_capacity = serve.queue_capacity;
    config.deadline_ms = serve.deadline_ms;
    config.max_body_bytes = serve.max_body_bytes;
    server::Server daemon(service, config);
    daemon.start();

    g_server = &daemon;
    struct sigaction action{};
    action.sa_handler = handle_stop_signal;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    const auto workers = serve.workers != 0
                             ? serve.workers
                             : std::max(1u, std::thread::hardware_concurrency());
    std::cerr << "aalwines: serving on " << serve.bind_address << ":" << daemon.port()
              << " (workers=" << workers << ", queue=" << serve.queue_capacity
              << ", cache=" << serve.cache_capacity << ")\n";
    daemon.wait();
    g_server = nullptr;
    std::cerr << "aalwines: drained, shutting down\n";
    return 0;
}

// ---------------------------------------------------------------------------
// `aalwines sweep`

/// One answer character per matrix cell.
char cell_char(const verify::SweepCell& cell) {
    if (!cell.error.empty()) return 'E';
    switch (cell.result.answer) {
        case verify::Answer::Yes: return 'y';
        case verify::Answer::No: return 'n';
        case verify::Answer::Inconclusive: return 'i';
    }
    return '?';
}

int sweep_main(const cli::SweepCli& sweep_cli) {
    Network network = cli::load_network(sweep_cli.source);
    const auto spec = cli::make_sweep_spec(sweep_cli, network);
    WeightExpr weights;
    const auto options = cli::make_verify_options(sweep_cli.spec, weights);
    const auto sweep = verify::run_sweep(network, spec, options, sweep_cli.jobs);

    bool all_ok = true;
    for (const auto& cell : sweep.cells)
        if (!cell.error.empty() || cell.result.answer == verify::Answer::Inconclusive)
            all_ok = false;

    if (sweep_cli.as_json) {
        std::cout << json::write(io::sweep_to_json_value(network, spec, sweep,
                                                         sweep_cli.stats),
                                 2)
                  << "\n";
        return all_ok ? 0 : 3;
    }

    // The effective axes, after the engine's empty-axis collapse.
    const std::size_t n_pairs = std::max<std::size_t>(1, spec.endpoint_pairs.size());
    const std::size_t n_budgets = std::max<std::size_t>(1, spec.failure_budgets.size());
    const std::size_t n_scenarios = std::max<std::size_t>(1, spec.scenarios.size());

    std::cout << "sweep: " << n_pairs << " pairs x " << n_budgets << " budgets x "
              << n_scenarios << " scenarios = " << sweep.stats.cells << " cells\n"
              << "template: " << spec.query_template << "\n"
              << "scenarios:\n";
    for (std::size_t s = 0; s < n_scenarios; ++s) {
        const auto* name = s < spec.scenarios.size() ? &spec.scenarios[s].name : nullptr;
        std::cout << "  s" << s << ": "
                  << (name != nullptr && !name->empty() ? *name : "baseline") << "\n";
    }
    std::cout << "matrix (cols s0..s" << (n_scenarios - 1)
              << "; y=yes n=no i=inconclusive E=error):\n";
    for (std::size_t p = 0; p < n_pairs; ++p) {
        for (std::size_t b = 0; b < n_budgets; ++b) {
            std::string label = p < spec.endpoint_pairs.size()
                                    ? spec.endpoint_pairs[p].first + " -> " +
                                          spec.endpoint_pairs[p].second
                                    : "(all)";
            if (b < spec.failure_budgets.size())
                label += "  k=" + std::to_string(spec.failure_budgets[b]);
            std::cout << "  " << label << "  ";
            for (std::size_t s = 0; s < n_scenarios; ++s)
                std::cout << cell_char(sweep.cells[(p * n_budgets + b) * n_scenarios + s]);
            std::cout << "\n";
        }
    }
    // Errors repeat along a chain (all its cells fail alike); print each
    // distinct message once.
    std::vector<std::string> seen_errors;
    for (const auto& cell : sweep.cells) {
        if (cell.error.empty()) continue;
        if (std::find(seen_errors.begin(), seen_errors.end(), cell.error) !=
            seen_errors.end())
            continue;
        seen_errors.push_back(cell.error);
        std::cerr << "aalwines: " << cell.query_text << ": " << cell.error << "\n";
    }
    if (sweep_cli.stats) {
        const auto& stats = sweep.stats;
        std::cout << "stats: cold-saturations " << stats.cold_saturations
                  << "  reused-frontiers " << stats.reused_frontiers
                  << "  shared-saturations " << stats.shared_saturations
                  << "  nfa-compiles " << stats.nfa_compiles << "  errors "
                  << stats.errors << "  (" << stats.seconds << "s)\n";
    }
    return all_ok ? 0 : 3;
}

// ---------------------------------------------------------------------------
// One-shot CLI

int run_cli(const cli::Cli& cli) {
    Network network = cli::load_network(cli.source);

    bool validation_ok = true;
    if (cli.validate) {
        const auto report = validate::check_network(network);
        print_issues(report, "network");
        if (!report.ok()) {
            std::cerr << "aalwines: validate: network is malformed ("
                      << report.error_count() << " errors)\n";
            return 4;
        }
    }

    if (!cli.write_topology.empty()) {
        std::ofstream(cli.write_topology)
            << io::write_topology_xml(network.topology, network.name);
        std::cout << "wrote " << cli.write_topology << "\n";
    }
    if (!cli.write_routing.empty()) {
        std::ofstream(cli.write_routing) << io::write_routing_xml(network);
        std::cout << "wrote " << cli.write_routing << "\n";
    }
    if (!cli.write_gml.empty()) {
        std::ofstream(cli.write_gml) << io::write_gml(network.topology, network.name);
        std::cout << "wrote " << cli.write_gml << "\n";
    }
    if (cli.info) {
        const auto& topology = network.topology;
        std::size_t entries = network.routing.entry_count();
        std::size_t backup_rules = 0;
        network.routing.for_each([&](LinkId, Label, const RoutingEntry& groups) {
            for (std::size_t p = 1; p < groups.size(); ++p)
                backup_rules += groups[p].size();
        });
        std::size_t max_degree = 0;
        for (RouterId r = 0; r < topology.router_count(); ++r)
            max_degree = std::max(max_degree, topology.out_links(r).size());
        std::cout << "network:         " << network.name << "\n"
                  << "routers:         " << topology.router_count() << "\n"
                  << "directed links:  " << topology.link_count() << "\n"
                  << "interfaces:      " << topology.interface_count() << "\n"
                  << "max out-degree:  " << max_degree << "\n"
                  << "labels:          " << network.labels.size() << " (ip "
                  << network.labels.of_type(LabelType::Ip).size() << ", smpls "
                  << network.labels.of_type(LabelType::MplsBos).size() << ", mpls "
                  << network.labels.of_type(LabelType::Mpls).size() << ")\n"
                  << "table entries:   " << entries << "\n"
                  << "forwarding rules:" << network.routing.rule_count()
                  << " (backup: " << backup_rules << ")\n";
    }
    if (!cli.write_topology.empty() || !cli.write_routing.empty() ||
        !cli.write_gml.empty() || cli.info) {
        write_trace_outputs(cli);
        return 0;
    }

    std::vector<std::string> queries = cli.queries;
    if (!cli.queries_file.empty())
        for (auto& query : cli::split_queries(read_file(cli.queries_file)))
            queries.push_back(std::move(query));
    if (cli.battery > 0)
        for (auto& query : cli::demo_query_battery(cli.source.demo, cli.battery))
            queries.push_back(std::move(query));
    if (queries.empty() && !cli.interactive) {
        std::cerr << "aalwines: no --query given\n";
        return 2;
    }

    WeightExpr weights;
    const auto options = cli::make_verify_options(cli.spec, weights);

    json::Array results;
    std::vector<io::ReportEntry> report;
    bool all_ok = true;
    const auto batch = verify::verify_batch(network, queries, options, cli.jobs);
    for (const auto& item : batch) {
        const auto& query_text = item.query_text;
        if (!item.error.empty()) {
            std::cerr << "aalwines: " << query_text << ": " << item.error << "\n";
            all_ok = false;
            continue;
        }
        const auto& result = item.result;
        if (cli.as_json) {
            results.push_back(
                io::result_to_json_value(network, query_text, result, cli.stats));
        } else {
            std::cout << query_text << "\n";
            print_result_text(network, result, cli.stats, cli.explain);
        }
        if (result.answer == verify::Answer::Inconclusive) all_ok = false;
        if (cli.validate &&
            !validate_result(network, query_text, result, options, cli.validate_deep))
            validation_ok = false;
        if (!cli.html_file.empty()) report.push_back({query_text, result});
    }
    if (!cli.html_file.empty()) {
        std::ofstream(cli.html_file) << io::write_html_report(network, report);
        std::cerr << "wrote " << cli.html_file << "\n";
    }
    if (cli.as_json && !cli.interactive)
        std::cout << json::write(json::Value(std::move(results)), 2) << "\n";

    if (cli.interactive) {
        // The network (and nothing else) stays resident: every line is
        // parsed and verified on demand — the interactivity the paper
        // demonstrates through its GUI.  Lines run through verify_batch,
        // so ';'-separated queries on one line spread over --jobs workers
        // and a bad query never tears the loaded network down.
        std::string line;
        while (std::getline(std::cin, line)) {
            if (line == "quit" || line == "exit") break;
            const auto line_queries = cli::split_queries(line);
            if (line_queries.empty()) continue;
            const auto interactive_batch =
                verify::verify_batch(network, line_queries, options, cli.jobs);
            for (const auto& item : interactive_batch) {
                if (!item.error.empty()) {
                    std::cout << "error: " << item.error << "\n";
                    continue;
                }
                const auto& result = item.result;
                if (cli.validate &&
                    !validate_result(network, item.query_text, result, options,
                                     cli.validate_deep))
                    validation_ok = false;
                if (cli.as_json) {
                    std::cout << io::result_to_json(network, item.query_text, result,
                                                    cli.stats)
                              << "\n";
                } else {
                    if (interactive_batch.size() > 1)
                        std::cout << item.query_text << "\n";
                    std::cout << "answer: " << to_string(result.answer);
                    if (!result.weight.empty()) {
                        std::cout << "  weight: (";
                        for (std::size_t i = 0; i < result.weight.size(); ++i)
                            std::cout << (i ? ", " : "") << result.weight[i];
                        std::cout << ")";
                    }
                    std::cout << "  (" << result.stats.total_seconds << "s)\n";
                    if (result.trace) std::cout << display_trace(network, *result.trace);
                    if (cli.explain) print_explain(result.stats);
                }
            }
            std::cout.flush();
        }
        write_trace_outputs(cli);
        return validation_ok ? 0 : 4;
    }
    write_trace_outputs(cli);
    if (!validation_ok) return 4;
    if (cli.validate) std::cerr << "aalwines: validate: all checks passed\n";
    return all_ok ? 0 : 3;
}

} // namespace

int main(int argc, char** argv) {
    try {
        if (argc > 1 && std::string(argv[1]) == "serve") {
            const auto serve = cli::parse_serve_cli(argc, argv, 2);
            if (serve.help) {
                usage(std::cout);
                return 0;
            }
            return serve_main(serve);
        }
        if (argc > 1 && std::string(argv[1]) == "sweep") {
            const auto sweep = cli::parse_sweep_cli(argc, argv, 2);
            if (sweep.help) {
                usage(std::cout);
                return 0;
            }
            return sweep_main(sweep);
        }
        const auto cli = cli::parse_cli(argc, argv);
        if (cli.help) {
            usage(std::cout);
            return 0;
        }
        return run_cli(cli);
    } catch (const cli::usage_error& error) {
        std::cerr << "aalwines: " << error.what() << "\n";
        usage(std::cerr);
        return 2;
    } catch (const std::exception& error) {
        std::cerr << "aalwines: " << error.what() << "\n";
        return 1;
    }
}
