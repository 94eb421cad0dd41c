#pragma once
// Reusable command-line / request option handling for the aalwines front
// ends.  The one-shot CLI, the `aalwines serve` daemon, and the tests all
// share the same network-loading and verify-option resolution logic, so
// nothing in here terminates the process: bad usage raises `usage_error`,
// unreadable files raise `io_error`, and malformed documents propagate the
// library's own parse/model errors.  Only `main()` maps those to exit codes
// (see docs/SERVER.md for the exit-code contract).

#include <cstddef>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "model/quantity.hpp"
#include "model/routing.hpp"
#include "verify/engine.hpp"
#include "verify/sweep.hpp"

namespace aalwines::cli {

/// Bad command-line or request usage (unknown option/engine, missing value,
/// invalid combination).  The CLI prints the message plus usage and exits 2.
class usage_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A file could not be opened or read.  The CLI exits 1.
class io_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Read a whole file; throws io_error when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Where a network comes from, as file paths (the one-shot CLI and the
/// daemon's preload flags).  Exactly one source must be set.
struct NetworkSource {
    std::string topology_file, routing_file; ///< vendor-agnostic XML pair
    std::string gml_file;                    ///< Topology Zoo GML
    std::string isis_file;                   ///< IS-IS export mapping
    std::string demo;                        ///< figure1 | nordunet | zoo:N
    std::string locations_file;              ///< optional coordinates JSON

    [[nodiscard]] bool empty() const {
        return topology_file.empty() && routing_file.empty() && gml_file.empty() &&
               isis_file.empty() && demo.empty();
    }
};

/// The same sources as in-memory documents (the daemon's `POST /networks`
/// body).  IS-IS imports reference sibling files on disk and are therefore
/// file-only.
struct NetworkDocuments {
    std::string demo;                       ///< figure1 | nordunet | zoo:N
    std::string gml;                        ///< GML document text
    std::string topology_xml, routing_xml;  ///< XML pair document text
    std::string locations_json;             ///< optional coordinates JSON text
};

/// Load/synthesize a network.  Throws usage_error when no (or an unknown)
/// source is given, io_error for unreadable files, and parse_error /
/// model_error for malformed documents.
[[nodiscard]] Network load_network(const NetworkSource& source);
[[nodiscard]] Network load_network(const NetworkDocuments& documents);

/// Engine/option selection shared by the CLI flags and the daemon's
/// per-request JSON options.  Strings are kept unresolved so the struct is
/// trivially serialisable; resolve with `make_verify_options`.
struct VerifySpec {
    std::string engine = "dual"; ///< moped | dual | weighted | exact
    std::string weight;          ///< weight expression (implies weighted)
    bool trace = true;           ///< reconstruct witness traces
    std::size_t witnesses = 1;   ///< max distinct witness traces
    std::size_t max_iterations = 0; ///< saturation cap, 0 = unlimited

    /// Append every field to `key`, '\x1f'-separated (the unit separator
    /// cannot appear in query or weight text).  The one spelling the server's
    /// result cache and the Reverifier's session pool key on, so two specs
    /// share a key only when every field agrees.
    void append_key(std::string& key) const;
};

/// Resolve a VerifySpec.  `weights` receives the parsed weight expression
/// (the returned options point into it, so it must outlive them).  Throws
/// usage_error on an unknown engine or a weighted engine without weights,
/// parse_error on a malformed weight expression.
[[nodiscard]] verify::VerifyOptions make_verify_options(const VerifySpec& spec,
                                                        WeightExpr& weights);

/// The paper-suite query battery instantiated over a synthesized --demo
/// network (nordunet | zoo:N); `count` = 0 keeps the battery default.  The
/// nightly CI job feeds these through --validate=deep.  Throws usage_error
/// for sources without synthesis metadata (files, figure1).
[[nodiscard]] std::vector<std::string> demo_query_battery(const std::string& demo,
                                                          std::size_t count);

/// Split query text into one query per line, dropping blank lines and
/// '#'-comments (the --queries-file format).  Each line may also hold
/// several ';'-separated queries, as in the interactive REPL.
[[nodiscard]] std::vector<std::string> split_queries(const std::string& text);

/// Parsed one-shot CLI (see usage() in main.cpp for the flag reference).
struct Cli {
    NetworkSource source;
    std::vector<std::string> queries;
    VerifySpec spec;
    std::size_t jobs = 1;
    std::string queries_file;
    std::size_t battery = 0; ///< append N battery queries (--demo nordunet/zoo:N)
    bool interactive = false;
    bool validate = false;
    bool validate_deep = false;
    bool as_json = false;
    bool stats = false;
    bool explain = false; ///< per-query phase breakdown (text output)
    bool info = false;
    bool help = false;
    std::string html_file;
    std::string trace_json_file;
    std::string trace_chrome_file; ///< span tree as Chrome trace-event JSON
    std::string write_topology, write_routing, write_gml;
};

/// Parse the one-shot CLI argument vector.  Throws usage_error on unknown
/// options or missing values; --help/-h sets `help` instead of exiting.
[[nodiscard]] Cli parse_cli(int argc, char** argv);

/// Parsed `aalwines serve` command line.
struct ServeCli {
    std::string bind_address = "127.0.0.1";
    int port = 0;                  ///< 0 = ephemeral (printed on startup)
    std::size_t workers = 0;       ///< 0 = hardware concurrency
    std::size_t queue_capacity = 64;
    std::size_t cache_capacity = 256;
    long deadline_ms = 0;          ///< per-request wall budget, 0 = none
    std::size_t max_body_bytes = 64ull << 20;
    NetworkSource preload;         ///< optional network loaded at startup
    std::string access_log;        ///< JSON-lines request log ("" off, "-" stdout)
    std::size_t slow_query_ms = 0; ///< slow-request threshold, 0 = off
    bool help = false;
};

/// Parse `aalwines serve ...` (argv past the subcommand). Throws usage_error.
[[nodiscard]] ServeCli parse_serve_cli(int argc, char** argv, int first);

/// Parsed `aalwines sweep` command line (the sweep engine front end; see
/// verify/sweep.hpp for the grid model and sharing tiers).
struct SweepCli {
    NetworkSource source;
    VerifySpec spec;
    std::string query_template;   ///< --template, with {src}/{dst}/{k}
    std::vector<std::pair<std::string, std::string>> pairs; ///< --pair SRC:DST
    std::vector<std::uint64_t> budgets;                     ///< --k N,M,...
    std::string scenarios_file;   ///< --scenarios FILE (JSON scenario list)
    bool single_failures = false; ///< --single-failures N given
    std::size_t single_failure_cap = 0; ///< its N (0 = every up link)
    std::size_t jobs = 0;         ///< chain workers (0 = hardware concurrency)
    bool as_json = false;
    bool stats = false;
    bool help = false;
};

/// Parse `aalwines sweep ...` (argv past the subcommand). Throws usage_error.
[[nodiscard]] SweepCli parse_sweep_cli(int argc, char** argv, int first);

/// Decode a scenario list from JSON — the `--scenarios` file and the
/// daemon's sweep request body share this shape:
///   [ {"name": "core down", "failedLinks": [["R1", "eth0"], ...]}, ... ]
/// `name` is optional.  Throws usage_error on a malformed document.
[[nodiscard]] std::vector<verify::SweepScenario> scenarios_from_json(
    const json::Value& value);

/// Append the generated single-link-failure battery to a spec's scenario
/// axis (`cap` failure scenarios, 0 = every up link).  The generated
/// baseline is kept only when the spec had no scenarios yet — explicit
/// scenario lists decide themselves whether to include one.
void append_single_failure_scenarios(verify::SweepSpec& spec, const Network& network,
                                     std::size_t cap);

/// Assemble the sweep grid from a parsed command line: template, pairs and
/// budgets verbatim, scenarios from the --scenarios file and/or generated
/// single-link failures.  Throws usage_error when no template was given.
[[nodiscard]] verify::SweepSpec make_sweep_spec(const SweepCli& sweep,
                                                const Network& network);

} // namespace aalwines::cli
