// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--scale paper|tiny] [--trace-file FILE] [--dump-answers]
//
// Runs one workload and prints, as its last stdout line, the result object
// {"correct", "attempted", "failed", "metrics"}.  Exit code 0 on a completed
// run (oracle failures are reported in the line), 2 on usage errors, 1 when
// the run itself failed.

#include <cstdlib>
#include <iostream>
#include <string>

#include "json/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(flag + " expects a value");
            return argv[++i];
        };
        if (flag == "--workload") args.workload = value();
        else if (flag == "--seed") args.seed = std::stoull(value());
        else if (flag == "--seconds") args.seconds = std::stod(value());
        else if (flag == "--trace") args.trace = value() != "0";
        else if (flag == "--scale") args.scale = value();
        else if (flag == "--trace-file") args.trace_file = value();
        else if (flag == "--dump-answers") args.dump_answers = true;
        else throw std::invalid_argument("unknown option " + flag);
    }
    if (args.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    if (args.scale != "paper" && args.scale != "tiny")
        throw std::invalid_argument("--scale must be paper or tiny");
    return args;
}

std::string result_line(const Result& result) {
    aalwines::json::Object metrics;
    for (const auto& metric : result.metrics) {
        aalwines::json::Object entry;
        entry.emplace("value", metric.value);
        entry.emplace("unit", metric.unit);
        metrics.emplace(metric.name, aalwines::json::Value(std::move(entry)));
    }
    aalwines::json::Object line;
    line.emplace("correct", result.failed == 0);
    line.emplace("attempted", result.attempted);
    line.emplace("failed", result.failed);
    line.emplace("metrics", aalwines::json::Value(std::move(metrics)));
    return aalwines::json::write(aalwines::json::Value(std::move(line)));
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 2;
    }
    try {
        Result result;
        if (args.workload == "oneshot_paper") result = run_oneshot(args);
        else if (args.workload == "serve_mixed") result = run_serve(args);
        else if (args.workload == "whatif_session") result = run_whatif(args);
        else {
            std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
            return 2;
        }
        if (!args.dump_answers) std::cout << result_line(result) << std::endl;
    } catch (const std::exception& error) {
        std::cerr << "perfbench: " << args.workload << " failed: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
