// whatif_session: a long what-if session against the daemon.  The 1600-chain
// NORDUnet-like network is loaded into a fresh in-process daemon and one
// client runs a seeded, fixed-length session, three times over, each on a
// fresh daemon: each step PATCHes one change
// (a single forwarding rule removed or re-added, or a core link taken down
// or brought back) and re-answers a fixed standing set of queries; every few
// steps it runs `POST /networks/{id}/sweep` over endpoint pairs × k=1 × every
// single-link failure.  Writes beside reads: delta apply, the Reverifier's
// reused / warm / cold tiers, Translation::rebase and the sweep frontier
// reuse.  The session length is fixed, not time-bounded, because warm cost
// grows with session length: a timed run would measure a different session
// whenever the program got faster or slower.

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <thread>

#include "cli/options.hpp"
#include "delta/delta.hpp"
#include "delta/reverify.hpp"
#include "io/formats.hpp"
#include "io/results_json.hpp"
#include "json/json.hpp"
#include "layers.hpp"
#include "query/query.hpp"
#include "synthesis/queries.hpp"
#include "verify/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace aalwines;
using telemetry::Counter;

namespace {

constexpr const char* k_sweep_template = "<ip> [.#{src}] .* [.#{dst}] <ip> {k}";

delta::DeltaOp::LabelRef label_ref(const LabelTable& labels, Label label) {
    return {labels.type_of(label), labels.name_of(label)};
}

/// A forwarding rule that can be removed and re-added on its own.
struct RuleSite {
    delta::DeltaOp remove;
    delta::DeltaOp add;
};

/// Removable rules grouped by in-link.  A remove-rule with ops matches every
/// rule with the same (in-link, label, out-link, ops), so only signatures
/// that occur once qualify.
std::vector<std::vector<RuleSite>> collect_rule_sites(const Network& network) {
    const auto& topology = network.topology;
    std::map<std::string, std::size_t> occurrences;
    const auto signature = [](LinkId in_link, Label label, const ForwardingRule& rule) {
        std::string sig = std::to_string(in_link) + '/' + std::to_string(label) + '/' +
                          std::to_string(rule.out_link);
        for (const auto& op : rule.ops)
            sig += '/' + std::to_string(static_cast<int>(op.kind)) + ':' +
                   std::to_string(op.label);
        return sig;
    };
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        for (const auto& group : groups)
            for (const auto& rule : group) ++occurrences[signature(in_link, label, rule)];
    });
    std::map<LinkId, std::vector<RuleSite>> by_link;
    network.routing.for_each([&](LinkId in_link, Label label, const RoutingEntry& groups) {
        const auto& in = topology.link(in_link);
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const auto& rule : groups[g]) {
                if (occurrences[signature(in_link, label, rule)] != 1) continue;
                delta::DeltaOp remove;
                remove.kind = delta::DeltaOp::Kind::RemoveRule;
                remove.router = topology.router_name(in.target);
                remove.in_interface = topology.interface(in.target_interface).name;
                remove.out_interface =
                    topology.interface(topology.link(rule.out_link).source_interface).name;
                remove.label = label_ref(network.labels, label);
                remove.match_ops = true;
                for (const auto& op : rule.ops)
                    remove.ops.push_back({op.kind, op.kind == Op::Kind::Pop
                                                       ? delta::DeltaOp::LabelRef{}
                                                       : label_ref(network.labels, op.label)});
                auto add = remove;
                add.kind = delta::DeltaOp::Kind::AddRule;
                add.match_ops = false;
                add.priority = static_cast<std::uint32_t>(g + 1);
                by_link[in_link].push_back({std::move(remove), std::move(add)});
            }
        }
    });
    std::vector<std::vector<RuleSite>> sites;
    for (auto& [link, group] : by_link) sites.push_back(std::move(group));
    return sites;
}

/// The wire form of one delta op (docs/FORMATS.md, "Network delta JSON").
json::Value op_to_json(const delta::DeltaOp& op) {
    using Kind = delta::DeltaOp::Kind;
    json::Object object;
    object.emplace("router", op.router);
    if (op.kind == Kind::LinkState) {
        object.emplace("op", "link-state");
        object.emplace("interface", op.out_interface);
        object.emplace("up", op.up);
        return json::Value(std::move(object));
    }
    object.emplace("op", op.kind == Kind::AddRule ? "add-rule" : "remove-rule");
    object.emplace("from", op.in_interface);
    object.emplace("to", op.out_interface);
    object.emplace("label", op.label.name);
    object.emplace("type", std::string(to_string(op.label.type)));
    if (op.kind == Kind::AddRule)
        object.emplace("priority", static_cast<std::size_t>(op.priority));
    json::Array ops;
    for (const auto& stack_op : op.ops) {
        json::Object entry;
        entry.emplace("op", stack_op.kind == Op::Kind::Push   ? "push"
                            : stack_op.kind == Op::Kind::Swap ? "swap"
                                                              : "pop");
        if (stack_op.kind != Op::Kind::Pop) {
            entry.emplace("label", stack_op.label.name);
            entry.emplace("type", std::string(to_string(stack_op.label.type)));
        }
        ops.emplace_back(std::move(entry));
    }
    object.emplace("ops", json::Value(std::move(ops)));
    return json::Value(std::move(object));
}

delta::DeltaOp link_state(const Topology& topology, LinkId link, bool up) {
    delta::DeltaOp op;
    op.kind = delta::DeltaOp::Kind::LinkState;
    op.router = topology.router_name(topology.link(link).source);
    op.out_interface = topology.interface(topology.link(link).source_interface).name;
    op.up = up;
    return op;
}

struct Step {
    delta::NetworkDelta delta;
    std::string body; ///< PATCH body
    bool sweep = false; ///< run the sweep after this step's answers
    /// Rule steps: the in-link whose rule is toggled (-1 for a link step)
    /// and how many times that same rule was toggled before.
    std::ptrdiff_t site = -1;
    std::size_t toggle = 0;
};

/// The seeded session: a warm-up delta (one link down and up again, so the
/// daemon's Reverifier and its per-query sessions exist before timing),
/// then single-change steps.
struct Session {
    std::vector<std::string> standing;
    Step warmup;
    std::vector<Step> steps;
    verify::SweepSpec sweep; ///< template, pairs, budgets; scenarios per run
    std::size_t sweep_cap = 0; ///< singleFailures value (0 = every up link)
    std::string sweep_body;
};

std::string delta_body(const delta::NetworkDelta& delta) {
    json::Array ops;
    for (const auto& op : delta.ops) ops.push_back(op_to_json(op));
    json::Object object;
    object.emplace("operations", json::Value(std::move(ops)));
    return json::write(json::Value(std::move(object)));
}

Session make_session(const synthesis::SyntheticNetwork& net, const Network& network,
                     const Args& args) {
    Session session;
    const auto table1 = synthesis::make_table1_queries(net);
    session.standing.assign(table1.begin(), table1.begin() + 5); // all but the stress shape

    const auto& topology = network.topology;
    std::vector<LinkId> core_links;
    for (LinkId id = 0; id < topology.link_count(); ++id) {
        const auto& link = topology.link(id);
        if (topology.router_name(link.source).rfind("X_", 0) != 0 &&
            topology.router_name(link.target).rfind("X_", 0) != 0)
            core_links.push_back(id);
    }
    auto sites = collect_rule_sites(network);
    if (sites.empty() || core_links.empty())
        throw std::runtime_error("no rule sites or core links to toggle");
    if (args.tiny()) {
        sites.resize(std::min<std::size_t>(sites.size(), 4));
        core_links.resize(std::min<std::size_t>(core_links.size(), 3));
    }

    session.warmup.delta.ops = {link_state(topology, core_links.front(), false),
                                link_state(topology, core_links.front(), true)};
    session.warmup.body = delta_body(session.warmup.delta);

    // Changes come in pairs that undo each other (a rule removed then
    // re-added, a core link taken down then brought back), so the network
    // stays one change away from the loaded one and the session measures
    // how cost evolves with its length, not a network that decays.  One
    // cycle toggles one rule on every in-link twice, half a cycle apart,
    // and every core link once, in link-id order, link pairs spread evenly
    // among rule pairs: every seed's session has the same shape, which
    // matters because warm cost grows with session position, and the same
    // change recurs later in the session on the same network state.  The
    // seed picks the rule toggled on each in-link and the sweep endpoints.
    // Sweeps run between pairs, on the restored network.
    std::mt19937_64 rng(args.seed);
    std::vector<const RuleSite*> chosen;
    for (const auto& group : sites) chosen.push_back(&group[rng() % group.size()]);
    const std::size_t cycles =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(args.seconds / 20)));
    std::vector<std::size_t> buckets;
    std::vector<LinkId> links;
    for (std::size_t c = 0; c < cycles; ++c) {
        for (std::size_t pass = 0; pass < 2; ++pass)
            for (std::size_t b = 0; b < sites.size(); ++b) buckets.push_back(b);
        links.insert(links.end(), core_links.begin(), core_links.end());
    }
    const std::size_t pairs_total = buckets.size() + links.size();
    const std::size_t sweeps = args.tiny() ? 3 : 6;
    std::size_t next_bucket = 0, next_link = 0;
    std::vector<std::size_t> toggles(sites.size(), 0);
    for (std::size_t p = 0; p < pairs_total; ++p) {
        Step change, undo;
        if ((p + 1) * links.size() / pairs_total > p * links.size() / pairs_total) {
            const auto link = links[next_link++];
            change.delta.ops.push_back(link_state(topology, link, false));
            undo.delta.ops.push_back(link_state(topology, link, true));
        } else {
            const auto bucket = buckets[next_bucket++];
            change.delta.ops.push_back(chosen[bucket]->remove);
            undo.delta.ops.push_back(chosen[bucket]->add);
            change.site = undo.site = static_cast<std::ptrdiff_t>(bucket);
            change.toggle = undo.toggle = toggles[bucket]++;
        }
        change.body = delta_body(change.delta);
        undo.body = delta_body(undo.delta);
        undo.sweep = (p + 1) * sweeps / pairs_total > p * sweeps / pairs_total;
        session.steps.push_back(std::move(change));
        session.steps.push_back(std::move(undo));
    }

    session.sweep.query_template = k_sweep_template;
    std::vector<std::pair<RouterId, RouterId>> pairs = net.lsp_pairs;
    std::shuffle(pairs.begin(), pairs.end(), rng);
    // More endpoint chains than workers, so one slow chain does not set the
    // sweep's wall time.
    for (std::size_t p = 0; p < std::min<std::size_t>(args.tiny() ? 3 : 16, pairs.size()); ++p)
        session.sweep.endpoint_pairs.emplace_back(topology.router_name(pairs[p].first),
                                                  topology.router_name(pairs[p].second));
    session.sweep.failure_budgets = {1};
    session.sweep_cap = args.tiny() ? 12 : 0;

    json::Object body;
    body.emplace("template", session.sweep.query_template);
    json::Array pair_array;
    for (const auto& [src, dst] : session.sweep.endpoint_pairs) {
        json::Array pair;
        pair.emplace_back(src);
        pair.emplace_back(dst);
        pair_array.emplace_back(std::move(pair));
    }
    body.emplace("pairs", json::Value(std::move(pair_array)));
    json::Array budgets;
    budgets.emplace_back(1);
    body.emplace("budgets", json::Value(std::move(budgets)));
    body.emplace("singleFailures", session.sweep_cap);
    body.emplace("jobs", parallelism());
    session.sweep_body = json::write(json::Value(std::move(body)));
    return session;
}

/// What the client saw over one HTTP session, kept for the oracles.
struct Observed {
    std::vector<double> step_ms;   ///< PATCH sent → last standing answer
    std::vector<double> sweep_ms;  ///< per sweep
    std::size_t sweep_cells = 0;
    double wall_ms = 0;            ///< the whole timed session
    std::size_t attempted = 0;
    std::vector<std::string> failures;
    std::size_t inconclusive = 0;
    /// step -> reply body per standing query, for sampled steps.
    std::map<std::size_t, std::vector<std::string>> sampled;
    /// step -> reply body, for every sweep.
    std::map<std::size_t, std::string> sweeps;
};

bool sampled_step(std::size_t s, std::size_t steps) {
    return s % 10 == 0 || s + 1 == steps;
}

/// A fresh daemon with the network loaded, the warm-up delta applied and
/// the standing queries answered once.
struct Loaded {
    std::unique_ptr<Daemon> daemon;
    std::string item; ///< /networks/{id}
    double setup_ms = 0;
};

Loaded start_daemon(const Fixture& fixture, const Session& session) {
    Loaded loaded;
    const auto start = Clock::now();
    loaded.daemon = std::make_unique<Daemon>();
    loaded.item = "/networks/" + load_network(loaded.daemon->port(), nullptr, fixture);
    const auto port = loaded.daemon->port();
    if (http_request(port, "PATCH", loaded.item, session.warmup.body).status != 200)
        throw std::runtime_error("warm-up PATCH failed");
    for (const auto& text : session.standing)
        if (http_request(port, "POST", loaded.item + "/query",
                         "{\"query\": " + quoted(text) + "}")
                .status != 200)
            throw std::runtime_error("warm-up query failed: " + text);
    loaded.setup_ms = ms_since(start);
    return loaded;
}

Observed drive(const Loaded& loaded, const Session& session, Tracer* tracer) {
    Observed seen;
    const auto port = loaded.daemon->port();
    std::vector<std::string> query_bodies;
    for (const auto& text : session.standing)
        query_bodies.push_back("{\"query\": " + quoted(text) + "}");
    const auto check = [&](const HttpReply& reply, const std::string& what) {
        ++seen.attempted;
        if (reply.status != 200)
            seen.failures.push_back(what + " answered " + std::to_string(reply.status));
    };
    const auto session_start = Clock::now();
    for (std::size_t s = 0; s < session.steps.size(); ++s) {
        const auto& step = session.steps[s];
        std::vector<std::string> answers;
        {
            Tracer::Span span(tracer, "step", s);
            const auto begin = Clock::now();
            {
                Tracer::Span patch_span(tracer, "http.patch", s);
                check(http_request(port, "PATCH", loaded.item, step.body), "PATCH");
            }
            for (const auto& body : query_bodies) {
                Tracer::Span query_span(tracer, "http.query", s);
                auto reply = http_request(port, "POST", loaded.item + "/query", body);
                check(reply, "query");
                answers.push_back(std::move(reply.body));
            }
            seen.step_ms.push_back(ms_since(begin));
        }
        for (const auto& body : answers) {
            const auto reply = json::parse(body);
            const auto* answer = reply.is_object() ? reply.find("answer") : nullptr;
            if (answer != nullptr && answer->as_string() == "inconclusive")
                ++seen.inconclusive;
        }
        if (sampled_step(s, session.steps.size())) seen.sampled.emplace(s, std::move(answers));
        if (step.sweep) {
            Tracer::Span span(tracer, "http.sweep", s);
            const auto begin = Clock::now();
            auto reply = http_request(port, "POST", loaded.item + "/sweep", session.sweep_body);
            seen.sweep_ms.push_back(ms_since(begin));
            check(reply, "sweep");
            if (reply.status == 200)
                seen.sweep_cells += json::parse(reply.body).at("cells").as_array().size();
            seen.sweeps.emplace(s, std::move(reply.body));
        }
    }
    seen.wall_ms = ms_since(session_start);
    return seen;
}

/// The sweep reply without timings and tiers (cells, axes, answers, traces).
std::string canonical_sweep(json::Value value) {
    auto& object = value.as_object();
    for (const auto* key : {"stats", "network", "generation"}) object.erase(key);
    for (auto& cell : object.at("cells").as_array()) {
        cell.as_object().erase("seconds");
        cell.as_object().erase("path");
    }
    return json::write(value);
}

/// The tier of every cell of a sweep reply, in cell order.
std::string cell_paths(const json::Value& value) {
    std::string paths;
    for (const auto& cell : value.at("cells").as_array())
        paths += cell.at("path").as_string() + ' ';
    return paths;
}

/// One-by-one cold cells of `spec` on `network` in the sweep reply's form.
std::string cold_sweep(const Network& network, const verify::SweepSpec& spec) {
    verify::SweepResult expected;
    for (std::size_t p = 0; p < spec.endpoint_pairs.size(); ++p)
        for (std::size_t b = 0; b < spec.failure_budgets.size(); ++b)
            for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
                verify::SweepCell cell;
                cell.pair = p;
                cell.budget = b;
                cell.scenario = s;
                cell.query_text = verify::instantiate_template(
                    spec.query_template, spec.endpoint_pairs[p].first,
                    spec.endpoint_pairs[p].second, spec.failure_budgets[b]);
                expected.cells.push_back(std::move(cell));
            }
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < parallelism(); ++w)
        workers.emplace_back([&, w] {
            for (std::size_t i = w; i < expected.cells.size(); i += parallelism()) {
                auto& cell = expected.cells[i];
                delta::NetworkDelta failures;
                const auto& failed = spec.scenarios[cell.scenario].failed_links;
                for (const auto& [router, interface] : failed) {
                    delta::DeltaOp op;
                    op.kind = delta::DeltaOp::Kind::LinkState;
                    op.router = router;
                    op.out_interface = interface;
                    op.up = false;
                    failures.ops.push_back(op);
                }
                try {
                    const auto scenario = delta::apply_delta(network, failures).network;
                    cell.result = verify::verify(
                        *scenario, query::parse_query(cell.query_text, *scenario));
                } catch (const std::exception& error) {
                    cell.error = std::string("oracle error: ") + error.what();
                }
            }
        });
    for (auto& worker : workers) worker.join();
    return canonical_sweep(io::sweep_to_json_value(network, spec, expected));
}

} // namespace

Result run_whatif(const Args& args) {
    Result out;
    const double calib_start = calibrate_host_ms();
    const auto fixture = make_fixture(args.tiny() ? 100 : 1600);
    const auto base = std::make_shared<const Network>(
        io::read_network_xml(fixture.topology_xml, fixture.routing_xml));
    const auto session = make_session(fixture.net, *base, args);

    // The session runs three times, each on a fresh daemon.  Set-up is the
    // median of the three; every step and every sweep is timed at its
    // fastest of the three, the same work with bursts of neighbour load
    // filtered out.
    constexpr int k_sessions = 3;
    std::vector<double> setup_ms;
    std::vector<Observed> runs;
    const auto before = telemetry::snapshot();
    for (int rep = 0; rep < k_sessions; ++rep) {
        const auto loaded = start_daemon(fixture, session);
        setup_ms.push_back(loaded.setup_ms);
        runs.push_back(drive(loaded, session, nullptr));
    }
    const auto after = telemetry::snapshot();
    const auto& seen = runs.front();

    // Oracles (untimed).  The client keeps its own snapshot chain with the
    // same deltas; every session's sampled re-answers must be byte-identical
    // to a cold verify() on that snapshot, and its first sweep's cells to
    // one-by-one cold cells.
    std::size_t inconclusive = 0;
    for (const auto& run : runs) {
        out.attempted += run.attempted;
        inconclusive += run.inconclusive;
        for (const auto& failure : run.failures) out.fail(failure);
    }
    const auto first_sweep = seen.sweeps.begin();
    std::map<std::size_t, std::shared_ptr<const Network>> snapshots; // checked steps only
    auto snapshot = delta::apply_delta(*base, session.warmup.delta).network;
    for (std::size_t s = 0; s < session.steps.size(); ++s) {
        snapshot = delta::apply_delta(*snapshot, session.steps[s].delta).network;
        if (seen.sampled.contains(s) ||
            (first_sweep != seen.sweeps.end() && s == first_sweep->first))
            snapshots.emplace(s, snapshot);
    }
    for (const auto& [s, answers] : seen.sampled) {
        for (std::size_t q = 0; q < answers.size(); ++q) {
            const auto& network = *snapshots.at(s);
            const auto& text = session.standing[q];
            const auto expected = canonical_result(
                network, text, verify::verify(network, query::parse_query(text, network)));
            for (const auto& run : runs)
                if (canonical_reply(run.sampled.at(s)[q]) != expected)
                    out.fail("step " + std::to_string(s) +
                             " re-answer differs from cold verify(): " + text);
        }
    }
    if (first_sweep != seen.sweeps.end()) {
        auto spec = session.sweep;
        const auto& network = *snapshots.at(first_sweep->first);
        cli::append_single_failure_scenarios(spec, network, session.sweep_cap);
        const auto expected = cold_sweep(network, spec);
        for (const auto& run : runs)
            if (canonical_sweep(json::parse(run.sweeps.at(first_sweep->first))) != expected)
                out.fail("first sweep differs from one-by-one cold cells");
    }

    if (!args.trace) {
        const auto fastest = [&](std::vector<double> Observed::*times) {
            auto best = seen.*times;
            for (const auto& run : runs)
                for (std::size_t i = 0; i < best.size(); ++i)
                    best[i] = std::min(best[i], (run.*times)[i]);
            return best;
        };
        const auto step_ms = fastest(&Observed::step_ms);
        const auto sweep_ms = fastest(&Observed::sweep_ms);
        add_common_metrics(out, setup_ms, inconclusive,
                           k_sessions * session.steps.size() * session.standing.size(),
                           calib_start);
        out.add("p50_ms", median(step_ms), "ms");
        out.add("tail_ms", percentile(step_ms, 0.90), "ms");
        out.add("throughput_per_s",
                static_cast<double>(seen.sweep_cells) /
                    (std::accumulate(sweep_ms.begin(), sweep_ms.end(), 0.0) / 1000.0),
                "1/s");
        return out;
    }

    // Traced run.  1) The same session again on a fresh daemon with spans,
    // then once more without: the two later sessions run in an equally warm
    // process, so their wall-time difference is the tracing overhead.
    Tracer tracer;
    double traced_ms = 0, untraced_ms = 0;
    {
        auto traced = start_daemon(fixture, session);
        traced_ms = drive(traced, session, &tracer).wall_ms;
    }
    {
        auto untraced = start_daemon(fixture, session);
        untraced_ms = drive(untraced, session, nullptr).wall_ms;
    }

    // 2) The same seeded session replayed in process against
    // delta::Reverifier (the PATCH tiers) and run_sweep (the sweep tiers).
    // On sampled steps each outcome (answer and tier) must equal the
    // daemon's reply, and every sweep's cells (answers and tiers) the
    // daemon's sweep reply, so these figures measure what the daemon ran.
    delta::Reverifier reverifier(base);
    const cli::VerifySpec spec; // dual, auto (= lazy) translation, one thread
    WeightExpr no_weights;
    const auto sweep_options = cli::make_verify_options(spec, no_weights);
    (void)reverifier.apply(session.warmup.delta);
    for (const auto& text : session.standing) (void)reverifier.verify(text, spec);
    std::vector<double> apply_ms, reused_ms, warm_ms, cold_ms;
    std::vector<std::pair<std::size_t, double>> warm_by_step;
    std::vector<double> sweep_cold_ms, sweep_warm_ms;
    std::size_t sweep_cells = 0, sweep_reused = 0;
    std::uint64_t op = 1u << 30;
    const auto replay_before = telemetry::snapshot();
    for (std::size_t s = 0; s < session.steps.size(); ++s) {
        Tracer::Span step_span(&tracer, "replay.step", op);
        {
            Tracer::Span span(&tracer, "delta.apply", op);
            (void)reverifier.apply(session.steps[s].delta);
            apply_ms.push_back(span.close());
        }
        const auto sampled = seen.sampled.find(s);
        for (std::size_t q = 0; q < session.standing.size(); ++q) {
            const auto& text = session.standing[q];
            Tracer::Span span(&tracer, "delta.verify", op);
            const auto outcome = reverifier.verify(text, spec);
            const double ms = span.close();
            switch (outcome.path) {
                case delta::VerifyPath::Reused: reused_ms.push_back(ms); break;
                case delta::VerifyPath::Warm:
                    warm_ms.push_back(ms);
                    warm_by_step.emplace_back(s, ms);
                    break;
                case delta::VerifyPath::Cold: cold_ms.push_back(ms); break;
            }
            if (sampled == seen.sampled.end()) continue;
            const auto& body = sampled->second[q];
            const auto reply = json::parse(body);
            const auto* path = reply.find("path");
            if (canonical_reply(body) !=
                    canonical_result(*reverifier.network(), text, outcome.result) ||
                path == nullptr || path->as_string() != delta::to_string(outcome.path))
                out.fail("step " + std::to_string(s) +
                         " Reverifier outcome differs from the daemon's reply: " + text);
        }
        step_span.close();
        if (session.steps[s].sweep) {
            auto sweep_spec = session.sweep;
            const auto network = reverifier.network();
            cli::append_single_failure_scenarios(sweep_spec, *network, session.sweep_cap);
            Tracer::Span span(&tracer, "sweep.run", op);
            const auto sweep =
                verify::run_sweep(*network, sweep_spec, sweep_options, parallelism());
            span.close();
            for (const auto& cell : sweep.cells) {
                ++sweep_cells;
                const double ms = cell.seconds * 1e3;
                if (cell.path == verify::CellPath::Cold) sweep_cold_ms.push_back(ms);
                if (cell.path == verify::CellPath::Warm) sweep_warm_ms.push_back(ms);
                if (cell.path == verify::CellPath::Reused) ++sweep_reused;
            }
            const auto replayed = io::sweep_to_json_value(*network, sweep_spec, sweep);
            const auto reply = seen.sweeps.find(s);
            if (reply == seen.sweeps.end() ||
                canonical_sweep(json::parse(reply->second)) != canonical_sweep(replayed) ||
                cell_paths(json::parse(reply->second)) != cell_paths(replayed))
                out.fail("step " + std::to_string(s) +
                         " run_sweep differs from the daemon's sweep");
        }
        ++op;
    }
    const auto invalidated =
        counter_delta(replay_before, telemetry::snapshot(), Counter::delta_states_invalidated);

    // 3) The verification layers, replayed on the standing queries (cold,
    // on the loaded network); answers and work counters must equal verify()'s.
    LayerTotals totals;
    for (const auto& text : session.standing)
        (void)replay_checked(*base, text, nullptr, &tracer, op++, totals, out);

    // Warm re-verify cost of the same change late in the session against
    // early in it: each in-link's rule is toggled again half a cycle later,
    // on the same network state, so only the session's history differs.
    // Mean warm ms of every in-link's last toggle ÷ its first toggle, over
    // in-links with warm re-verifies in both.
    std::map<std::ptrdiff_t, std::size_t> last_toggle;
    for (const auto& step : session.steps)
        if (step.site >= 0)
            last_toggle[step.site] = std::max(last_toggle[step.site], step.toggle);
    std::map<std::ptrdiff_t, std::vector<double>> first_by_site, last_by_site;
    for (const auto& [s, ms] : warm_by_step) {
        const auto& step = session.steps[s];
        if (step.site < 0 || last_toggle[step.site] == 0) continue;
        if (step.toggle == 0) first_by_site[step.site].push_back(ms);
        if (step.toggle == last_toggle[step.site]) last_by_site[step.site].push_back(ms);
    }
    std::vector<double> first, last;
    for (const auto& [site, samples] : first_by_site) {
        const auto later = last_by_site.find(site);
        if (later == last_by_site.end()) continue;
        first.insert(first.end(), samples.begin(), samples.end());
        last.insert(last.end(), later->second.begin(), later->second.end());
    }
    const double verifies = static_cast<double>(session.steps.size() * session.standing.size());

    totals.emit(out);
    out.add("server.cache_hit_ratio", cache_hit_ratio(before, after), "share");
    out.add("server.rejected",
            static_cast<double>(counter_delta(before, after, Counter::server_rejected)), "count");
    out.add("delta.apply_ms", mean(apply_ms), "ms");
    out.add("delta.reused_ms", mean(reused_ms), "ms");
    out.add("delta.reused_share", static_cast<double>(reused_ms.size()) / verifies, "share");
    out.add("delta.warm_ms", mean(warm_ms), "ms");
    out.add("delta.cold_ms", mean(cold_ms), "ms");
    out.add("delta.warm_share", static_cast<double>(warm_ms.size()) / verifies, "share");
    out.add("delta.warm_growth", mean(first) > 0 ? mean(last) / mean(first) : 0.0, "ratio");
    out.add("delta.states_invalidated", static_cast<double>(invalidated), "count");
    out.add("sweep.cold_cell_ms", mean(sweep_cold_ms), "ms");
    out.add("sweep.warm_cell_ms", mean(sweep_warm_ms), "ms");
    out.add("sweep.reused_share",
            sweep_cells > 0 ? static_cast<double>(sweep_reused) / static_cast<double>(sweep_cells)
                            : 0.0,
            "share");
    out.add("host.calib_ms", median({calib_start, calibrate_host_ms()}), "ms");
    out.add("trace.overhead_pct", 100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
    if (!args.trace_file.empty() && !tracer.write_chrome(args.trace_file))
        out.fail("cannot write " + args.trace_file);
    return out;
}

} // namespace perfbench
