#include "server/service.hpp"

#include <chrono>
#include <optional>
#include <thread>

#include "cli/options.hpp"
#include "io/results_json.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/telemetry.hpp"
#include "util/errors.hpp"
#include "verify/batch.hpp"

namespace aalwines::server {

namespace {

http::Response json_response(int status, json::Value body) {
    http::Response response;
    response.status = status;
    response.body = json::write(body, 2) + "\n";
    return response;
}

json::Value network_info(const Workspace& workspace) {
    const auto& network = *workspace.network;
    const auto& topology = network.topology;
    std::size_t backup_rules = 0;
    network.routing.for_each([&](LinkId, Label, const RoutingEntry& groups) {
        for (std::size_t p = 1; p < groups.size(); ++p) backup_rules += groups[p].size();
    });
    json::Object info;
    info.emplace("id", workspace.id);
    info.emplace("name", network.name);
    info.emplace("routers", topology.router_count());
    info.emplace("links", topology.link_count());
    info.emplace("interfaces", topology.interface_count());
    info.emplace("labels", network.labels.size());
    info.emplace("tableEntries", network.routing.entry_count());
    info.emplace("forwardingRules", network.routing.rule_count());
    info.emplace("backupRules", backup_rules);
    info.emplace("generation", workspace.generation);
    info.emplace("patches", workspace.generation);
    if (const auto down = topology.down_link_count(); down > 0)
        info.emplace("linksDown", down);
    return json::Value(std::move(info));
}

/// Render one DeltaEffects category as human-readable link names.
json::Value links_to_json(const Topology& topology, const std::vector<LinkId>& links) {
    json::Array out;
    for (const auto link : links) out.emplace_back(topology.describe_link(link));
    return json::Value(std::move(out));
}

/// Pull an optional typed field out of a request body object.
const json::Value* field(const json::Object& object, const std::string& key) {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

std::string string_field(const json::Object& object, const std::string& key) {
    const auto* value = field(object, key);
    if (value == nullptr) return {};
    if (!value->is_string())
        throw cli::usage_error("field '" + key + "' must be a string");
    return value->as_string();
}

std::size_t size_field(const json::Object& object, const std::string& key,
                       std::size_t fallback) {
    const auto* value = field(object, key);
    if (value == nullptr) return fallback;
    if (!value->is_int() || value->as_int() < 0)
        throw cli::usage_error("field '" + key + "' must be a non-negative integer");
    return static_cast<std::size_t>(value->as_int());
}

bool bool_field(const json::Object& object, const std::string& key, bool fallback) {
    const auto* value = field(object, key);
    if (value == nullptr) return fallback;
    if (!value->is_bool()) throw cli::usage_error("field '" + key + "' must be a boolean");
    return value->as_bool();
}

/// The verify options a query or sweep request body carries (docs/SERVER.md);
/// absent fields keep the CLI defaults.
cli::VerifySpec spec_from_request(const json::Object& object) {
    cli::VerifySpec spec;
    spec.engine = string_field(object, "engine");
    if (spec.engine.empty()) spec.engine = "dual";
    spec.weight = string_field(object, "weight");
    spec.reduction =
        static_cast<int>(size_field(object, "reduction", static_cast<std::size_t>(2)));
    spec.trace = bool_field(object, "trace", true);
    spec.witnesses = size_field(object, "witnesses", 1);
    spec.max_iterations = size_field(object, "maxIterations", 0);
    spec.translation = string_field(object, "translation");
    if (spec.translation.empty()) spec.translation = "auto";
    return spec;
}

/// Tier counts under the tiers' own names ("reused", "warm", "cold") — the
/// one vocabulary the /query and /sweep access-log lines share.
void log_tiers(json::Object& log, std::size_t reused, std::size_t warm, std::size_t cold) {
    log.emplace(std::string(delta::to_string(delta::Tier::Reused)), reused);
    log.emplace(std::string(delta::to_string(delta::Tier::Warm)), warm);
    log.emplace(std::string(delta::to_string(delta::Tier::Cold)), cold);
}

} // namespace

http::Response error_response(int status, const std::string& message) {
    json::Object body;
    body.emplace("error", message);
    return json_response(status, json::Value(std::move(body)));
}

Service::Service(ServiceConfig config)
    : _config(config), _cache(config.cache_capacity) {
    if (!_config.access_log_path.empty() || _config.slow_query_ms > 0)
        _access_log =
            std::make_unique<AccessLog>(_config.access_log_path, _config.slow_query_ms);
}

void Service::set_runtime_info(std::function<json::Object()> provider) {
    _runtime_info = std::move(provider);
}

http::Response Service::handle(const http::Request& request, double queue_wait_ms) {
    const auto start = std::chrono::steady_clock::now();
    json::Object log;
    http::Response response;
    try {
        response = route(request, _access_log ? &log : nullptr);
    } catch (const cli::usage_error& error) {
        response = error_response(400, error.what());
    } catch (const parse_error& error) {
        response = error_response(400, error.what());
    } catch (const model_error& error) {
        response = error_response(422, error.what());
    } catch (const std::exception& error) {
        response = error_response(500, error.what());
    }
    // Counted and observed together after routing, so any snapshot — even
    // one taken by this very /metrics request — sees
    // request_duration.count == server_requests.
    telemetry::count(telemetry::Counter::server_requests);
    const auto seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    telemetry::observe_duration(telemetry::Histogram::request_duration, seconds);
    if (queue_wait_ms >= 0)
        telemetry::observe_duration(telemetry::Histogram::request_queue_wait,
                                    queue_wait_ms / 1000.0);

    if (_access_log) {
        const auto duration_ms = seconds * 1000.0;
        const bool slow = _access_log->slow_ms() > 0 &&
                          duration_ms >= static_cast<double>(_access_log->slow_ms());
        json::Object record; // "id" is stamped by AccessLog::write
        record.emplace("time", log_timestamp());
        record.emplace("method", request.method);
        record.emplace("target", request.target);
        record.emplace("status", response.status);
        record.emplace("durationMs", duration_ms);
        if (queue_wait_ms >= 0) record.emplace("queueWaitMs", queue_wait_ms);
        if (slow) record.emplace("slow", true);
        for (auto& [key, value] : log) {
            // Full query texts are verbose; only slow requests carry them.
            if (key == "queryTexts" && !slow) continue;
            record.emplace(key, std::move(value));
        }
        _access_log->write(std::move(record), slow);
    }
    return response;
}

http::Response Service::route(const http::Request& request, json::Object* log) {
    const auto& target = request.target;
    if (target == "/healthz") {
        if (request.method != "GET" && request.method != "HEAD")
            return error_response(405, "use GET /healthz");
        json::Object body;
        body.emplace("status", "ok");
        body.emplace("workspaces", _workspaces.size());
        return json_response(200, json::Value(std::move(body)));
    }
    if (target == "/metrics") {
        if (request.method != "GET")
            return error_response(405, "use GET /metrics");
        return handle_metrics(request);
    }
    if (target == "/networks" || target == "/networks/")
        return handle_networks(request);
    if (target.rfind("/networks/", 0) == 0) {
        auto rest = target.substr(10);
        std::string action;
        if (const auto slash = rest.find('/'); slash != std::string::npos) {
            action = rest.substr(slash + 1);
            rest.erase(slash);
            if (action != "query" && action != "sweep")
                return error_response(404, "unknown endpoint");
        }
        return handle_network_item(request, rest, action, log);
    }
    return error_response(404, "unknown endpoint");
}

http::Response Service::handle_networks(const http::Request& request) {
    if (request.method == "GET") {
        json::Array list;
        for (const auto& workspace : _workspaces.list())
            list.push_back(network_info(workspace));
        json::Object body;
        body.emplace("networks", json::Value(std::move(list)));
        return json_response(200, json::Value(std::move(body)));
    }
    if (request.method != "POST")
        return error_response(405, "use GET or POST /networks");

    const auto parsed = json::parse(request.body);
    if (!parsed.is_object())
        throw cli::usage_error("request body must be a JSON object");
    const auto& object = parsed.as_object();
    cli::NetworkDocuments documents;
    documents.demo = string_field(object, "demo");
    documents.gml = string_field(object, "gml");
    documents.topology_xml = string_field(object, "topologyXml");
    documents.routing_xml = string_field(object, "routingXml");
    documents.locations_json = string_field(object, "locations");

    auto network = cli::load_network(documents);
    if (const auto name = string_field(object, "name"); !name.empty())
        network.name = name;
    const auto workspace = _workspaces.add(std::move(network));
    return json_response(201, network_info(workspace));
}

http::Response Service::handle_network_item(const http::Request& request,
                                            const std::string& id,
                                            const std::string& action,
                                            json::Object* log) {
    const auto workspace = _workspaces.find(id);
    if (!workspace) return error_response(404, "unknown network '" + id + "'");
    if (!action.empty()) {
        if (request.method != "POST")
            return error_response(405, "use POST /networks/{id}/" + action);
        return action == "sweep" ? handle_sweep(request, *workspace, log)
                                 : handle_query(request, *workspace, log);
    }
    if (request.method == "GET") return json_response(200, network_info(*workspace));
    if (request.method == "PATCH") return handle_patch(request, *workspace, log);
    if (request.method == "DELETE") {
        _workspaces.erase(id);
        {
            const util::MutexLock lock(_mutex);
            _reverifiers.erase(id);
            _invalidations.erase(id);
        }
        http::Response response;
        response.status = 204;
        return response;
    }
    return error_response(405, "use GET, PATCH or DELETE /networks/{id}");
}

std::shared_ptr<delta::Reverifier> Service::reverifier_for(const Workspace& workspace,
                                                           bool create) {
    const util::MutexLock lock(_mutex);
    if (const auto it = _reverifiers.find(workspace.id); it != _reverifiers.end())
        return it->second;
    if (!create) return nullptr;
    auto reverifier = std::make_shared<delta::Reverifier>(workspace.network);
    _reverifiers.emplace(workspace.id, reverifier);
    return reverifier;
}

http::Response Service::handle_patch(const http::Request& request,
                                     const Workspace& workspace, json::Object* log) {
    const auto start = std::chrono::steady_clock::now();
    const auto parsed = json::parse(request.body);
    const auto delta = delta::NetworkDelta::from_json(parsed);

    auto reverifier = reverifier_for(workspace, /*create=*/true);
    const auto applied = reverifier->apply(delta); // model_error -> 422 via handle()
    // Publish the snapshot, then retire every cached result of this
    // workspace (and only this workspace) — the key's generation field
    // already guarantees staleness can't be served, eviction frees memory.
    _workspaces.update_network(workspace.id, reverifier->network(), applied.generation);
    const auto evicted = _cache.invalidate(cache_scope(workspace.sequence));
    std::uint64_t invalidations = 0;
    {
        const util::MutexLock lock(_mutex);
        invalidations = ++_invalidations[workspace.id];
    }

    telemetry::count(telemetry::Counter::server_patches);
    telemetry::observe_duration(
        telemetry::Histogram::patch_apply,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());

    if (log != nullptr) {
        log->emplace("network", workspace.id);
        log->emplace("generation", applied.generation);
        log->emplace("operations", delta.ops.size());
        log->emplace("cacheEvictions", evicted);
    }

    const auto& topology = reverifier->network()->topology;
    json::Object effects;
    effects.emplace("entryLinks", links_to_json(topology, applied.effects.entry_links));
    effects.emplace("stateLinks", links_to_json(topology, applied.effects.state_links));
    effects.emplace("distanceLinks",
                    links_to_json(topology, applied.effects.distance_links));
    effects.emplace("labelAdded", applied.effects.label_added);

    json::Object body;
    body.emplace("id", workspace.id);
    body.emplace("generation", applied.generation);
    body.emplace("operations", delta.ops.size());
    body.emplace("effects", json::Value(std::move(effects)));
    body.emplace("cacheEvictions", evicted);
    body.emplace("invalidations", invalidations);
    return json_response(200, json::Value(std::move(body)));
}

http::Response Service::handle_query(const http::Request& request,
                                     const Workspace& workspace, json::Object* log) {
    const auto parsed = json::parse(request.body);
    if (!parsed.is_object())
        throw cli::usage_error("request body must be a JSON object");
    const auto& object = parsed.as_object();

    const bool batch = field(object, "queries") != nullptr;
    std::vector<std::string> texts;
    if (batch) {
        const auto* queries = field(object, "queries");
        if (!queries->is_array())
            throw cli::usage_error("field 'queries' must be an array of strings");
        for (const auto& entry : queries->as_array()) {
            if (!entry.is_string())
                throw cli::usage_error("field 'queries' must be an array of strings");
            texts.push_back(entry.as_string());
        }
    } else {
        const auto text = string_field(object, "query");
        if (text.empty()) throw cli::usage_error("missing field 'query'");
        texts.push_back(text);
    }

    const auto spec = spec_from_request(object);
    const bool stats = bool_field(object, "stats", false);
    auto jobs = size_field(object, "jobs", 1);
    const auto max_jobs = _config.max_jobs != 0
                              ? _config.max_jobs
                              : std::max(1u, std::thread::hardware_concurrency());
    jobs = std::min(std::max<std::size_t>(jobs, 1), max_jobs);

    WeightExpr weights;
    const auto options = cli::make_verify_options(spec, weights); // validates

    // Serve what the cache already has; verify only the misses, as a batch.
    struct Slot {
        std::string key;
        std::shared_ptr<const verify::VerifyResult> result;
        std::string error;
        std::optional<delta::Tier> tier; ///< set when the Reverifier answered
        bool cached = false;
    };
    std::vector<Slot> slots(texts.size());
    std::vector<std::string> missing;
    std::vector<std::size_t> missing_index;
    for (std::size_t i = 0; i < texts.size(); ++i) {
        slots[i].key = cache_key(workspace.sequence, workspace.generation, texts[i], spec);
        slots[i].result = _cache.find(slots[i].key);
        slots[i].cached = slots[i].result != nullptr;
        if (!slots[i].cached) {
            missing.push_back(texts[i]);
            missing_index.push_back(i);
        }
    }
    if (!missing.empty()) {
        // A patched workspace answers through its Reverifier: per-query
        // translation caches survive across generations, so a repeat query
        // after a small delta reuses or rebases instead of recompiling.
        // Never-patched workspaces keep the plain batch path (parallel
        // across `jobs` workers, zero session overhead).
        if (const auto reverifier = reverifier_for(workspace, /*create=*/false)) {
            for (std::size_t m = 0; m < missing.size(); ++m) {
                auto& slot = slots[missing_index[m]];
                try {
                    auto outcome = reverifier->verify(missing[m], spec);
                    slot.tier = outcome.path;
                    slot.result = std::make_shared<const verify::VerifyResult>(
                        std::move(outcome.result));
                    _cache.insert(slot.key, slot.result);
                } catch (const std::exception& error) {
                    slot.error = error.what();
                }
            }
        } else {
            auto items = verify::verify_batch(*workspace.network, missing, options, jobs);
            for (std::size_t m = 0; m < items.size(); ++m) {
                auto& slot = slots[missing_index[m]];
                if (!items[m].error.empty()) {
                    slot.error = std::move(items[m].error);
                    continue;
                }
                slot.result = std::make_shared<const verify::VerifyResult>(
                    std::move(items[m].result));
                _cache.insert(slot.key, slot.result);
            }
        }
    }

    if (log != nullptr) {
        std::string combined;
        for (const auto& text : texts) {
            combined += text;
            combined += '\n';
        }
        log->emplace("network", workspace.id);
        log->emplace("queryHash", stable_hash_hex(combined));
        log->emplace("queries", texts.size());
        std::size_t hits = 0;
        for (const auto& slot : slots) hits += slot.cached ? 1 : 0;
        log->emplace("cacheHits", hits);
        log->emplace("cacheMisses", texts.size() - hits);
        std::size_t tiers[3] = {}; // indexed by delta::Tier
        for (const auto& slot : slots)
            if (slot.tier) ++tiers[static_cast<std::size_t>(*slot.tier)];
        if (tiers[0] + tiers[1] + tiers[2] > 0) log_tiers(*log, tiers[0], tiers[1], tiers[2]);
        if (!batch)
            log->emplace("answer", slots[0].error.empty()
                                       ? std::string(verify::to_string(slots[0].result->answer))
                                       : "error");
        else
            log->emplace("answer", "batch");
        // Pipeline time spent by *this* request: cached slots did no work.
        double compile = 0, solve = 0, witness = 0;
        for (const auto& slot : slots) {
            if (slot.cached || slot.result == nullptr) continue;
            for (const auto* phase : {&slot.result->stats.over, &slot.result->stats.under}) {
                if (!phase->ran) continue;
                compile += phase->translate_seconds + phase->reduce_seconds;
                solve += phase->saturate_seconds;
                witness += phase->accept_seconds + phase->witness_seconds;
            }
        }
        log->emplace("compileMs", compile * 1000.0);
        log->emplace("solveMs", solve * 1000.0);
        log->emplace("witnessMs", witness * 1000.0);
        json::Array query_texts;
        for (const auto& text : texts) query_texts.emplace_back(text);
        log->emplace("queryTexts", json::Value(std::move(query_texts)));
    }

    auto to_entry = [&](std::size_t i) {
        if (!slots[i].error.empty()) {
            json::Object entry;
            entry.emplace("query", texts[i]);
            entry.emplace("error", slots[i].error);
            return json::Value(std::move(entry));
        }
        auto entry = io::result_to_json_value(*workspace.network, texts[i],
                                              *slots[i].result, stats);
        entry.as_object().emplace("cached", slots[i].cached);
        if (slots[i].tier)
            entry.as_object().emplace("path",
                                      std::string(delta::to_string(*slots[i].tier)));
        return entry;
    };

    if (!batch) {
        if (!slots[0].error.empty()) {
            json::Object body;
            body.emplace("query", texts[0]);
            body.emplace("error", slots[0].error);
            return json_response(400, json::Value(std::move(body)));
        }
        return json_response(200, to_entry(0));
    }
    json::Array results;
    for (std::size_t i = 0; i < texts.size(); ++i) results.push_back(to_entry(i));
    json::Object body;
    body.emplace("network", workspace.id);
    body.emplace("results", json::Value(std::move(results)));
    return json_response(200, json::Value(std::move(body)));
}

http::Response Service::handle_sweep(const http::Request& request,
                                     const Workspace& workspace, json::Object* log) {
    const auto parsed = json::parse(request.body);
    if (!parsed.is_object())
        throw cli::usage_error("request body must be a JSON object");
    const auto& object = parsed.as_object();

    verify::SweepSpec sweep_spec;
    sweep_spec.query_template = string_field(object, "template");
    if (sweep_spec.query_template.empty())
        throw cli::usage_error("missing field 'template'");
    if (const auto* pairs = field(object, "pairs"); pairs != nullptr) {
        if (!pairs->is_array())
            throw cli::usage_error("field 'pairs' must be an array of [src, dst] pairs");
        for (const auto& pair : pairs->as_array()) {
            if (!pair.is_array() || pair.as_array().size() != 2 ||
                !pair.as_array()[0].is_string() || !pair.as_array()[1].is_string())
                throw cli::usage_error("each pair must be a [src, dst] string pair");
            sweep_spec.endpoint_pairs.emplace_back(pair.as_array()[0].as_string(),
                                                   pair.as_array()[1].as_string());
        }
    }
    if (const auto* budgets = field(object, "budgets"); budgets != nullptr) {
        if (!budgets->is_array())
            throw cli::usage_error("field 'budgets' must be an array of integers");
        for (const auto& k : budgets->as_array()) {
            if (!k.is_int() || k.as_int() < 0)
                throw cli::usage_error(
                    "field 'budgets' must be an array of non-negative integers");
            sweep_spec.failure_budgets.push_back(static_cast<std::uint64_t>(k.as_int()));
        }
    }
    if (const auto* scenarios = field(object, "scenarios"); scenarios != nullptr)
        sweep_spec.scenarios = cli::scenarios_from_json(*scenarios);
    if (field(object, "singleFailures") != nullptr)
        cli::append_single_failure_scenarios(sweep_spec, *workspace.network,
                                             size_field(object, "singleFailures", 0));

    const auto spec = spec_from_request(object);
    const bool stats = bool_field(object, "stats", false);
    auto jobs = size_field(object, "jobs", 0); // 0 = one worker per chain, capped
    const auto max_jobs = _config.max_jobs != 0
                              ? _config.max_jobs
                              : std::max(1u, std::thread::hardware_concurrency());
    jobs = jobs == 0 ? max_jobs : std::min(jobs, max_jobs);

    WeightExpr weights;
    const auto options = cli::make_verify_options(spec, weights); // validates

    // Sweeps bypass the result cache: the sweep engine *is* the
    // amortization (shared NFAs, rebased frontiers, pooled workspaces),
    // and a grid rarely repeats verbatim.
    const auto sweep =
        verify::run_sweep(*workspace.network, sweep_spec, options, jobs);

    if (log != nullptr) {
        log->emplace("network", workspace.id);
        log->emplace("sweepCells", sweep.stats.cells);
        log_tiers(*log, sweep.stats.shared_saturations, sweep.stats.reused_frontiers,
                  sweep.stats.cold_saturations);
        log->emplace("errors", sweep.stats.errors);
        log->emplace("answer", "sweep");
    }

    auto body = io::sweep_to_json_value(*workspace.network, sweep_spec, sweep, stats);
    body.as_object().emplace("network", workspace.id);
    body.as_object().emplace("generation", workspace.generation);
    return json_response(200, std::move(body));
}

http::Response Service::handle_metrics(const http::Request& request) {
    const auto snap = telemetry::snapshot();
    auto runtime = _runtime_info ? _runtime_info() : json::Object{};

    if (request.query_parameter("format", "prometheus")) {
        // Point-in-time server state rides along as extra gauges; the
        // registry's own gauges are high-water marks and keep their names.
        std::vector<telemetry::ExpositionGauge> extra;
        extra.push_back({"aalwines_cache_entries",
                         "Compiled-result cache entries currently resident.",
                         static_cast<double>(_cache.size())});
        extra.push_back({"aalwines_cache_capacity",
                         "Compiled-result cache capacity (entries).",
                         static_cast<double>(_cache.capacity())});
        extra.push_back({"aalwines_workspaces",
                         "Networks currently loaded.",
                         static_cast<double>(_workspaces.size())});
        if (const auto depth = runtime.find("queueDepth"); depth != runtime.end())
            extra.push_back({"aalwines_queue_depth",
                             "Accepted connections currently waiting for a worker.",
                             static_cast<double>(depth->second.as_int())});

        http::Response response;
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body = telemetry::to_prometheus(snap, extra);
        return response;
    }

    json::Object counters;
    for (std::size_t i = 0; i < telemetry::k_counter_count; ++i)
        counters.emplace(std::string(telemetry::name_of(static_cast<telemetry::Counter>(i))),
                         snap.counters[i]);
    // High-water marks (maximum across threads and runs) — *not* current
    // values; see the "current" object for the point-in-time state.
    json::Object gauges;
    for (std::size_t i = 0; i < telemetry::k_gauge_count; ++i)
        gauges.emplace(std::string(telemetry::name_of(static_cast<telemetry::Gauge>(i))),
                       snap.gauges[i]);
    json::Object histograms;
    for (std::size_t i = 0; i < telemetry::k_histogram_count; ++i) {
        const auto& data = snap.histograms[i];
        if (data.count == 0) continue; // only observed histograms
        json::Object entry;
        entry.emplace("count", data.count);
        entry.emplace("sum", data.sum);
        entry.emplace("p50", data.p50());
        entry.emplace("p90", data.p90());
        entry.emplace("p99", data.p99());
        histograms.emplace(
            std::string(telemetry::name_of(static_cast<telemetry::Histogram>(i))),
            json::Value(std::move(entry)));
    }

    json::Object cache;
    cache.emplace("entries", _cache.size());
    cache.emplace("capacity", _cache.capacity());
    cache.emplace("hits", snap.counter(telemetry::Counter::server_cache_hits));
    cache.emplace("misses", snap.counter(telemetry::Counter::server_cache_misses));
    cache.emplace("evictions", snap.counter(telemetry::Counter::server_cache_evictions));

    json::Object deltas;
    deltas.emplace("patches", snap.counter(telemetry::Counter::server_patches));
    deltas.emplace("tier1Reused", snap.counter(telemetry::Counter::delta_tier1_reused));
    deltas.emplace("tier2Resaturations",
                   snap.counter(telemetry::Counter::delta_tier2_resaturations));
    deltas.emplace("coldRebuilds", snap.counter(telemetry::Counter::delta_cold_rebuilds));
    deltas.emplace("statesInvalidated",
                   snap.counter(telemetry::Counter::delta_states_invalidated));
    {
        // Per-workspace invalidation totals: how often each loaded
        // network's cached results were retired by a PATCH.
        json::Object per_workspace;
        const util::MutexLock lock(_mutex);
        for (const auto& [id, count] : _invalidations) per_workspace.emplace(id, count);
        deltas.emplace("invalidations", json::Value(std::move(per_workspace)));
    }

    json::Object current;
    current.emplace("cacheEntries", _cache.size());
    current.emplace("workspaces", _workspaces.size());
    if (const auto depth = runtime.find("queueDepth"); depth != runtime.end())
        current.emplace("queueDepth", depth->second);

    json::Object server;
    server.emplace("workspaces", _workspaces.size());
    server.emplace("cache", json::Value(std::move(cache)));
    server.emplace("deltas", json::Value(std::move(deltas)));
    server.emplace("requests", snap.counter(telemetry::Counter::server_requests));
    server.emplace("rejected", snap.counter(telemetry::Counter::server_rejected));
    for (auto& [key, value] : runtime) server.emplace(key, std::move(value));

    json::Object body;
    body.emplace("schema", "aalwines-metrics-2");
    body.emplace("server", json::Value(std::move(server)));
    body.emplace("current", json::Value(std::move(current)));
    body.emplace("counters", json::Value(std::move(counters)));
    body.emplace("gauges", json::Value(std::move(gauges)));
    body.emplace("histograms", json::Value(std::move(histograms)));
    // Process-wide peak RSS (VmHWM) — covers the whole daemon lifetime,
    // not the current request.
    body.emplace("peakRssKb", telemetry::peak_rss_kb());
    return json_response(200, json::Value(std::move(body)));
}

} // namespace aalwines::server
