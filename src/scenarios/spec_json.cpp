#include "scenarios/spec_json.h"

#include <cstdio>
#include <initializer_list>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/json_parse.h"

namespace nb {

namespace {

// Fired at spec-parse entry: the "operator handed us a file" boundary the
// bad-input tests and fault-injection CI arm to prove a parse failure is a
// one-line diagnostic and exit 2, never a crash or a partial sweep.
NB_FAILPOINT_DEFINE(fp_scenario_parse, "scenario.parse");

/// Diagnostic context: the file path plus the JSON path to the field being
/// parsed ("spec.json: scenarios[2].topology.family"). Built incrementally
/// as the cursor descends; fail() raises precondition_error with the full
/// location so every error names exactly one field.
struct Cursor {
    const JsonValue& value;
    const std::string& context;  ///< the file path (error prefix)
    std::string path;            ///< JSON path within the document

    Cursor child(const JsonValue& v, const std::string& key) const {
        return Cursor{v, context, path.empty() ? key : path + "." + key};
    }
    Cursor element(const JsonValue& v, std::size_t index) const {
        return Cursor{v, context, path + "[" + std::to_string(index) + "]"};
    }

    [[noreturn]] void fail(const std::string& reason) const {
        throw precondition_error(context + ": " + (path.empty() ? "document" : path) +
                                 ": " + reason);
    }
};

const char* kind_label(JsonValue::Kind kind) {
    switch (kind) {
        case JsonValue::Kind::null: return "null";
        case JsonValue::Kind::boolean: return "a boolean";
        case JsonValue::Kind::number: return "a number";
        case JsonValue::Kind::string: return "a string";
        case JsonValue::Kind::array: return "an array";
        case JsonValue::Kind::object: return "an object";
    }
    return "a value";
}

/// Re-raise a typed-accessor error (wrong kind, range, fraction) at the
/// cursor's location instead of the parser's bare message.
template <typename Fn>
auto at(const Cursor& cursor, Fn&& fn) -> decltype(fn()) {
    try {
        return fn();
    } catch (const precondition_error& e) {
        cursor.fail(e.what());
    }
}

const JsonValue& expect_object(const Cursor& cursor) {
    if (!cursor.value.is_object()) {
        cursor.fail(std::string("expected an object, got ") + kind_label(cursor.value.kind()));
    }
    return cursor.value;
}

const JsonValue& expect_array(const Cursor& cursor) {
    if (!cursor.value.is_array()) {
        cursor.fail(std::string("expected an array, got ") + kind_label(cursor.value.kind()));
    }
    return cursor.value;
}

/// Typos must not silently run a default experiment: every object parser
/// declares its legal keys and anything else is an error naming the key.
void reject_unknown_keys(const Cursor& cursor,
                         std::initializer_list<std::string_view> allowed) {
    for (const auto& [key, value] : cursor.value.members()) {
        bool known = false;
        for (const auto candidate : allowed) {
            if (key == candidate) {
                known = true;
                break;
            }
        }
        if (!known) {
            cursor.child(value, key).fail("unknown field");
        }
    }
}

// Optional-field helpers: absent means "keep the struct default".

void opt_string(const Cursor& parent, const char* key, std::string& out) {
    if (const JsonValue* v = parent.value.find(key)) {
        const Cursor c = parent.child(*v, key);
        out = at(c, [&] { return v->as_string(); });
    }
}

void opt_size(const Cursor& parent, const char* key, std::size_t& out) {
    if (const JsonValue* v = parent.value.find(key)) {
        const Cursor c = parent.child(*v, key);
        out = static_cast<std::size_t>(at(c, [&] { return v->as_uint64(); }));
    }
}

void opt_u64(const Cursor& parent, const char* key, std::uint64_t& out) {
    if (const JsonValue* v = parent.value.find(key)) {
        const Cursor c = parent.child(*v, key);
        out = at(c, [&] { return v->as_uint64(); });
    }
}

void opt_double(const Cursor& parent, const char* key, double& out) {
    if (const JsonValue* v = parent.value.find(key)) {
        const Cursor c = parent.child(*v, key);
        out = at(c, [&] { return v->as_double(); });
    }
}

void opt_bool(const Cursor& parent, const char* key, bool& out) {
    if (const JsonValue* v = parent.value.find(key)) {
        const Cursor c = parent.child(*v, key);
        out = at(c, [&] { return v->as_bool(); });
    }
}

TopologySpec::Family parse_family(const Cursor& cursor) {
    const std::string& name = at(cursor, [&] { return cursor.value.as_string(); });
    using Family = TopologySpec::Family;
    static constexpr std::pair<std::string_view, Family> families[] = {
        {"complete", Family::complete},
        {"complete_bipartite", Family::complete_bipartite},
        {"hard_instance", Family::hard_instance},
        {"ring", Family::ring},
        {"path", Family::path},
        {"star", Family::star},
        {"grid", Family::grid},
        {"tree", Family::tree},
        {"erdos_renyi", Family::erdos_renyi},
        {"random_regular", Family::random_regular},
        {"random_geometric", Family::random_geometric},
    };
    for (const auto& [tag, family] : families) {
        if (name == tag) {
            return family;
        }
    }
    cursor.fail("unknown topology family '" + name +
                "' (expected complete, complete_bipartite, hard_instance, ring, path, "
                "star, grid, tree, erdos_renyi, random_regular, or random_geometric)");
}

TopologySpec parse_topology(const Cursor& cursor) {
    expect_object(cursor);
    reject_unknown_keys(cursor, {"family", "n", "degree", "edge_probability", "radius",
                                 "rows", "cols", "seed"});
    TopologySpec topology;
    if (const JsonValue* v = cursor.value.find("family")) {
        topology.family = parse_family(cursor.child(*v, "family"));
    }
    opt_size(cursor, "n", topology.n);
    opt_size(cursor, "degree", topology.degree);
    opt_double(cursor, "edge_probability", topology.edge_probability);
    opt_double(cursor, "radius", topology.radius);
    opt_size(cursor, "rows", topology.rows);
    opt_size(cursor, "cols", topology.cols);
    opt_u64(cursor, "seed", topology.seed);
    return topology;
}

ChannelModel parse_channel(const Cursor& cursor) {
    expect_object(cursor);
    reject_unknown_keys(cursor,
                        {"kind", "epsilon", "noise_on_own_beep", "p_enter_burst",
                         "p_exit_burst", "epsilon_good", "epsilon_bad", "epsilon_min",
                         "epsilon_max", "seed", "budget"});
    ChannelModel channel;
    if (const JsonValue* v = cursor.value.find("kind")) {
        const Cursor c = cursor.child(*v, "kind");
        const std::string& kind = at(c, [&] { return v->as_string(); });
        if (kind == "iid") {
            channel.kind = ChannelModelKind::iid;
        } else if (kind == "gilbert_elliott") {
            channel.kind = ChannelModelKind::gilbert_elliott;
        } else if (kind == "heterogeneous") {
            channel.kind = ChannelModelKind::heterogeneous;
        } else if (kind == "adversarial_budget") {
            channel.kind = ChannelModelKind::adversarial_budget;
        } else {
            c.fail("unknown channel kind '" + kind +
                   "' (expected iid, gilbert_elliott, heterogeneous, or "
                   "adversarial_budget)");
        }
    }
    opt_double(cursor, "epsilon", channel.epsilon);
    opt_bool(cursor, "noise_on_own_beep", channel.noise_on_own_beep);
    opt_double(cursor, "p_enter_burst", channel.ge_p_enter_burst);
    opt_double(cursor, "p_exit_burst", channel.ge_p_exit_burst);
    opt_double(cursor, "epsilon_good", channel.ge_epsilon_good);
    opt_double(cursor, "epsilon_bad", channel.ge_epsilon_bad);
    opt_double(cursor, "epsilon_min", channel.het_epsilon_min);
    opt_double(cursor, "epsilon_max", channel.het_epsilon_max);
    opt_u64(cursor, "seed", channel.het_seed);
    opt_size(cursor, "budget", channel.adv_budget);
    return channel;
}

std::vector<NodeId> parse_node_list(const Cursor& cursor) {
    expect_array(cursor);
    std::vector<NodeId> nodes;
    nodes.reserve(cursor.value.items().size());
    for (std::size_t i = 0; i < cursor.value.items().size(); ++i) {
        const Cursor c = cursor.element(cursor.value.items()[i], i);
        nodes.push_back(
            static_cast<NodeId>(at(c, [&] { return c.value.as_uint64(); })));
    }
    return nodes;
}

FaultWindow parse_fault_window(const Cursor& cursor) {
    expect_object(cursor);
    reject_unknown_keys(cursor, {"first_round", "last_round", "jammers", "crashed"});
    FaultWindow window;
    opt_size(cursor, "first_round", window.first_round);
    opt_size(cursor, "last_round", window.last_round);
    if (const JsonValue* v = cursor.value.find("jammers")) {
        window.faults.jammers = parse_node_list(cursor.child(*v, "jammers"));
    }
    if (const JsonValue* v = cursor.value.find("crashed")) {
        window.faults.crashed = parse_node_list(cursor.child(*v, "crashed"));
    }
    return window;
}

ScenarioSpec parse_scenario(const Cursor& cursor) {
    expect_object(cursor);
    reject_unknown_keys(cursor,
                        {"name", "description", "topology", "channel", "transport",
                         "workload", "faults", "rounds", "decoder_epsilon", "c_eps",
                         "dictionary", "decoy_count", "threads", "tdma_repetitions"});
    ScenarioSpec spec;
    const JsonValue* name = cursor.value.find("name");
    if (name == nullptr) {
        cursor.fail("missing required field 'name'");
    }
    spec.name = at(cursor.child(*name, "name"), [&] { return name->as_string(); });
    if (spec.name.empty()) {
        cursor.child(*name, "name").fail("scenario name must be non-empty");
    }
    opt_string(cursor, "description", spec.description);
    if (const JsonValue* v = cursor.value.find("topology")) {
        spec.topology = parse_topology(cursor.child(*v, "topology"));
    }
    if (const JsonValue* v = cursor.value.find("channel")) {
        spec.channel = parse_channel(cursor.child(*v, "channel"));
    }
    if (const JsonValue* v = cursor.value.find("transport")) {
        const Cursor c = cursor.child(*v, "transport");
        const std::string& kind = at(c, [&] { return v->as_string(); });
        if (kind == "beep") {
            spec.transport = TransportKind::beep;
        } else if (kind == "tdma") {
            spec.transport = TransportKind::tdma;
        } else {
            c.fail("unknown transport '" + kind + "' (expected beep or tdma)");
        }
    }
    if (const JsonValue* v = cursor.value.find("workload")) {
        const Cursor c = cursor.child(*v, "workload");
        expect_object(c);
        reject_unknown_keys(c, {"message_bits", "silent_fraction", "seed"});
        opt_size(c, "message_bits", spec.workload.message_bits);
        opt_double(c, "silent_fraction", spec.workload.silent_fraction);
        opt_u64(c, "seed", spec.workload.seed);
    }
    if (const JsonValue* v = cursor.value.find("faults")) {
        const Cursor c = cursor.child(*v, "faults");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            spec.faults.push_back(parse_fault_window(c.element(v->items()[i], i)));
        }
    }
    opt_size(cursor, "rounds", spec.rounds);
    opt_double(cursor, "decoder_epsilon", spec.decoder_epsilon);
    opt_size(cursor, "c_eps", spec.c_eps);
    if (const JsonValue* v = cursor.value.find("dictionary")) {
        const Cursor c = cursor.child(*v, "dictionary");
        const std::string& policy = at(c, [&] { return v->as_string(); });
        if (policy == "two_hop") {
            spec.dictionary = DictionaryPolicy::two_hop;
        } else if (policy == "all_nodes") {
            spec.dictionary = DictionaryPolicy::all_nodes;
        } else {
            c.fail("unknown dictionary policy '" + policy +
                   "' (expected two_hop or all_nodes)");
        }
    }
    opt_size(cursor, "decoy_count", spec.decoy_count);
    opt_size(cursor, "threads", spec.threads);
    opt_size(cursor, "tdma_repetitions", spec.tdma_repetitions);
    return spec;
}

SweepAxes parse_axes(const Cursor& cursor) {
    expect_object(cursor);
    reject_unknown_keys(cursor, {"topologies", "node_counts", "channels", "epsilons",
                                 "seeds"});
    SweepAxes axes;
    if (const JsonValue* v = cursor.value.find("topologies")) {
        const Cursor c = cursor.child(*v, "topologies");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            axes.topologies.push_back(parse_topology(c.element(v->items()[i], i)));
        }
    }
    if (const JsonValue* v = cursor.value.find("node_counts")) {
        const Cursor c = cursor.child(*v, "node_counts");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            const Cursor e = c.element(v->items()[i], i);
            axes.node_counts.push_back(
                static_cast<std::size_t>(at(e, [&] { return e.value.as_uint64(); })));
        }
    }
    if (const JsonValue* v = cursor.value.find("channels")) {
        const Cursor c = cursor.child(*v, "channels");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            axes.channels.push_back(parse_channel(c.element(v->items()[i], i)));
        }
    }
    if (const JsonValue* v = cursor.value.find("epsilons")) {
        const Cursor c = cursor.child(*v, "epsilons");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            const Cursor e = c.element(v->items()[i], i);
            axes.epsilons.push_back(at(e, [&] { return e.value.as_double(); }));
        }
    }
    if (const JsonValue* v = cursor.value.find("seeds")) {
        const Cursor c = cursor.child(*v, "seeds");
        expect_array(c);
        for (std::size_t i = 0; i < v->items().size(); ++i) {
            const Cursor e = c.element(v->items()[i], i);
            axes.seeds.push_back(at(e, [&] { return e.value.as_uint64(); }));
        }
    }
    return axes;
}

}  // namespace

SweepSpec sweep_spec_from_json(std::string_view text, const std::string& context) {
    JsonValue document;
    try {
        document = JsonValue::parse(text);
    } catch (const precondition_error& e) {
        // Syntax errors carry "line:column: reason"; prepend the file.
        throw precondition_error(context + ": " + e.what());
    }
    return sweep_spec_from_value(document, context);
}

SweepSpec sweep_spec_from_value(const JsonValue& document, const std::string& context) {
    // The failpoint sits here, not in the text overload, so every spec
    // ingestion path crosses it — including nb_serve submissions, whose
    // request envelope is parsed once and handed over as a JsonValue.
    fp_scenario_parse.check();

    const Cursor root{document, context, ""};
    expect_object(root);
    reject_unknown_keys(root, {"schema", "sweep", "max_retries", "scenarios", "axes"});

    const JsonValue* schema = document.find("schema");
    if (schema == nullptr) {
        root.fail("missing required field 'schema' (expected \"nb-spec/v1\")");
    }
    const Cursor schema_cursor = root.child(*schema, "schema");
    if (at(schema_cursor, [&] { return schema->as_string(); }) != "nb-spec/v1") {
        schema_cursor.fail("unknown schema '" + schema->as_string() +
                           "' (this build reads nb-spec/v1)");
    }

    SweepSpec spec;
    spec.name = "spec-file";
    opt_string(root, "sweep", spec.name);
    opt_size(root, "max_retries", spec.max_retries);

    const JsonValue* scenarios = document.find("scenarios");
    if (scenarios == nullptr) {
        root.fail("missing required field 'scenarios'");
    }
    const Cursor scenarios_cursor = root.child(*scenarios, "scenarios");
    expect_array(scenarios_cursor);
    if (scenarios->items().empty()) {
        scenarios_cursor.fail("at least one scenario is required");
    }
    for (std::size_t i = 0; i < scenarios->items().size(); ++i) {
        spec.bases.push_back(
            parse_scenario(scenarios_cursor.element(scenarios->items()[i], i)));
    }

    if (const JsonValue* axes = document.find("axes")) {
        spec.axes = parse_axes(root.child(*axes, "axes"));
    }
    return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    require(file != nullptr, path + ": cannot open spec file");
    std::string text;
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
        text.append(buffer, got);
    }
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    require(!read_error, path + ": read error");
    return sweep_spec_from_json(text, path);
}

}  // namespace nb
