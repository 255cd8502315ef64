#include "src/mill/profile.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/common/table_printer.hh"
#include "src/runtime/engine.hh"
#include "src/telemetry/export.hh"
#include "src/tracing/lifecycle.hh"

namespace pmill {

namespace {

/// Comma-join an unsigned vector ("1,2,3"; "" when empty).
std::string
join_u64(const std::vector<std::uint64_t> &v)
{
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        s += strprintf("%llu", static_cast<unsigned long long>(v[i]));
    }
    return s;
}

/// Smallest power of two >= v (v >= 1).
std::uint32_t
round_up_pow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

std::uint32_t
Profile::occupancy_percentile(double pct) const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : burst_hist)
        total += c;
    if (total == 0)
        return 0;
    const std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < burst_hist.size(); ++b) {
        cum += burst_hist[b];
        if (cum >= target)
            return static_cast<std::uint32_t>(b);
    }
    return static_cast<std::uint32_t>(burst_hist.size() - 1);
}

const ProfileElement *
Profile::find(const std::string &name) const
{
    for (const ProfileElement &e : elements)
        if (e.name == name)
            return &e;
    return nullptr;
}

std::string
Profile::to_json() const
{
    std::ostringstream os;
    os << "{\"type\":\"profile_meta\""
       << ",\"freq_ghz\":" << json_number(freq_ghz)
       << ",\"p99_latency_us\":" << json_number(p99_latency_us)
       << ",\"throughput_gbps\":" << json_number(throughput_gbps)
       << ",\"mpps\":" << json_number(mpps)
       << ",\"stall_share\":" << json_number(stall_share)
       << ",\"burst\":" << burst << ",\"model\":\"" << json_escape(model)
       << "\",\"dominant_element\":\"" << json_escape(dominant_element)
       << "\"}\n";
    for (const ProfileElement &e : elements) {
        os << "{\"type\":\"profile_element\",\"name\":\""
           << json_escape(e.name) << "\",\"class\":\""
           << json_escape(e.class_name) << "\",\"packets\":" << e.packets
           << ",\"cycles\":" << json_number(e.cycles)
           << ",\"mem_ns\":" << json_number(e.mem_ns)
           << ",\"time_share\":" << json_number(e.time_share)
           << ",\"stall_share\":" << json_number(e.stall_share)
           << ",\"tail_excess_us\":" << json_number(e.tail_excess_us)
           << ",\"rule_hits\":\"" << join_u64(e.rule_hits) << "\"}\n";
    }
    os << "{\"type\":\"profile_burst_hist\",\"hist\":\""
       << join_u64(burst_hist) << "\"}\n";
    return os.str();
}

bool
Profile::parse(const std::string &text, Profile *out, std::string *err)
{
    *out = Profile{};
    bool have_meta = false;
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JsonObject obj;
        if (!parse_json_object_line(line, &obj)) {
            if (err)
                *err = strprintf("profile line %zu: malformed JSON",
                                 lineno);
            return false;
        }
        JsonFields f{obj, {}};
        const std::string type = f.s("type");
        if (type == "profile_meta") {
            out->freq_ghz = f.d("freq_ghz");
            out->p99_latency_us = f.d("p99_latency_us");
            out->throughput_gbps = f.d("throughput_gbps");
            out->mpps = f.d("mpps");
            out->stall_share = f.d("stall_share");
            out->burst = static_cast<std::uint32_t>(f.u("burst", UINT32_MAX));
            out->model = f.s("model");
            out->dominant_element = f.s("dominant_element");
            have_meta = true;
        } else if (type == "profile_element") {
            ProfileElement e;
            e.name = f.s("name");
            e.class_name = f.s("class");
            e.packets = f.u("packets");
            e.cycles = f.d("cycles");
            e.mem_ns = f.d("mem_ns");
            e.time_share = f.d("time_share");
            e.stall_share = f.d("stall_share");
            e.tail_excess_us = f.d("tail_excess_us");
            e.rule_hits = f.u64s("rule_hits");
            out->elements.push_back(std::move(e));
        } else if (type == "profile_burst_hist") {
            out->burst_hist = f.u64s("hist");
        } else {
            if (err)
                *err = strprintf("profile line %zu: unknown type '%s'",
                                 lineno, type.c_str());
            return false;
        }
        if (!f.bad.empty()) {
            if (err)
                *err = strprintf(
                    "profile line %zu: malformed value for '%s'", lineno,
                    f.bad.c_str());
            return false;
        }
    }
    if (!have_meta) {
        if (err)
            *err = "profile has no profile_meta line";
        return false;
    }
    return true;
}

bool
Profile::save(const std::string &path, std::string *err) const
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = "cannot open '" + path + "' for writing";
        return false;
    }
    os << to_json();
    return os.good();
}

bool
Profile::load(const std::string &path, Profile *out, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parse(buf.str(), out, err);
}

std::string
Profile::to_string() const
{
    std::string s = strprintf(
        "profile: %.2f Gbps, %.3f Mpps, p99 %.2f us, stall share %.0f%%, "
        "burst %u, model %s\n",
        throughput_gbps, mpps, p99_latency_us, stall_share * 100.0, burst,
        model.c_str());
    TablePrinter t;
    t.header({"element", "class", "packets", "time %", "stall %",
              "tail excess us", "rule hits"});
    for (const ProfileElement &e : elements) {
        t.row({e.name, e.class_name,
               strprintf("%llu", static_cast<unsigned long long>(e.packets)),
               strprintf("%.1f", e.time_share * 100.0),
               strprintf("%.1f", e.stall_share * 100.0),
               strprintf("%+.3f", e.tail_excess_us),
               e.rule_hits.empty() ? std::string("-")
                                   : join_u64(e.rule_hits)});
    }
    s += t.to_string("measured per-element attribution");
    if (!dominant_element.empty())
        s += strprintf("dominant element: %s\n", dominant_element.c_str());
    const std::uint32_t occ99 = occupancy_percentile(99.0);
    if (occ99)
        s += strprintf("burst occupancy p99: %u\n", occ99);
    return s;
}

Profile
build_profile(Engine &engine, const RunResult &rr)
{
    Profile p;
    p.freq_ghz = engine.freq_ghz();
    p.p99_latency_us = rr.p99_latency_us;
    p.throughput_gbps = rr.throughput_gbps;
    p.mpps = rr.mpps;
    const double total_cycles = rr.exec.total_cycles(p.freq_ghz);
    p.stall_share =
        total_cycles > 0 ? rr.exec.wall_ns * p.freq_ghz / total_cycles : 0;
    p.burst = engine.pipeline(0).opts().burst;
    p.model = metadata_model_name(engine.pipeline(0).opts().model);

    // Element rows: stats summed over cores (config order), rule hit
    // counters likewise summed across each core's instance.
    const std::vector<ElementStats> stats = engine.element_stats();
    const ParsedGraph &graph = engine.pipeline(0).parsed();
    double total_elem_ns = 0;
    for (std::size_t i = 0; i < graph.elements.size(); ++i) {
        ProfileElement e;
        e.name = graph.elements[i].name;
        e.class_name = graph.elements[i].class_name;
        if (i < stats.size()) {
            e.packets = stats[i].packets;
            e.cycles = stats[i].cycles;
            e.mem_ns = stats[i].mem_ns;
        }
        for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
            const std::vector<Element *> elems =
                engine.pipeline(c).elements();
            if (i >= elems.size())
                continue;
            const std::vector<std::uint64_t> hits = elems[i]->rule_hits();
            if (e.rule_hits.size() < hits.size())
                e.rule_hits.resize(hits.size(), 0);
            for (std::size_t r = 0; r < hits.size(); ++r)
                e.rule_hits[r] += hits[r];
        }
        const double own_ns = e.cycles / p.freq_ghz + e.mem_ns;
        e.stall_share = own_ns > 0 ? e.mem_ns / own_ns : 0;
        total_elem_ns += own_ns;
        p.elements.push_back(std::move(e));
    }
    for (ProfileElement &e : p.elements) {
        const double own_ns = e.cycles / p.freq_ghz + e.mem_ns;
        e.time_share = total_elem_ns > 0 ? own_ns / total_elem_ns : 0;
    }

    // Tail attribution joins by element instance name (= span name).
    const TailAttribution att = engine.tail_attribution();
    for (const TailAttribution::Row &row : att.rows) {
        for (ProfileElement &e : p.elements) {
            if (e.name == row.stage) {
                e.tail_excess_us = row.excess_us;
                break;
            }
        }
    }
    p.dominant_element = att.dominant_element;

    if (engine.tracer())
        p.burst_hist = burst_occupancy_histogram(*engine.tracer(), 64);
    return p;
}

Profile
capture_profile(Engine &engine, const RunConfig &rc)
{
    engine.set_profile_capture(true);
    const RunResult rr = engine.run(rc);
    Profile p = build_profile(engine, rr);
    engine.set_profile_capture(false);
    return p;
}

PipelineOpts
Plan::apply_to_opts(PipelineOpts base) const
{
    if (burst)
        base.burst = burst;
    if (model == metadata_model_name(MetadataModel::kXchange))
        base.model = MetadataModel::kXchange;
    else if (model == metadata_model_name(MetadataModel::kOverlaying))
        base.model = MetadataModel::kOverlaying;
    else if (model == metadata_model_name(MetadataModel::kCopying))
        base.model = MetadataModel::kCopying;
    else if (model == metadata_model_name(MetadataModel::kParking))
        base.model = MetadataModel::kParking;
    if (!state_order.empty())
        base.state_order = state_order;
    return base;
}

std::string
Plan::to_string() const
{
    if (empty())
        return "plan: no profitable specialization found\n";
    std::string s = "plan:\n";
    for (const std::string &r : rationale)
        s += "  - " + r + "\n";
    return s;
}

Plan
PlanSearch::search(const Profile &profile, const PipelineOpts &base)
{
    Plan plan;

    // 1. Rule reordering: any element with measured per-rule hits
    //    gets a hot-first match order when it differs from the
    //    configured one. (Classifier walks patterns sequentially;
    //    IPLookup promotes the order's head to its fast path.)
    for (const ProfileElement &e : profile.elements) {
        if (e.rule_hits.size() < 2)
            continue;
        std::vector<std::uint32_t> order(e.rule_hits.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return e.rule_hits[a] > e.rule_hits[b];
                         });
        bool identity = true;
        for (std::uint32_t i = 0; i < order.size(); ++i)
            if (order[i] != i)
                identity = false;
        if (identity)
            continue;
        plan.rationale.push_back(strprintf(
            "%s: hot-first rule order (rule %u leads with %llu of %llu "
            "hits)",
            e.name.c_str(), order[0],
            static_cast<unsigned long long>(e.rule_hits[order[0]]),
            static_cast<unsigned long long>(std::accumulate(
                e.rule_hits.begin(), e.rule_hits.end(),
                std::uint64_t{0}))));
        plan.rule_orders.emplace_back(e.name, std::move(order));
    }

    // 2. Burst size from measured occupancy: when the p99 occupancy
    //    sits well under the configured burst, shrink toward the next
    //    power of two — every packet's RX latency includes waiting
    //    out the burst, so oversized bursts buy nothing. Saturated
    //    polls keep the configured size (growing it only trades
    //    latency and RX-ring headroom for no throughput). Floor 8.
    if (profile.burst != 0 && !profile.burst_hist.empty()) {
        const std::uint32_t occ99 = profile.occupancy_percentile(99.0);
        if (occ99 > 0) {
            std::uint32_t want =
                std::max<std::uint32_t>(8, round_up_pow2(occ99));
            if (want < profile.burst) {
                plan.burst = want;
                plan.rationale.push_back(strprintf(
                    "burst %u -> %u (p99 occupancy %u)", profile.burst,
                    want, occ99));
            }
        }
    }

    // 3. Metadata model: a stall-dominated profile on the Copying
    //    model is the paper's signature for metadata-conversion
    //    overhead; upgrade toward X-Change.
    if (base.model == MetadataModel::kCopying) {
        if (profile.stall_share > 0.40)
            plan.model = metadata_model_name(MetadataModel::kXchange);
        else if (profile.stall_share > 0.25)
            plan.model = metadata_model_name(MetadataModel::kOverlaying);
        if (!plan.model.empty())
            plan.rationale.push_back(strprintf(
                "model %s -> %s (stall share %.0f%%)",
                metadata_model_name(base.model), plan.model.c_str(),
                profile.stall_share * 100.0));
    }

    // 3b. Payload parking: an X-Change profile that still stalls on
    //     memory while moving large frames is bottlenecked on payload
    //     cache lines the pipeline never reads — park them. Gated on
    //     the measured mean frame size clearing the header split by a
    //     wide margin, so small-frame workloads (where nothing would
    //     be parked) are left alone.
    if (base.model == MetadataModel::kXchange && profile.mpps > 0) {
        const double mean_frame_bytes =
            profile.throughput_gbps * 125.0 / profile.mpps;
        if (profile.stall_share > 0.25 &&
            mean_frame_bytes >= 2.0 * base.park_split_bytes) {
            plan.model = metadata_model_name(MetadataModel::kParking);
            plan.rationale.push_back(strprintf(
                "model %s -> %s (stall share %.0f%%, mean frame %.0f B "
                ">= 2x %u B split: payload lines dominate the miss "
                "traffic)",
                metadata_model_name(base.model), plan.model.c_str(),
                profile.stall_share * 100.0, mean_frame_bytes,
                base.park_split_bytes));
        }
    }

    // 4. Static-arena placement: hot elements first so their state
    //    shares the leading arena cache lines.
    if (base.static_graph && profile.elements.size() > 1) {
        std::vector<std::size_t> idx(profile.elements.size());
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) {
                             const ProfileElement &ea = profile.elements[a];
                             const ProfileElement &eb = profile.elements[b];
                             if (ea.packets != eb.packets)
                                 return ea.packets > eb.packets;
                             return ea.cycles > eb.cycles;
                         });
        bool identity = true;
        for (std::size_t i = 0; i < idx.size(); ++i)
            if (idx[i] != i)
                identity = false;
        if (!identity) {
            for (std::size_t i : idx)
                plan.state_order.push_back(profile.elements[i].name);
            plan.rationale.push_back(strprintf(
                "static arena: hot-first state placement (%s leads)",
                plan.state_order.front().c_str()));
        }
    }
    return plan;
}

} // namespace pmill
