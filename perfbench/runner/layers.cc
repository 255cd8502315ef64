#include "runner/layers.hh"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "src/accounting/acct_report.hh"
#include "src/framework/config_parser.hh"
#include "src/mem/access_sink.hh"
#include "src/mill/verify.hh"
#include "src/net/packet_builder.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/telemetry/export.hh"
#include "src/tracing/trace_export.hh"

namespace perfbench {

using namespace pmill;

namespace {

constexpr int kMinRounds = 2;
/// Flow keys replayed through the standalone table per round: the
/// first frames of the workload, few enough that every distinct key
/// fits the NAT's 131072-entry table without aging.
constexpr std::size_t kTableOps = 65536;
constexpr int kParseCalls = 200;

/// Element classes whose per-packet cost is reported on every workload.
const char *const kElementClasses[] = {"Classifier", "CheckIPHeader",
                                       "IPLookup",   "DecIPTTL",
                                       "Napt",       "EtherRewrite"};

/// Stages of the tail attribution reported on every workload: the
/// element spans of the three configurations (instance names, or
/// class names for unnamed elements) plus the queue/wire remainder.
const char *const kTailStages[] = {
    "queue/wire", "class",    "ARPResponder", "CheckIPHeader", "rt",
    "DecIPTTL",   "Napt",     "EtherRewrite", "output"};

/**
 * Stage label without the "@<index>" suffix the tracer gives unnamed
 * elements, e.g. "DecIPTTL@3" -> "DecIPTTL".
 */
std::string
stage_base(const std::string &label)
{
    const std::size_t at = label.rfind('@');
    return at == std::string::npos ? label : label.substr(0, at);
}

/**
 * @p label with every non-alphanumeric character replaced by '_': the
 * metric-name form of a stage ("queue/wire" -> "queue_wire"), and the
 * form the engine gives element labels in timeline column names.
 */
std::string
underscored(std::string label)
{
    for (char &c : label)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return label;
}

/** AccessSink that records the address stream it is fed. */
class RecordingSink final : public AccessSink {
  public:
    struct Access {
        Addr addr;
        std::uint32_t size;
        AccessType type;
    };

    void
    on_access(Addr addr, std::uint32_t size, AccessType type) override
    {
        stream.push_back({addr, size, type});
    }
    void on_compute(Cycles, double) override {}

    std::vector<Access> stream;
};

/** The workload's own flow keys, in arrival order. */
std::vector<FiveTuple>
flow_keys(const Scenario &sc, std::size_t n)
{
    std::vector<FiveTuple> keys;
    keys.reserve(n);
    if (sc.campus) {
        const Trace trace = campus_trace(sc, 0);
        for (std::size_t i = 0; i < n; ++i)
            keys.push_back(extract_tuple(trace.data(i % trace.size()),
                                         trace.len(i % trace.size())));
        return keys;
    }
    WorkloadSource src(workload_spec(sc), 0);
    std::array<std::uint8_t, kMaxFrameLen> buf{};
    double gap = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t len = src.next_frame(
            buf.data(), static_cast<std::uint32_t>(buf.size()), &gap);
        keys.push_back(extract_tuple(buf.data(), len));
    }
    return keys;
}

/** Host samples per metric name, one per round. */
using Samples = std::map<std::string, std::vector<double>>;

/** The simulated per-layer metrics of one (deterministic) repetition. */
void
simulated_layers(const Scenario &sc, Rep &rep, MetricSet *out)
{
    Engine &engine = *rep.engine;
    const RunResult &r = rep.result;
    const double pkts = static_cast<double>(r.tx_pkts);
    const auto per_pkt = [&](double v) { return pkts > 0 ? v / pkts : 0.0; };

    // Ledger: scope x component cycles summed over cores.
    std::vector<std::array<double, kAcctNumComponents>> scope;
    double total = 0;
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown()) {
        const std::size_t n = cb.delta.num_scopes();
        if (scope.size() < n)
            scope.resize(n, std::array<double, kAcctNumComponents>{});
        for (std::size_t s = 0; s < n; ++s)
            for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
                scope[s][c] += CycleAccount::cycles(
                    cb.delta.bucket(static_cast<std::uint16_t>(s), c));
        total += CycleAccount::cycles(cb.delta.total);
    }
    const auto scope_cyc = [&](std::size_t s) {
        double v = 0;
        if (s < scope.size())
            for (double c : scope[s])
                v += c;
        return v;
    };
    const double idle = scope_cyc(kAcctIdle);
    const double busy = total - idle;
    const std::string led = CycleAccount::kCompiledIn
                                ? "ledger, per delivered packet"
                                : "ledger compiled out";

    out->add("driver.rx_cyc_per_pkt", "cycles",
             per_pkt(scope_cyc(kAcctDriverRx)), led);
    out->add("driver.tx_cyc_per_pkt", "cycles",
             per_pkt(scope_cyc(kAcctDriverTx)), led);
    out->add("driver.mempool_cyc_per_pkt", "cycles",
             per_pkt(scope_cyc(kAcctMempool)), led);
    out->add("driver.metadata_cyc_per_pkt", "cycles",
             per_pkt(scope_cyc(kAcctMetadata)), led);
    out->add("framework.glue_cyc_per_pkt", "cycles",
             per_pkt(scope_cyc(kAcctFramework)), led);
    out->add("framework.idle_pct", "%", pct_of(idle, total),
             "core time spent waiting for work");

    // Elements: ledger scope cycles per packet entering the element.
    const std::vector<ElementStats> es = engine.element_stats();
    const std::vector<Element *> elems = engine.pipeline(0).elements();
    std::map<std::string, std::pair<double, double>> by_class;  // cyc, pkts
    double entry_pkts = 0, entry_batches = 0;
    for (std::size_t i = 0; i < elems.size(); ++i) {
        auto &[cyc, n] = by_class[elems[i]->class_name()];
        cyc += scope_cyc(kAcctElementBase + i);
        n += static_cast<double>(es[i].packets);
        if (std::string(elems[i]->class_name()) == "Classifier") {
            entry_pkts = static_cast<double>(es[i].packets);
            entry_batches = static_cast<double>(es[i].batches);
        }
    }
    out->add("framework.pkts_per_batch", "pkts",
             entry_batches > 0 ? entry_pkts / entry_batches : 0.0,
             "packets per batch entering the graph");
    for (const char *cls : kElementClasses) {
        const std::string name = std::string("elements.") + cls +
                                 ".cyc_per_pkt";
        const auto it = by_class.find(cls);
        if (it == by_class.end() || it->second.second == 0)
            out->not_applicable(name, "cycles",
                                std::string("no ") + cls + " in " +
                                    sc.name + "'s configuration");
        else
            out->add(name, "cycles", it->second.first / it->second.second,
                     "ledger cycles per packet entering the element");
    }

    // Memory: shares of busy cycles by ledger component.
    std::array<double, kAcctNumComponents> comp{};
    for (std::size_t s = 0; s < scope.size(); ++s)
        if (s != kAcctIdle)
            for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
                comp[c] += scope[s][c];
    out->add("mem.compute_pct", "%", pct_of(comp[kAcctCompute], busy),
             "share of busy cycles");
    out->add("mem.l1l2_pct", "%", pct_of(comp[kAcctAccess], busy),
             "share of busy cycles");
    out->add("mem.llc_stall_pct", "%", pct_of(comp[kAcctLlcStall], busy),
             "share of busy cycles");
    out->add("mem.dram_stall_pct", "%", pct_of(comp[kAcctDramStall], busy),
             "share of busy cycles");
    out->add("mem.tlb_stall_pct", "%", pct_of(comp[kAcctTlbStall], busy),
             "share of busy cycles");
    out->add("mem.llc_loads_per_pkt", "loads",
             per_pkt(static_cast<double>(r.mem.llc_loads())), "");
    out->add("mem.llc_misses_per_pkt", "misses",
             per_pkt(static_cast<double>(r.mem.llc_load_misses)), "");
    out->add("mem.ipc", "instr/cyc", r.ipc, "modelled IPC");

    // Flow table: window deltas from the sampled timeline.
    std::size_t napt = elems.size();
    for (std::size_t i = 0; i < elems.size(); ++i)
        if (std::string(elems[i]->class_name()) == "Napt")
            napt = i;
    const char *table_metrics[][2] = {
        {"table.napt.occupancy_pct", "%"},
        {"table.napt.inserts_per_kpkt", "inserts"},
        {"table.napt.kicks_per_insert", "kicks"},
        {"table.napt.evictions_per_kpkt", "evictions"},
        {"table.napt.failed_insert_pct", "%"},
        {"table.napt.dram_stall_cyc_per_pkt", "cycles"}};
    if (napt == elems.size()) {
        for (const auto &m : table_metrics)
            out->not_applicable(m[0], m[1], "no flow table in " + sc.name);
    } else {
        const std::string prefix =
            "tbl_" +
            underscored(elems[napt]->name().empty() ? elems[napt]->class_name()
                                                    : elems[napt]->name()) +
            "_";
        const Timeline &tl = engine.timeline();
        const double ins = timeline_sum(tl, prefix + "inserts");
        const double fail = timeline_sum(tl, prefix + "failed_inserts");
        const double kicks = timeline_sum(tl, prefix + "displacements");
        const double evict = timeline_sum(tl, prefix + "evictions");
        const double npkts = static_cast<double>(es[napt].packets);
        double occ = 0, cap = 0;
        for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
            FlowTableStats st;
            if (engine.pipeline(c).elements()[napt]->flow_table_stats(&st)) {
                occ += static_cast<double>(st.occupancy);
                cap += static_cast<double>(st.capacity);
            }
        }
        const double kpkt = npkts / 1000.0;
        out->add("table.napt.occupancy_pct", "%", pct_of(occ, cap),
                 "live entries over slots at run end");
        out->add("table.napt.inserts_per_kpkt", "inserts",
                 kpkt > 0 ? ins / kpkt : 0.0, "measured window");
        out->add("table.napt.kicks_per_insert", "kicks",
                 ins > 0 ? kicks / ins : 0.0, "measured window");
        out->add("table.napt.evictions_per_kpkt", "evictions",
                 kpkt > 0 ? evict / kpkt : 0.0, "measured window");
        out->add("table.napt.failed_insert_pct", "%",
                 pct_of(fail, ins + fail), "failed over attempted inserts");
        const std::size_t s = kAcctElementBase + napt;
        out->add("table.napt.dram_stall_cyc_per_pkt", "cycles",
                 npkts > 0 && s < scope.size()
                     ? scope[s][kAcctDramStall] / npkts
                     : 0.0,
                 "Napt's DRAM-stall ledger cycles per packet");
    }

    // NIC drops over the whole run, as shares of frames offered.
    double offered = 0, no_desc = 0, pcie = 0;
    for (std::uint32_t i = 0; i < sc.machine.num_nics; ++i) {
        const NicStats s = engine.nic(i).stats();
        offered += static_cast<double>(s.rx_frames + s.rx_drops_no_desc +
                                       s.rx_drops_pcie);
        no_desc += static_cast<double>(s.rx_drops_no_desc);
        pcie += static_cast<double>(s.rx_drops_pcie);
    }
    out->add("nic.rx_drop_no_desc_pct", "%", pct_of(no_desc, offered),
             "whole run incl. warm-up");
    out->add("nic.rx_drop_pcie_pct", "%", pct_of(pcie, offered),
             "whole run incl. warm-up");
}

/** One round of standalone table and cache replays. */
void
replay_table(const Scenario &sc, const std::vector<FiveTuple> &keys,
             SpanRecorder *spans, Samples *host)
{
    SimMemory mem;
    CuckooHash<FiveTuple, std::uint64_t> table(mem, 131072);
    std::uint64_t sink_guard = 0;
    const double ins_s = timed(spans, "table.insert", [&] {
        for (std::size_t i = 0; i < keys.size(); ++i)
            sink_guard += table.insert(keys[i], i) ? 1 : 0;
    });
    const double look_s = timed(spans, "table.lookup", [&] {
        for (const FiveTuple &k : keys)
            if (const auto v = table.lookup(k))
                sink_guard += *v;
    });
    PMILL_ASSERT(sink_guard != 0, "table replay did nothing");
    const double n = static_cast<double>(keys.size());
    (*host)["table.insert_ns"].push_back(ins_s * 1e9 / n);
    (*host)["table.lookup_ns"].push_back(look_s * 1e9 / n);

    // The lookups' address stream through a cold hierarchy of the
    // simulated machine's geometry.
    RecordingSink rec;
    for (const FiveTuple &k : keys)
        table.lookup(k, &rec);
    CacheHierarchy caches(sc.machine.cache);
    double lat = 0;
    const double mem_s = timed(spans, "mem.replay", [&] {
        for (const RecordingSink::Access &a : rec.stream)
            lat += caches.access(a.addr, a.size, a.type).core_cycles;
    });
    PMILL_ASSERT(lat > 0, "cache replay charged nothing");
    (*host)["mem.ns_per_access"].push_back(
        mem_s * 1e9 / static_cast<double>(rec.stream.size()));
}

/** Add host metric @p name as the median of its per-round samples. */
void
add_host(MetricSet *out, const Samples &host, const std::string &name,
         const std::string &unit, const std::string &note)
{
    const auto it = host.find(name);
    const std::size_t n = it == host.end() ? 0 : it->second.size();
    out->add(name, unit, n ? median(it->second) : 0.0,
             strprintf("host, median of %zu; %s", n, note.c_str()));
}

} // namespace

void
measure_layers(const Scenario &sc, double seconds, const std::string &out_dir,
               const std::string &manifest, Checks *checks, MetricSet *out)
{
    SpanRecorder spans(sc.name);
    Samples host;
    const Clock::time_point t0 = Clock::now();
    const std::vector<FiveTuple> keys = flow_keys(sc, kTableOps);

    // Fidelity probes (simulated, deterministic: run once). The serial
    // loop of the single-core workloads must read 0 on both.
    double p99_fine = 0, p50_fine = 0;
    {
        RunConfig rc = sc.rc;
        rc.epoch_us = 0.05;
        SpanScope s(&spans, "probe.epoch");
        p99_fine = run_rep(sc, rc, false, &spans).result.p99_latency_us;
    }
    {
        RunConfig rc = sc.rc;
        rc.sample_interval_us = 7.3;
        SpanScope s(&spans, "probe.sampler");
        p50_fine = run_rep(sc, rc, false, &spans).result.median_latency_us;
    }

    SimTuple first;
    TailAttribution tail;
    double p99 = 0, p50 = 0;
    std::uint64_t run_frames = 0;
    int rounds = 0;
    while (rounds < kMinRounds || seconds_since(t0) < seconds) {
        SpanScope round(&spans, "round");
        {
            Rep rep;
            {
                SpanScope s(&spans, "rep.default");
                rep = run_rep(sc, sc.rc, false, &spans);
            }
            check_rep(sc, rep, checks);
            host["runtime.build_s"].push_back(rep.build_s);
            host["runtime.run_s"].push_back(rep.run_s);
            host["mill.grind_s"].push_back(rep.grind_s);
            if (sc.campus)
                host["trace.build_s"].push_back(rep.traffic_s);
            if (rounds == 0) {
                first = sim_tuple(rep);
                p99 = rep.result.p99_latency_us;
                p50 = rep.result.median_latency_us;
                simulated_layers(sc, rep, out);
                run_frames = frames_offered(sc, *rep.engine);
            } else {
                checks->expect(sim_tuple(rep) == first,
                               sc.name + ": repetition changed the "
                                         "simulated result");
            }
            std::ostringstream sink;
            host["telemetry.export_ms"].push_back(
                1e3 * timed(&spans, "telemetry.export", [&] {
                    export_jsonl(rep.engine->timeline(), sink);
                    export_csv(rep.engine->timeline(), sink);
                }));
            host["accounting.report_ms"].push_back(
                1e3 * timed(&spans, "accounting.report", [&] {
                    const AcctReport ar = acct_report_from_engine(*rep.engine);
                    acct_write_jsonl(ar, sink);
                }));
        }
        {
            RunConfig rc = sc.rc;
            rc.sample_interval_us = 0;
            SpanScope s(&spans, "rep.nosampler");
            host["run_s.nosampler"].push_back(
                run_rep(sc, rc, false, &spans).run_s);
        }
        {
            Rep rep;
            {
                SpanScope s(&spans, "rep.traced");
                rep = run_rep(sc, sc.rc, true, &spans);
            }
            check_rep(sc, rep, checks);
            checks->expect(sim_tuple(rep) == first,
                           sc.name + ": tracing changed the simulated "
                                     "result");
            host["run_s.traced"].push_back(rep.run_s);
            const Tracer *tracer = rep.engine->tracer();
            if (tracer) {
                std::ostringstream sink;
                host["tracing.export_ms"].push_back(
                    1e3 * timed(&spans, "tracing.export", [&] {
                        export_chrome_trace(*tracer, sink);
                    }));
                timed(&spans, "tracing.attribute", [&] {
                    tail = attribute_tail(*tracer, p99);
                });
            }
        }
        if (sc.parallel_threads > 1) {
            RunConfig rc = sc.rc;
            rc.host_threads = sc.parallel_threads;
            Rep rep;
            {
                SpanScope s(&spans, "rep.parallel");
                rep = run_rep(sc, rc, false, &spans);
            }
            check_rep(sc, rep, checks);
            checks->expect(sim_tuple(rep) == first,
                           sc.name + ": parallel host threads changed the "
                                     "simulated result");
            host["run_s.parallel"].push_back(rep.run_s);
        }
        host["framework.parse_us"].push_back(
            1e6 / kParseCalls * timed(&spans, "framework.parse", [&] {
                for (int i = 0; i < kParseCalls; ++i) {
                    ParsedGraph g;
                    std::string err;
                    const bool ok = parse_click_config(sc.config, &g, &err);
                    PMILL_ASSERT(ok, "%s", err.c_str());
                }
            }));
        if (!sc.campus) {
            // Standalone synthesis of the run's frame count.
            WorkloadSource src(workload_spec(sc), 0);
            std::array<std::uint8_t, kMaxFrameLen> buf{};
            double gap = 1.0;
            std::uint64_t bytes = 0;
            const double s = timed(&spans, "workload.synth", [&] {
                for (std::uint64_t i = 0; i < run_frames; ++i)
                    bytes += src.next_frame(
                        buf.data(), static_cast<std::uint32_t>(buf.size()),
                        &gap);
            });
            PMILL_ASSERT(bytes > 0, "workload made no bytes");
            host["workload.ns_per_frame"].push_back(
                s * 1e9 / static_cast<double>(run_frames));
        }
        replay_table(sc, keys, &spans, &host);
        {
            EquivalenceReport eq;
            const Trace trace = campus_trace(sc, 0);
            host["mill.verify_s"].push_back(
                timed(&spans, "mill.verify", [&] {
                    eq = verify_equivalence(sc.config, opts_vanilla(),
                                            opts_packetmill(), trace);
                }));
            if (sc.campus)
                checks->expect(eq.equivalent,
                               sc.name + ": vanilla vs packetmill "
                                         "equivalence: " +
                                   eq.to_string());
        }
        ++rounds;
        // The runs: default, no-sampler, traced and parallel.
        checks->attempted += sc.parallel_threads > 1 ? 4 : 3;
    }

    // Host per-layer metrics.
    add_host(out, host, "framework.parse_us", "us",
             "parse_click_config per call");
    add_host(out, host, "mem.ns_per_access", "ns",
             "standalone CacheHierarchy fed the table replay's addresses");
    add_host(out, host, "table.lookup_ns", "ns",
             strprintf("standalone CuckooHash, %zu workload keys",
                       kTableOps));
    add_host(out, host, "table.insert_ns", "ns",
             strprintf("standalone CuckooHash, %zu workload keys",
                       kTableOps));
    if (sc.campus)
        out->not_applicable("workload.ns_per_frame", "ns",
                            "router-campus replays a prebuilt trace");
    else
        add_host(out, host, "workload.ns_per_frame", "ns",
                 "WorkloadSource::next_frame over the run's frame count");
    if (sc.campus)
        add_host(out, host, "trace.build_s", "s", "make_campus_trace");
    else
        out->not_applicable("trace.build_s", "s",
                            sc.name + " synthesizes its frames");
    add_host(out, host, "mill.grind_s", "s", "PacketMill::grind");
    add_host(out, host, "mill.verify_s", "s",
             "verify_equivalence vanilla vs packetmill, campus trace");
    add_host(out, host, "runtime.build_s", "s", "Engine constructor");
    add_host(out, host, "runtime.run_s", "s", "Engine::run, tracer off");
    const double run_s = median(host["runtime.run_s"]);
    if (sc.parallel_threads > 1)
        out->add("runtime.parallel_speedup", "x",
                 run_s / median(host["run_s.parallel"]),
                 strprintf("run_s at %u host thread over %u",
                           sc.rc.host_threads, sc.parallel_threads));
    else
        out->not_applicable("runtime.parallel_speedup", "x",
                            sc.machine.num_cores > 1
                                ? "only one host thread available"
                                : "one simulated core: serial loop, no "
                                  "scheduler");
    out->add("runtime.epoch_quantization_us", "us", std::fabs(p99 - p99_fine),
             strprintf("|p99 at epoch %g us (%.6g) - at 0.05 us (%.6g)|",
                       sc.rc.epoch_us, p99, p99_fine));
    out->add("runtime.sampler_perturbation_us", "us",
             std::fabs(p50 - p50_fine),
             strprintf("|p50 at %g us sampling (%.6g) - at 7.3 us (%.6g)|",
                       sc.rc.sample_interval_us, p50, p50_fine));
    out->add("telemetry.sampler_overhead_pct", "%",
             pct_over(run_s, median(host["run_s.nosampler"])),
             "run_s at the default interval over sampling off");
    add_host(out, host, "telemetry.export_ms", "ms", "export_jsonl + export_csv");
    const double traced_pct = pct_over(median(host["run_s.traced"]), run_s);
    out->add("tracing.overhead_pct", "%", traced_pct,
             "run_s traced over untraced");
    add_host(out, host, "tracing.export_ms", "ms", "export_chrome_trace");
    add_host(out, host, "accounting.report_ms", "ms",
             "acct_report_from_engine + acct_write_jsonl");

    // Simulated latency split of the traced window.
    std::printf("[%s] tail attribution over %zu sampled packets, %zu above "
                "p99 %.6g us\n",
                sc.name.c_str(), tail.num_complete, tail.num_tail, p99);
    for (const char *stage : kTailStages) {
        const std::string base = "tracing." + underscored(stage);
        const TailAttribution::Row *row = nullptr;
        for (const TailAttribution::Row &r : tail.rows)
            if (stage_base(r.stage) == stage)
                row = &r;
        if (!row) {
            out->not_applicable(base + ".mean_us", "us",
                                std::string("no '") + stage +
                                    "' stage in the traced window");
            out->not_applicable(base + ".tail_share_pct", "%",
                                std::string("no '") + stage + "' stage");
            continue;
        }
        out->add(base + ".mean_us", "us", row->mean_us_all,
                 "mean per sampled packet");
        out->add(base + ".tail_share_pct", "%", row->share_pct,
                 "share of the p99 tail's excess");
    }
    for (const TailAttribution::Row &r : tail.rows) {
        bool known = false;
        for (const char *stage : kTailStages)
            known = known || stage_base(r.stage) == stage;
        if (!known)
            std::printf("[%s] unreported tail stage '%s' mean %.6g us\n",
                        sc.name.c_str(), r.stage.c_str(), r.mean_us_all);
    }

    // Span self times, and what recording them cost.
    const std::map<std::string, SpanSummary> sum = spans.summarize();
    double wall_ns = 0;
    for (const Span &s : spans.spans())
        if (s.parent < 0)
            wall_ns += s.dur_ns();
    std::printf("[%s] span self time over %d rounds (%zu spans):\n",
                sc.name.c_str(), rounds, spans.spans().size());
    for (const auto &[name, s] : sum)
        std::printf("[%s]   %-22s n=%-4zu total %10.3f ms  self %10.3f ms "
                    "(%5.1f%%)\n",
                    sc.name.c_str(), name.c_str(), s.count, s.total_ns / 1e6,
                    s.self_ns / 1e6, pct_of(s.self_ns, wall_ns));
    SpanRecorder probe("probe");
    const Clock::time_point p0 = Clock::now();
    constexpr int kProbeSpans = 10000;
    for (int i = 0; i < kProbeSpans; ++i)
        SpanScope s(&probe, "probe");
    const double per_span_ns = seconds_since(p0) * 1e9 / kProbeSpans;
    out->add("spans.overhead_pct", "%",
             pct_of(per_span_ns * static_cast<double>(spans.spans().size()),
                    wall_ns),
             strprintf("%.0f ns per span recorded", per_span_ns));
    std::printf("[%s] engine tracer overhead next to these: %.3g%% of "
                "run_s\n",
                sc.name.c_str(), traced_pct);

    const std::string path =
        out_dir + "/spans-" + sc.name +
        strprintf("-seed%llu.jsonl", static_cast<unsigned long long>(sc.seed));
    checks->expect(spans.write_jsonl(path, manifest),
                   "cannot write span file " + path);
    std::printf("[%s] spans: %s\n", sc.name.c_str(), path.c_str());
}

} // namespace perfbench
