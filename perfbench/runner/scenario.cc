#include "runner/scenario.hh"

#include <algorithm>
#include <cstdio>

#include "src/common/log.hh"

namespace perfbench {

using namespace pmill;

namespace {

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Warm-up and default measured window (simulated). */
constexpr double kWarmupUs = 1000.0;
constexpr double kDurationUs = 5000.0;

/// Frames in default_campus_trace().
constexpr std::size_t kCampusFrames = 4096;

} // namespace

std::uint64_t
Scenario::config_hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, config);
    h = fnv1a(h, traffic_note);
    return h;
}

const std::vector<std::string> &
scenario_names()
{
    static const std::vector<std::string> names = {
        "router-campus", "nat-zipf-64b", "nat-churn-4core"};
    return names;
}

Trace
campus_trace(const Scenario &sc, std::uint32_t phase)
{
    // The canonical campus trace, replayed from a chosen frame. Like
    // the paper's fixed trace, its frame-size mix (and so the offered
    // packet rate) is the same for every seed; a freshly generated mix
    // would move the router across its knee.
    const Trace base = default_campus_trace();
    PMILL_ASSERT(base.size() == kCampusFrames, "campus trace resized");
    Trace t;
    const std::size_t start =
        (sc.seed + std::uint64_t(phase) * kCampusFrames / sc.phases) %
        kCampusFrames;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t k = (start + i) % base.size();
        t.add(base.data(k), base.len(k));
    }
    return t;
}

bool
make_scenario(const std::string &name, std::uint64_t seed,
              std::uint32_t host_threads, Scenario *out)
{
    Scenario sc;
    sc.name = name;
    sc.seed = seed;
    sc.rc.warmup_us = kWarmupUs;
    sc.rc.duration_us = kDurationUs;
    const std::string seed_kv =
        strprintf(",seed=%llu", static_cast<unsigned long long>(seed));

    if (name == "router-campus") {
        sc.why = "one core at 100 Gbps on the campus trace, at the knee: "
                 "driver, metadata, dispatch and DMA costs set the p99";
        sc.config = router_config();
        sc.opts = opts_packetmill();
        sc.opts_name = "packetmill";
        sc.campus = true;
        // At the knee the p99 depends on where in the trace the window
        // ends; single start frames spread it by 18 % of the median
        // over ten seeds. Sixteen evenly spaced starts average that out.
        sc.phases = 16;
        sc.rc.offered_gbps = 100.0;
        sc.traffic_note = strprintf(
            "default_campus_trace() replayed from frames %llu + k * %zu, "
            "k < %u",
            static_cast<unsigned long long>(seed % (kCampusFrames /
                                                    sc.phases)),
            kCampusFrames / sc.phases, sc.phases);
    } else if (name == "nat-zipf-64b") {
        sc.why = "64 B frames at 2.6x overload over a million Zipf flows: "
                 "cuckoo misses in Napt set the capacity";
        sc.config = nat_aging_config(32, 131072, 1.0);
        sc.opts = opts_packetmill();
        sc.opts_name = "packetmill";
        sc.workload_text = "zipf:flows=1000000,skew=1.1,burst=8,len=64" +
                           seed_kv;
        sc.rc.offered_gbps = 20.0;
        sc.traffic_note = sc.workload_text;
    } else if (name == "nat-churn-4core") {
        sc.why = "four RSS cores on the epoch scheduler, Copying driver, "
                 "flows born and aged out of the NAT table";
        sc.config = nat_aging_config(32, 131072, 1.0);
        sc.opts = opts_vanilla();
        sc.opts_name = "vanilla";
        sc.machine.num_cores = 4;
        sc.workload_text = "churn:flows=262144,skew=1.0,pkts=32" + seed_kv;
        sc.rc.offered_gbps = 24.0;
        // Flow births make its p99 seed-dependent: the quartile spread
        // over ten seeds is 4 % of the median at 10 ms, 9 % at 5 ms.
        sc.rc.duration_us = 10000.0;
        // One host thread keeps the timed repetitions steady on a
        // shared machine; the parallel schedule must give the same
        // simulated result and is timed separately.
        sc.rc.host_threads = 1;
        if (host_threads > 1)
            sc.parallel_threads = std::min(host_threads, 4u);
        sc.traffic_note = sc.workload_text;
    } else {
        return false;
    }
    if (!sc.campus) {
        // Canonicalize so the manifest records the parsed spec.
        sc.workload_text = workload_spec(sc).to_string();
        sc.traffic_note = sc.workload_text;
    }
    *out = std::move(sc);
    return true;
}

WorkloadSpec
workload_spec(const Scenario &sc)
{
    WorkloadSpec spec;
    std::string err;
    const bool ok = spec.parse(sc.workload_text, &err);
    PMILL_ASSERT(ok, "%s: %s", sc.workload_text.c_str(), err.c_str());
    return spec;
}

Rep
run_rep(const Scenario &sc, const RunConfig &rc, bool tracing,
        SpanRecorder *spans, std::uint32_t phase)
{
    Rep rep;
    Trace trace;
    WorkloadSpec spec;
    if (sc.campus) {
        rep.traffic_s = timed(spans, "trace.build",
                              [&] { trace = campus_trace(sc, phase); });
    } else {
        rep.traffic_s =
            timed(spans, "workload.spec", [&] { spec = workload_spec(sc); });
    }
    rep.build_s = timed(spans, "runtime.build", [&] {
        rep.engine = sc.campus ? std::make_unique<Engine>(sc.machine,
                                                          sc.config, sc.opts,
                                                          std::move(trace))
                               : std::make_unique<Engine>(
                                     sc.machine, sc.config, sc.opts, spec);
    });
    rep.grind_s =
        timed(spans, "mill.grind", [&] { PacketMill::grind(*rep.engine); });
    if (tracing)
        rep.engine->enable_tracing();
    rep.run_s = timed(spans, "runtime.run",
                      [&] { rep.result = rep.engine->run(rc); });
    return rep;
}

SimTuple
sim_tuple(const Rep &rep)
{
    const RunResult &r = rep.result;
    SimTuple t;
    t.tx_pkts = r.tx_pkts;
    t.rx_drops = r.rx_drops;
    t.gbps = r.throughput_gbps;
    t.mpps = r.mpps;
    t.p50_us = r.median_latency_us;
    t.p99_us = r.p99_latency_us;
    t.mean_us = r.mean_latency_us;
    t.llc_loads = r.mem.llc_loads();
    t.llc_misses = r.mem.llc_load_misses;
    for (const Engine::AcctCoreBreakdown &cb : rep.engine->acct_breakdown())
        t.acct_total += static_cast<long long>(cb.delta.total);
    return t;
}

std::uint64_t
frames_offered(const Scenario &sc, Engine &engine)
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < sc.machine.num_nics; ++i) {
        const NicStats s = engine.nic(i).stats();
        n += s.rx_frames + s.rx_drops_no_desc + s.rx_drops_pcie;
    }
    return n;
}

double
timeline_sum(const Timeline &tl, const std::string &name)
{
    const int col = tl.column(name);
    if (col < 0)
        return 0;
    double sum = 0;
    for (const TimelineRow &row : tl.rows)
        sum += row.values[static_cast<std::size_t>(col)];
    return sum;
}

double
window_frames_offered(const Scenario &sc, const Engine &engine)
{
    double n = 0;
    for (std::uint32_t i = 0; i < sc.machine.num_nics; ++i) {
        n += timeline_sum(engine.timeline(), strprintf("nic%u_rx_frames", i));
        n += timeline_sum(engine.timeline(), strprintf("nic%u_rx_drops", i));
    }
    return n;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
}

void
check_rep(const Scenario &sc, Rep &rep, Checks *checks)
{
    Engine &engine = *rep.engine;
    std::uint64_t rx = 0, tx = 0, drops = 0, ring_slots = 0;
    for (std::uint32_t i = 0; i < sc.machine.num_nics; ++i) {
        const NicStats s = engine.nic(i).stats();
        rx += s.rx_frames;
        tx += s.tx_frames;
        drops += s.rx_drops_no_desc + s.rx_drops_pcie;
        const NicConfig &nc = engine.nic(i).config();
        ring_slots += static_cast<std::uint64_t>(sc.machine.num_cores) *
                      (nc.rx_ring_size + nc.tx_ring_size + 2 * kMaxBurst);
    }
    std::uint64_t discarded = 0;
    for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
        discarded += engine.pipeline(c).dropped();

    // Every received frame was transmitted, discarded by the graph, or
    // is still in a ring or burst at the end of the run.
    const long long in_flight = static_cast<long long>(rx) -
                                static_cast<long long>(tx + discarded);
    checks->expect(in_flight >= 0 &&
                       in_flight <= static_cast<long long>(ring_slots),
                   strprintf("%s: NIC conservation rx=%llu tx=%llu "
                             "discarded=%llu in_flight=%lld (bound %llu)",
                             sc.name.c_str(),
                             static_cast<unsigned long long>(rx),
                             static_cast<unsigned long long>(tx),
                             static_cast<unsigned long long>(discarded),
                             in_flight,
                             static_cast<unsigned long long>(ring_slots)));
    checks->expect(tx >= rep.result.tx_pkts &&
                       drops >= rep.result.rx_drops,
                   strprintf("%s: window counts exceed run totals",
                             sc.name.c_str()));
    if (!sc.campus) {
        // Every synthesized frame reached a NIC: received or dropped.
        std::uint64_t made = 0;
        for (std::uint32_t i = 0; i < sc.machine.num_nics; ++i)
            made += engine.workload(i)->stats().frames;
        checks->expect(made == rx + drops,
                       strprintf("%s: generator made %llu frames, NICs "
                                 "saw %llu",
                                 sc.name.c_str(),
                                 static_cast<unsigned long long>(made),
                                 static_cast<unsigned long long>(rx +
                                                                 drops)));
    }
    if (CycleAccount::kCompiledIn) {
        bool tiles = !engine.acct_breakdown().empty();
        for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown())
            tiles = tiles && cb.delta.sum_minus_total() == 0;
        checks->expect(tiles, strprintf("%s: ledger bucket sum differs "
                                        "from its total",
                                        sc.name.c_str()));
    }
}

} // namespace perfbench
