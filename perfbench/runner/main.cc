/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload <name|all> --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]
 *
 * --trace 0 measures the end-to-end metrics of each workload with the
 * engine's tracer off: fresh build + grind + run repetitions until S
 * seconds have passed, reporting medians. --trace 1 is the separate
 * traced run: it times every layer call as a span and reports the
 * per-layer metrics (see layers.hh). Either way the last line of
 * standard output is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * where attempted/failed count runs and correctness checks.
 *
 * Traffic is an open loop: the simulated generator offers a fixed
 * wire rate whatever the DUT does, so in simulated time it is never
 * late. Host repetitions are a closed loop in this one process.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "runner/layers.hh"
#include "runner/report.hh"
#include "runner/scenario.hh"
#include "src/mill/verify.hh"
#include "src/telemetry/export.hh"

using namespace pmill;
using namespace perfbench;

namespace {

/// Table 1 of the paper: router @ 3 GHz, campus trace, 100 Gbps.
constexpr double kPaperVanillaMpps = 8.66;
constexpr double kPaperAllMpps = 10.41;

/// At least this many repetitions, however long they take.
constexpr int kMinReps = 3;

struct Options {
    std::vector<std::string> workloads;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = ".";
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name|all> "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--git-commit SHA] [--source-digest HEX]\n",
                 msg);
    std::exit(2);
}

bool
parse_u64(const char *s, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    *out = v;
    return true;
}

Options
parse_args(int argc, char **argv)
{
    Options o;
    std::string workload;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            workload = val;
        } else if (flag == "--seed") {
            if (!parse_u64(val, &o.seed))
                usage("--seed must be a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parse_u64(val, &n) || n < 1 || n > 600)
                usage("--seconds must be an integer in [1, 600]");
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace must be 0 or 1");
            o.trace = val[0] == '1';
            have_trace = true;
        } else if (flag == "--out-dir") {
            o.out_dir = val;
        } else if (flag == "--git-commit") {
            o.git_commit = val;
        } else if (flag == "--source-digest") {
            o.source_digest = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (workload.empty() || !have_trace)
        usage("--workload and --trace are required");
    if (workload == "all") {
        o.workloads = scenario_names();
    } else {
        Scenario probe;
        if (!make_scenario(workload, 0, 1, &probe))
            usage(("unknown workload " + workload).c_str());
        o.workloads = {workload};
    }
    return o;
}

std::uint32_t
host_cpus()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string
manifest_json(const Options &o, const Scenario &sc)
{
    return strprintf(
        "{\"type\":\"manifest\",\"workload\":\"%s\",\"trace\":%d,"
        "\"compiler\":\"%s\",\"build_type\":\"%s\","
        "\"tracer_compiled_in\":%s,\"acct_compiled_in\":%s,"
        "\"nproc\":%u,\"host_threads\":%u,\"parallel_threads\":%u,"
        "\"epoch_us\":%s,"
        "\"sample_interval_us\":%s,\"warmup_us\":%s,\"duration_us\":%s,"
        "\"offered_gbps\":%s,\"cores\":%u,\"phases\":%u,\"opts\":\"%s\","
        "\"seed\":%llu,\"traffic\":\"%s\",\"config_hash\":\"%016llx\","
        "\"seconds\":%s,\"git_commit\":\"%s\",\"source_digest\":\"%s\"}",
        json_escape(sc.name).c_str(), o.trace ? 1 : 0, PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, Tracer::kCompiledIn ? "true" : "false",
        CycleAccount::kCompiledIn ? "true" : "false", host_cpus(),
        sc.rc.host_threads, sc.parallel_threads,
        json_number(sc.rc.epoch_us).c_str(),
        json_number(sc.rc.sample_interval_us).c_str(),
        json_number(sc.rc.warmup_us).c_str(),
        json_number(sc.rc.duration_us).c_str(),
        json_number(sc.rc.offered_gbps).c_str(), sc.machine.num_cores,
        sc.phases,
        json_escape(sc.opts_name).c_str(),
        static_cast<unsigned long long>(sc.seed),
        json_escape(sc.traffic_note).c_str(),
        static_cast<unsigned long long>(sc.config_hash()),
        json_number(o.seconds).c_str(), json_escape(o.git_commit).c_str(),
        json_escape(o.source_digest).c_str());
}

/**
 * Mean absolute Mpps error of the simulator against the paper's
 * Table 1 (Vanilla 8.66, All 10.41), on the repository's canonical
 * campus trace. A fixed reference setting, run untimed.
 */
double
paper_mpps_err_pct(double *vanilla, double *all)
{
    const Trace trace = default_campus_trace();
    ExperimentSpec spec;
    spec.config = router_config();
    spec.freq_ghz = 3.0;
    spec.offered_gbps = 100.0;
    spec.quality = Quality{};  // fixed window, not PMILL_QUICK
    spec.opts = opts_vanilla();
    *vanilla = measure(spec, trace).mpps;
    spec.opts = opts_source_all();
    *all = measure(spec, trace).mpps;
    return 0.5 * (std::fabs(*vanilla - kPaperVanillaMpps) / kPaperVanillaMpps +
                  std::fabs(*all - kPaperAllMpps) / kPaperAllMpps) *
           100.0;
}

/** Busy ledger cycles (total minus the idle scope), all cores. */
double
busy_cycles(const Engine &engine)
{
    double busy = 0;
    for (const Engine::AcctCoreBreakdown &cb : engine.acct_breakdown())
        busy += CycleAccount::cycles(cb.delta.total -
                                     cb.delta.scope_total(kAcctIdle));
    return busy;
}

/** End-to-end metrics of one workload, tracer off. */
void
measure_end_to_end(const Options &o, const Scenario &sc, Checks *checks,
                   MetricSet *out)
{
    std::printf("[%s] traffic: open loop, %s at %g Gbps offered per NIC; "
                "the simulated generator is never late\n",
                sc.name.c_str(), sc.traffic_note.c_str(), sc.rc.offered_gbps);

    // Correctness checks outside the timed loop.
    if (sc.name == "router-campus") {
        const EquivalenceReport eq = verify_equivalence(
            sc.config, opts_vanilla(), opts_packetmill(),
            campus_trace(sc, 0));
        checks->expect(eq.equivalent,
                       "router-campus: vanilla vs packetmill equivalence: " +
                           eq.to_string());
    }
    double ref_vanilla = 0, ref_all = 0;
    const double paper_err = paper_mpps_err_pct(&ref_vanilla, &ref_all);

    // Timed loop: fresh build + grind + run until the budget is spent,
    // cycling through the replay phases.
    std::vector<double> setup_s, sim_rate, host_ns;
    // Simulated results of each phase's first repetition.
    std::vector<SimTuple> tuples(sc.phases);
    std::vector<double> gbps, mpps, p50, p99, delivered, cyc_per_pkt;
    std::uint64_t tx_pkts = 0, rx_drops = 0;
    double offered_win = 0;
    const Clock::time_point t0 = Clock::now();
    int reps = 0;
    const int min_reps = std::max(kMinReps, static_cast<int>(sc.phases));
    while (reps < min_reps || seconds_since(t0) < o.seconds) {
        const std::uint32_t phase = static_cast<std::uint32_t>(reps) %
                                    sc.phases;
        Rep rep = run_rep(sc, sc.rc, false, nullptr, phase);
        check_rep(sc, rep, checks);
        const SimTuple t = sim_tuple(rep);
        if (reps < static_cast<int>(sc.phases)) {
            tuples[phase] = t;
            const RunResult &r = rep.result;
            const double win = window_frames_offered(sc, *rep.engine);
            gbps.push_back(r.throughput_gbps);
            mpps.push_back(r.mpps);
            p50.push_back(r.median_latency_us);
            p99.push_back(r.p99_latency_us);
            delivered.push_back(pct_of(static_cast<double>(r.tx_pkts), win));
            cyc_per_pkt.push_back(r.tx_pkts ? busy_cycles(*rep.engine) /
                                                  static_cast<double>(r.tx_pkts)
                                            : 0.0);
            tx_pkts += r.tx_pkts;
            rx_drops += r.rx_drops;
            offered_win += win;
        } else {
            checks->expect(t == tuples[phase],
                           strprintf("%s: repetition %d changed the "
                                     "simulated result",
                                     sc.name.c_str(), reps));
        }
        const double sim_s = (sc.rc.warmup_us + sc.rc.duration_us) * 1e-6;
        setup_s.push_back(rep.setup_s());
        sim_rate.push_back(sim_s / rep.run_s);
        host_ns.push_back(rep.run_s * 1e9 /
                          static_cast<double>(frames_offered(sc, *rep.engine)));
        ++reps;
    }
    checks->attempted += static_cast<std::uint64_t>(reps);  // the runs

    if (sc.parallel_threads > 1) {
        RunConfig par = sc.rc;
        par.host_threads = sc.parallel_threads;
        Rep rep = run_rep(sc, par, false, nullptr);
        check_rep(sc, rep, checks);
        checks->expect(sim_tuple(rep) == tuples[0],
                       strprintf("%s: %u host threads and %u host threads "
                                 "disagree",
                                 sc.name.c_str(), sc.rc.host_threads,
                                 sc.parallel_threads));
        ++checks->attempted;
    }

    const std::string reps_note = strprintf("median of %d reps", reps);
    const std::string sim_note =
        sc.phases > 1
            ? strprintf("simulated, median of %u replay phases, each "
                        "bit-identical over its reps",
                        sc.phases)
            : strprintf("simulated, bit-identical over %d reps", reps);
    out->add("sim_gbps", "Gbps", median(gbps), sim_note);
    out->add("sim_mpps", "Mpps", median(mpps), sim_note);
    const std::string lat_note =
        sim_note + strprintf(", each over %llu delivered packets",
                             static_cast<unsigned long long>(tx_pkts /
                                                             sc.phases));
    out->add("sim_p50_us", "us", median(p50), lat_note);
    out->add("sim_p99_us", "us", median(p99), lat_note);
    out->print_only("sim_loss_pct", "%",
                    pct_of(static_cast<double>(rx_drops), offered_win),
                    strprintf("RX drops %llu of %.0f frames offered in the "
                              "window%s",
                              static_cast<unsigned long long>(rx_drops),
                              offered_win,
                              sc.phases > 1 ? ", all phases" : ""));
    out->add("sim_delivered_pct", "%", median(delivered),
             "frames delivered per frame offered in the window; " +
                 sim_note);
    out->add("sim_cycles_per_pkt", "cycles", median(cyc_per_pkt),
             "busy ledger cycles per delivered packet; " + sim_note);
    out->add("paper_mpps_err_pct", "%", paper_err,
             strprintf("Table 1 reference: vanilla %.3f vs 8.66, all %.3f "
                       "vs 10.41 Mpps%s",
                       ref_vanilla, ref_all,
                       sc.name == "router-campus"
                           ? ""
                           : "; this workload itself is unvalidated"));
    out->add("sim_rate", "s/s", median(sim_rate),
             "simulated s per host s, " + reps_note);
    out->add("host_ns_per_pkt", "ns", median(host_ns),
             "host ns per frame offered, " + reps_note);
    out->add("setup_s", "s", median(setup_s),
             "traffic + Engine + grind, " + reps_note);
    out->add("peak_rss_mb", "MB", peak_rss_mb(), "process peak RSS");
    const double failed_pct =
        pct_of(static_cast<double>(checks->failed),
               static_cast<double>(checks->attempted));
    out->print_only("failed_runs_pct", "%", failed_pct,
                    strprintf("%llu of %llu runs and checks",
                              static_cast<unsigned long long>(checks->failed),
                              static_cast<unsigned long long>(
                                  checks->attempted)));
    out->add("checks_passed_pct", "%", 100.0 - failed_pct,
             "runs and checks that passed");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse_args(argc, argv);
    const std::uint32_t nproc = host_cpus();

    Checks checks;
    std::vector<Metric> all;
    for (const std::string &name : o.workloads) {
        Scenario sc;
        make_scenario(name, o.seed, nproc, &sc);
        const std::string manifest = manifest_json(o, sc);
        std::printf("# %s\n", manifest.c_str());
        std::printf("[%s] why: %s\n", sc.name.c_str(), sc.why.c_str());
        std::printf("[%s] src/control is not exercised by any workload\n",
                    sc.name.c_str());
        MetricSet ms(sc.name);
        Checks wl_checks;
        if (o.trace)
            measure_layers(sc, o.seconds, o.out_dir, manifest, &wl_checks,
                           &ms);
        else
            measure_end_to_end(o, sc, &wl_checks, &ms);
        checks.attempted += wl_checks.attempted;
        checks.failed += wl_checks.failed;
        for (const Metric &m : ms.metrics()) {
            checks.expect(std::isfinite(m.value),
                          sc.name + ": " + m.name + " is not finite");
            Metric q = m;
            if (o.workloads.size() > 1)
                q.name = sc.name + "." + m.name;
            all.push_back(q);
        }
    }

    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        checks.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(checks.attempted),
        static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < all.size(); ++i)
        json += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", json_escape(all[i].name).c_str(),
                          std::isfinite(all[i].value) ? all[i].value : 0.0,
                          json_escape(all[i].unit).c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
