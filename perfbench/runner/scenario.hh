/**
 * @file
 * The benchmark's workloads and the repetition they are measured by.
 *
 * A Scenario fixes everything one workload needs — NF configuration,
 * optimization variant, simulated machine, traffic, run window — from
 * its name and the seed given on the command line. A repetition
 * builds the traffic, constructs an Engine, grinds it and runs it
 * once; the simulated results of a repetition are a pure function of
 * the scenario, so every repetition of one invocation must agree
 * bit for bit.
 */

#ifndef PERFBENCH_SCENARIO_HH
#define PERFBENCH_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/spans.hh"
#include "src/runtime/experiments.hh"

namespace perfbench {

struct Scenario {
    std::string name;
    std::string why;
    std::string config;            ///< Click configuration text
    pmill::PipelineOpts opts;
    std::string opts_name;
    pmill::MachineConfig machine;
    pmill::RunConfig rc;           ///< tracing-off measurement run
    /// Host threads of the epoch scheduler's parallel runs (0 = the
    /// workload has one simulated core). Timed repetitions use one
    /// host thread; the parallel run is checked against them and
    /// timed in the traced run.
    std::uint32_t parallel_threads = 0;
    /// Replay phases the repetitions cycle through; simulated metrics
    /// are medians over the phases (campus trace only, else 1).
    std::uint32_t phases = 1;
    bool campus = false;           ///< campus trace replay, else a spec
    std::string workload_text;     ///< canonical WorkloadSpec (if !campus)
    std::uint64_t seed = 0;
    std::string traffic_note;      ///< human description of the load

    /** FNV-1a over the config text and the traffic description. */
    std::uint64_t config_hash() const;
};

/** Names accepted by make_scenario(), in benchmark order. */
const std::vector<std::string> &scenario_names();

/**
 * Build scenario @p name for @p seed; parallel runs of the epoch
 * scheduler use at most @p host_threads threads. @return false for an
 * unknown name.
 */
bool make_scenario(const std::string &name, std::uint64_t seed,
                   std::uint32_t host_threads, Scenario *out);

/**
 * The campus trace of scenario @p sc, replayed from the frame that
 * @p phase (< sc.phases) and the seed select.
 */
pmill::Trace campus_trace(const Scenario &sc, std::uint32_t phase);

/** The parsed WorkloadSpec of a streaming (non-campus) scenario. */
pmill::WorkloadSpec workload_spec(const Scenario &sc);

/** One build + grind + run of a scenario, with host timings. */
struct Rep {
    std::unique_ptr<pmill::Engine> engine;
    pmill::RunResult result;
    double traffic_s = 0;  ///< trace build or spec parse
    double build_s = 0;    ///< Engine constructor
    double grind_s = 0;    ///< PacketMill::grind
    double run_s = 0;      ///< Engine::run

    double setup_s() const { return traffic_s + build_s + grind_s; }
};

/**
 * Execute one repetition of @p sc in replay phase @p phase with run
 * parameters @p rc, with the engine's event tracer on when @p tracing.
 * Every layer call is timed and, when @p spans is non-null, recorded
 * as a span.
 */
Rep run_rep(const Scenario &sc, const pmill::RunConfig &rc, bool tracing,
            SpanRecorder *spans, std::uint32_t phase = 0);

/** The simulated outputs that must repeat bit for bit. */
struct SimTuple {
    std::uint64_t tx_pkts = 0;
    std::uint64_t rx_drops = 0;
    double gbps = 0;
    double mpps = 0;
    double p50_us = 0;
    double p99_us = 0;
    double mean_us = 0;
    std::uint64_t llc_loads = 0;
    std::uint64_t llc_misses = 0;
    long long acct_total = 0;  ///< ledger total, fixed point, all cores

    bool operator==(const SimTuple &o) const = default;
};

SimTuple sim_tuple(const Rep &rep);

/** Frames the generator put on the wire over the whole run. */
std::uint64_t frames_offered(const Scenario &sc, pmill::Engine &engine);

/**
 * Frames offered during the measured window, from the sampled
 * timeline's per-interval NIC counters; 0 without a timeline.
 */
double window_frames_offered(const Scenario &sc,
                             const pmill::Engine &engine);

/** Sum of timeline column @p name over the measured window's rows. */
double timeline_sum(const pmill::Timeline &tl, const std::string &name);

/**
 * Counts checks and their failures; a failure is printed with what
 * it checked so the run's log says why `correct` is false.
 */
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what);
};

/**
 * Per-repetition checks: NIC conservation (frames received equal
 * frames transmitted plus dropped plus in flight, with in flight
 * bounded by the rings) and ledger conservation (bucket sum equals
 * total on every core).
 */
void check_rep(const Scenario &sc, Rep &rep, Checks *checks);

} // namespace perfbench

#endif // PERFBENCH_SCENARIO_HH
