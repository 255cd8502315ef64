/**
 * @file
 * Robustness fuzzing: the configuration parser, frame parser,
 * pipeline builder and every other input reader must never crash on
 * malformed input — they must either succeed or fail cleanly with an
 * error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/accounting/acct_report.hh"
#include "src/common/parse.hh"
#include "src/common/random.hh"
#include "src/framework/config_parser.hh"
#include "src/framework/pipeline.hh"
#include "src/mill/profile.hh"
#include "src/net/packet_builder.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_diff.hh"
#include "src/workload/workload.hh"

namespace pmill {
namespace {

TEST(FuzzConfigParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xF022);
    const char alphabet[] =
        "abcXYZ0123 ::->[](),;/*\n\t_@#$%FromDPDKDevice";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string input;
        const std::size_t len = rng.next_below(200);
        for (std::size_t i = 0; i < len; ++i)
            input += alphabet[rng.next_below(sizeof(alphabet) - 1)];
        ParsedGraph g;
        std::string err;
        // Must not crash; result may be either.
        (void)parse_click_config(input, &g, &err);
    }
    SUCCEED();
}

/** @p base with 1-8 random printable-byte flips, erasures or inserts. */
std::string
mutate(const std::string &base, Xorshift64 &rng)
{
    std::string mutated = base;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.next_below(mutated.size());
        const char c = static_cast<char>(32 + rng.next_below(95));
        switch (mutated.empty() ? 2 : rng.next_below(3)) {
          case 0: mutated[pos] = c; break;
          case 1: mutated.erase(pos, 1); break;
          default: mutated.insert(pos, 1, c);
        }
    }
    return mutated;
}

TEST(FuzzConfigParser, MutatedValidConfigsNeverCrash)
{
    const std::string base = router_config();
    Xorshift64 rng(0xBEEF);
    for (int iter = 0; iter < 2000; ++iter) {
        ParsedGraph g;
        std::string err;
        (void)parse_click_config(mutate(base, rng), &g, &err);
    }
    SUCCEED();
}

TEST(FuzzPipelineBuild, ParsableGarbageFailsCleanly)
{
    // Configurations that parse but are semantically broken must be
    // rejected with an error message, not crash.
    const char *cases[] = {
        "a :: FromDPDKDevice(PORT 0);",              // unconnected
        "a :: Discard; b :: Discard; a -> b;",       // no source
        "a :: FromDPDKDevice(PORT 0); a -> Unknown;",
        "a :: FromDPDKDevice(BURST 0); a -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> IPLookup -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> EtherRewrite(SRC zz) "
        "-> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Napt -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Classifier() -> Discard;",
    };
    for (const char *c : cases) {
        SimMemory mem;
        std::string err;
        auto p = Pipeline::build(c, mem, PipelineOpts::vanilla(), &err);
        EXPECT_EQ(p, nullptr) << c;
        EXPECT_FALSE(err.empty()) << c;
    }
}

TEST(FuzzPipelineBuild, ValuesThatDoNotFitAreRejected)
{
    // A value the reader mangled would be folded into the milled build
    // as a constant, so it must fail the build and name its keyword.
    const std::pair<const char *, const char *> cases[] = {
        {"a :: FromDPDKDevice(PORT 0); "
         "a -> Napt(SRCIP 100.0.0.1, CAPACITY 4294967296) -> Discard;",
         "CAPACITY"},
        {"a :: FromDPDKDevice(PORT 0); "
         "a -> IdsCheck(CONNTRACK 4294967296) -> Discard;",
         "CONNTRACK"},
        {"a :: FromDPDKDevice(PORT 0); "
         "a -> Napt(SRCIP 100.0.0.1, IDLE_TIMEOUT_MS nan) -> Discard;",
         "IDLE_TIMEOUT_MS"},
        {"a :: FromDPDKDevice(PORT 0); a[99999999999] -> Discard;",
         "port selector"},
    };
    for (const auto &[config, keyword] : cases) {
        SimMemory mem;
        std::string err;
        auto p = Pipeline::build(config, mem, PipelineOpts::vanilla(), &err);
        EXPECT_EQ(p, nullptr) << config;
        EXPECT_NE(err.find(keyword), std::string::npos) << err;
    }
}

TEST(FuzzFrameParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xDEAD);
    std::vector<std::uint8_t> buf(2048);
    for (int iter = 0; iter < 5000; ++iter) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(rng.next_below(1515));
        for (std::uint32_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.next());
        (void)parse_frame(buf.data(), len);
        (void)extract_tuple(buf.data(), len);
    }
    SUCCEED();
}

TEST(FuzzFrameParser, TruncationSweepOnValidFrame)
{
    FrameSpec spec;
    spec.frame_len = 200;
    auto frame = build_frame(spec);
    for (std::uint32_t len = 0; len <= frame.size(); ++len) {
        FrameView v = parse_frame(frame.data(), len);
        // Layer pointers are only set when the layer fully fits.
        if (v.ip)
            ASSERT_GE(len, kEtherHeaderLen + kIpv4HeaderLen);
        if (v.tcp)
            ASSERT_GE(len,
                      kEtherHeaderLen + kIpv4HeaderLen + sizeof(TcpHeader));
    }
}

TEST(FuzzEngine, MalformedTrafficFlowsThroughTheRouter)
{
    // A trace of random garbage frames: the router must classify,
    // drop, or forward without crashing or leaking buffers.
    Trace t;
    Xorshift64 rng(77);
    for (int i = 0; i < 256; ++i) {
        std::vector<std::uint8_t> frame(64 + rng.next_below(1400));
        for (auto &b : frame)
            b = static_cast<std::uint8_t>(rng.next());
        t.add(frame);
    }
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 20;
    rc.warmup_us = 100;
    rc.duration_us = 300;
    RunResult r = engine.run(rc);
    // Everything is classifier-dropped or ARP-dropped; nothing crashes.
    EXPECT_GE(engine.pipeline().dropped(), 1u);
    (void)r;
}

// Mutation fuzzers for every other input reader. Each input must be
// accepted or rejected, never abort; where the reader has a writer, an
// accepted input must re-serialise and re-parse to the same value.

TEST(FuzzWorkloadSpec, MutatedSpecsRoundTripOrFail)
{
    const std::string base = "zipf:flows=1000000,skew=1.1,pkts=16,len=64,"
                             "udp=0.25,burst=8,phase=512,seed=3,"
                             "victim=20.0.0.99,vport=80";
    Xorshift64 rng(0x5EC);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        const std::string text = mutate(base, rng);
        WorkloadSpec spec;
        std::string err;
        if (!spec.parse(text, &err))
            continue;
        ++accepted;
        const std::string canon = spec.to_string();
        WorkloadSpec again;
        ASSERT_TRUE(again.parse(canon, &err)) << text << " -> " << canon;
        EXPECT_EQ(again.to_string(), canon) << text;
    }
    EXPECT_GT(accepted, 0);
}

TEST(FuzzProfile, MutatedArtifactsRoundTripOrFail)
{
    Profile p;
    p.freq_ghz = 2.3;
    p.p99_latency_us = 4.25;
    p.burst = 32;
    p.model = "Copying";
    p.dominant_element = "rt";
    ProfileElement e;
    e.name = "rt";
    e.class_name = "IPLookup";
    e.packets = 900;
    e.cycles = 9000.5;
    e.rule_hits = {5, 100, 10};
    p.elements = {e};
    p.burst_hist = {0, 3, 7};
    const std::string base = p.to_json();
    Xorshift64 rng(0x9F0);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        Profile q;
        std::string err;
        if (!Profile::parse(mutate(base, rng), &q, &err))
            continue;
        ++accepted;
        const std::string json = q.to_json();
        Profile again;
        ASSERT_TRUE(Profile::parse(json, &again, &err)) << json;
        EXPECT_EQ(again.to_json(), json);
    }
    EXPECT_GT(accepted, 0);
}

TEST(FuzzAcctReport, MutatedJsonlRoundTripsOrFails)
{
    AcctReport rep;
    for (const char *label : {"idle", "driver", "rt"}) {
        AcctBucketRow row;
        row.label = label;
        row.is_element = std::string(label) == "rt";
        row.comp[0] = 100.5;
        row.comp[kAcctNumComponents - 1] = 7;
        row.total = 107.5;
        rep.aggregate.rows.push_back(row);
    }
    rep.cores = {rep.aggregate, rep.aggregate};
    rep.sum_minus_total_fixed = -3;
    rep.clock_cycles = 322.5;
    std::stringstream base;
    acct_write_jsonl(rep, base);
    Xorshift64 rng(0xACC7);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::stringstream in(mutate(base.str(), rng));
        AcctReport back;
        std::string err;
        if (!acct_report_from_jsonl(in, &back, &err))
            continue;
        ++accepted;
        std::stringstream written;
        acct_write_jsonl(back, written);
        AcctReport again;
        ASSERT_TRUE(acct_report_from_jsonl(written, &again, &err)) << err;
        std::stringstream rewritten;
        acct_write_jsonl(again, rewritten);
        EXPECT_EQ(rewritten.str(), written.str());
    }
    EXPECT_GT(accepted, 0);
}

TEST(FuzzBenchTable, MutatedArtifactsLoadOrFail)
{
    const std::string base =
        "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
        "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\",\"p99(us)\"]}\n"
        "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.5,"
        "\"p99(us)\":\"3.0\"}\n";
    const std::string path = ::testing::TempDir() + "/fuzz_bench.json";
    Xorshift64 rng(0xBE7C);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        {
            std::ofstream out(path);
            out << mutate(base, rng);
        }
        BenchTable t;
        std::string err;
        accepted += load_bench_table(path, &t, &err);
    }
    std::remove(path.c_str());
    EXPECT_GT(accepted, 0);
}

TEST(FuzzFlagTable, RandomArgumentsParseOrFail)
{
    std::uint32_t n = 1;
    double r = 0.5;
    bool sw = false;
    std::string path;
    FlagTable t("prog", "<file>");
    t.u32("--cores", "N", &n, 1, 64, "a core count in [1, 64]")
        .real("--rate", "R", &r, 0.0, 1.0, "a fraction in [0, 1]")
        .on("--verify", &sw)
        .on("-v", &sw)
        .text("--out", "PATH", &path)
        .custom("--opt", "LEVEL", "a|b",
                [](const std::string &v) { return v == "a" || v == "b"; });
    const std::string base =
        "--cores 4 --rate=0.25 --verify -v --out x.json --opt b a.click -";
    Xorshift64 rng(0xF1A6);
    int accepted = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        // Split the mutated command line on spaces into argv.
        std::vector<std::string> words{"prog"};
        std::string cur;
        for (char c : mutate(base, rng) + " ") {
            if (c != ' ') {
                cur += c;
            } else if (!cur.empty()) {
                words.push_back(cur);
                cur.clear();
            }
        }
        std::vector<const char *> argv;
        for (const std::string &w : words)
            argv.push_back(w.c_str());
        std::vector<std::string> pos;
        std::string err;
        if (t.parse(static_cast<int>(argv.size()), argv.data(), &pos, &err)) {
            ++accepted;
            EXPECT_GE(n, 1u);
            EXPECT_LE(n, 64u);
            EXPECT_TRUE(r >= 0.0 && r <= 1.0) << r;
        } else {
            EXPECT_FALSE(err.empty());
        }
    }
    EXPECT_GT(accepted, 0);
}

} // namespace
} // namespace pmill
