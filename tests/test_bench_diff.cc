/**
 * @file
 * Bench-regression gating tests: the flat JSON-line parser, column
 * direction classification, artifact loading, and directory diffing
 * (pass, regression, improvement, missing bench, malformed input).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "src/common/parse.hh"
#include "src/telemetry/bench_diff.hh"

namespace pmill {
namespace {

/**
 * Scratch dir under the test cwd (the build tree, always writable).
 * The path embeds the running test's name: ctest -j runs each TEST in
 * its own process but in the same cwd, so dirs must not be shared.
 */
class ScratchDir {
  public:
    explicit ScratchDir(const std::string &name)
        : path_(std::string("bench_diff_scratch_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }

    const std::string &path() const { return path_; }

    void
    write(const std::string &file, const std::string &content) const
    {
        std::ofstream out(path_ + "/" + file);
        out << content;
    }

  private:
    std::string path_;
};

const char kGoldenTable[] =
    "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
    "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\",\"p99(us)\"]}\n"
    "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.5,"
    "\"p99(us)\":3.0}\n"
    "{\"type\":\"row\",\"Offered(Gbps)\":100,\"Thr(Gbps)\":82.0,"
    "\"p99(us)\":9.5}\n";

TEST(BenchDiffParser, FlatObjects)
{
    std::map<std::string, std::string> o;
    ASSERT_TRUE(parse_json_object_line(
        "{\"a\":\"x\",\"b\":1.5,\"c\":true,\"d\":\"q\\\"u\\\\o\"}", &o));
    EXPECT_EQ(o.at("a"), "x");
    EXPECT_EQ(o.at("b"), "1.5");
    EXPECT_EQ(o.at("c"), "true");
    EXPECT_EQ(o.at("d"), "q\"u\\o");

    ASSERT_TRUE(parse_json_object_line("  { }  ", &o));
    EXPECT_TRUE(o.empty());

    ASSERT_TRUE(parse_json_object_line(
        "{\"cols\":[\"a\",\"b\"],\"n\":2}", &o));
    EXPECT_EQ(o.at("cols"), "[\"a\",\"b\"]");
    EXPECT_EQ(o.at("n"), "2");

    EXPECT_FALSE(parse_json_object_line("", &o));
    EXPECT_FALSE(parse_json_object_line("not json", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":}", &o));
    EXPECT_FALSE(parse_json_object_line("{\"a\":1", &o));
    EXPECT_FALSE(parse_json_object_line("[1,2]", &o));
}

TEST(BenchDiffClassify, DirectionFromName)
{
    EXPECT_EQ(classify_column("Thr(Gbps)"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("Throughput"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("Mpps"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("IPC"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("Copying"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("X-Change"), ColumnClass::kHigherBetter);

    EXPECT_EQ(classify_column("p99(us)"), ColumnClass::kLowerBetter);
    EXPECT_EQ(classify_column("Median lat(us)"),
              ColumnClass::kLowerBetter);
    EXPECT_EQ(classify_column("LLC misses"), ColumnClass::kLowerBetter);
    EXPECT_EQ(classify_column("Cycles/pkt"), ColumnClass::kLowerBetter);
    EXPECT_EQ(classify_column("Drops"), ColumnClass::kLowerBetter);

    // Input axes and derived ratios are never gated, even when the
    // token also names a unit ("Offered(Gbps)" is an axis, not a
    // measurement).
    EXPECT_EQ(classify_column("Offered(Gbps)"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Pkt size"), ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Freq(GHz)"), ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Improvement"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Configuration"),
              ColumnClass::kInformational);
}

TEST(BenchDiffClassify, AcctColumnsAreInformationalUnlessEqGated)
{
    // Cycle-accounting shares move with any legitimate model change;
    // they never gate on their own, even though the names carry
    // otherwise-gating tokens like "cycles" and "stall".
    EXPECT_EQ(classify_column("acct_idle_pct"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("acct_llc_stall_cycles"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("acct_el_nat_cycles"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Acct busy(%)"),
              ColumnClass::kInformational);

    // ...but the conservation invariants are hard-gated: the eq token
    // wins over acct, so ANY numeric change fails the diff.
    EXPECT_EQ(classify_column("eq_acct_sum"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_acct_residual"), ColumnClass::kExact);
}

TEST(BenchDiffClassify, SteerAndNumaColumnsAreInformational)
{
    // Steering / NUMA volumes are placement-policy outputs: a
    // rebalance that improves p99 legitimately moves every handoff
    // and remote-fill count, so they never gate on their own even
    // though the names carry "drops"/"fills"-style tokens.
    EXPECT_EQ(classify_column("steer_handoffs"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("steer_ring_drops"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("steer_stage_drops"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("numa_remote_fills"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("Numa remote(ns)"),
              ColumnClass::kInformational);

    // The eq token still wins: bit-exactness columns derived from
    // steering counters hard-gate like any other eq_ column.
    EXPECT_EQ(classify_column("eq_steer_handoffs"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_numa_remote_fills"),
              ColumnClass::kExact);
}

TEST(BenchDiffClassify, ParkColumns)
{
    // Payload-park plumbing volumes are fixed by the split point and
    // traffic mix, not quality signals — informational even though
    // "fills"/"gathers" sit next to miss-like tokens.
    EXPECT_EQ(classify_column("park_fills"), ColumnClass::kInformational);
    EXPECT_EQ(classify_column("park_gathers"),
              ColumnClass::kInformational);
    EXPECT_EQ(classify_column("park_dropped"),
              ColumnClass::kInformational);

    // The eq token still wins: the payload_parking bench's gated
    // columns hard-gate bit-for-bit.
    EXPECT_EQ(classify_column("eq_park_frames"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_park_llc_miss"), ColumnClass::kExact);

    // "Parking" as a model-named throughput column (fig05a's fourth
    // model) gates higher-better like its siblings.
    EXPECT_EQ(classify_column("Parking"), ColumnClass::kHigherBetter);
    EXPECT_EQ(classify_column("Parking(Gbps)"),
              ColumnClass::kHigherBetter);
}

TEST(BenchDiffClassify, HostParallelColumns)
{
    // The host_parallel bench reports wall-clock scaling next to
    // simulated-equivalence columns. The thread axis and the derived
    // speedup ratio never gate; raw wall-clock cells are kHostWall
    // (informational unless a host threshold is explicitly armed —
    // shared runners and 1-CPU containers make them meaningless as a
    // default gate); only the eq_ columns are exact-gated.
    EXPECT_EQ(classify_column("Threads"), ColumnClass::kInformational);
    EXPECT_EQ(classify_column("speedup"), ColumnClass::kInformational);
    EXPECT_EQ(classify_column("wall_ms"), ColumnClass::kHostWall);
    EXPECT_EQ(classify_column("host_Mpps"), ColumnClass::kHostWall);
    EXPECT_EQ(classify_column("eq_frames"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_p99_us"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_llc_misses"), ColumnClass::kExact);
    EXPECT_EQ(classify_column("eq_drops"), ColumnClass::kExact);
}

TEST(BenchDiffDirs, HostParallelWallMovesFreelyEqGatesExactly)
{
    const char kBase[] =
        "{\"type\":\"meta\",\"bench\":\"host_parallel\","
        "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
        "\"speedup\",\"eq_frames\"]}\n"
        "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":900.0,"
        "\"speedup\":1.0,\"eq_frames\":12345}\n"
        "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":260.0,"
        "\"speedup\":3.46,\"eq_frames\":12345}\n";

    // Wall-clock 3x slower, speedup collapsed: still ok, those are
    // host-side measurements on an arbitrary runner.
    ScratchDir base("base"), cur("cur");
    base.write("host_parallel.json", kBase);
    cur.write("host_parallel.json",
              "{\"type\":\"meta\",\"bench\":\"host_parallel\","
              "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
              "\"speedup\",\"eq_frames\"]}\n"
              "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":2700.0,"
              "\"speedup\":1.0,\"eq_frames\":12345}\n"
              "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":2650.0,"
              "\"speedup\":1.02,\"eq_frames\":12345}\n");
    EXPECT_TRUE(diff_bench_dirs(base.path(), cur.path(), 5.0).ok());

    // One frame of drift in an eq_ column fails the gate outright.
    cur.write("host_parallel.json",
              "{\"type\":\"meta\",\"bench\":\"host_parallel\","
              "\"title\":\"H\",\"columns\":[\"Threads\",\"wall_ms\","
              "\"speedup\",\"eq_frames\"]}\n"
              "{\"type\":\"row\",\"Threads\":1,\"wall_ms\":900.0,"
              "\"speedup\":1.0,\"eq_frames\":12345}\n"
              "{\"type\":\"row\",\"Threads\":4,\"wall_ms\":260.0,"
              "\"speedup\":3.46,\"eq_frames\":12346}\n");
    const BenchDiffResult res =
        diff_bench_dirs(base.path(), cur.path(), 5.0);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.num_regressions, 1u);
}

TEST(BenchDiffLoad, TableRoundTrip)
{
    ScratchDir dir("load");
    dir.write("t.json", kGoldenTable);

    BenchTable tab;
    std::string err;
    ASSERT_TRUE(load_bench_table(dir.path() + "/t.json", &tab, &err))
        << err;
    EXPECT_EQ(tab.bench, "t");
    EXPECT_EQ(tab.title, "T");
    ASSERT_EQ(tab.columns.size(), 3u);
    EXPECT_EQ(tab.columns[1], "Thr(Gbps)");
    ASSERT_EQ(tab.rows.size(), 2u);
    EXPECT_EQ(tab.rows[1].at("Thr(Gbps)"), "82.0");

    EXPECT_FALSE(load_bench_table(dir.path() + "/nope.json", &tab, &err));
    dir.write("bad.json", "{\"type\":\"row\"}\n");
    EXPECT_FALSE(load_bench_table(dir.path() + "/bad.json", &tab, &err))
        << "a table without a meta line is malformed";
}

TEST(BenchDiffDirs, PassWithinThreshold)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    // Thr +2%, p99 +3%: inside a 5% gate.
    cur.write("t.json",
              "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
              "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\","
              "\"p99(us)\"]}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.9,"
              "\"p99(us)\":3.05}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":100,"
              "\"Thr(Gbps)\":83.5,\"p99(us)\":9.7}\n");

    const BenchDiffResult res =
        diff_bench_dirs(base.path(), cur.path(), 5.0);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.num_regressions, 0u);
    // 2 rows x 2 gated columns; the Offered axis is not compared.
    EXPECT_EQ(res.deltas.size(), 4u);
}

TEST(BenchDiffDirs, DirectionalGating)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    // Row 0: throughput collapsed (regression). Row 1: p99 doubled
    // (regression) while throughput improved (not a regression).
    cur.write("t.json",
              "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
              "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\","
              "\"p99(us)\"]}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":40.0,"
              "\"p99(us)\":3.0}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":100,"
              "\"Thr(Gbps)\":95.0,\"p99(us)\":19.0}\n");

    const BenchDiffResult res =
        diff_bench_dirs(base.path(), cur.path(), 5.0);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.num_regressions, 2u);
    for (const auto &d : res.deltas) {
        if (d.regression) {
            EXPECT_TRUE((d.column == "Thr(Gbps)" && d.row == 0) ||
                        (d.column == "p99(us)" && d.row == 1))
                << d.column << " row " << d.row;
        }
    }
    const std::string report = res.to_string();
    EXPECT_NE(report.find("REGRESSION"), std::string::npos);
}

TEST(BenchDiffDirs, MissingAndMalformedFailTheGate)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    // Current run produced no artifact at all.
    BenchDiffResult res = diff_bench_dirs(base.path(), cur.path(), 5.0);
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.missing.size(), 1u);
    EXPECT_EQ(res.missing[0], "t");

    // Row-count mismatch is an error, not a silent partial diff.
    cur.write("t.json",
              "{\"type\":\"meta\",\"bench\":\"t\",\"title\":\"T\","
              "\"columns\":[\"Offered(Gbps)\",\"Thr(Gbps)\","
              "\"p99(us)\"]}\n"
              "{\"type\":\"row\",\"Offered(Gbps)\":50,\"Thr(Gbps)\":49.5,"
              "\"p99(us)\":3.0}\n");
    res = diff_bench_dirs(base.path(), cur.path(), 5.0);
    EXPECT_FALSE(res.ok());
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_NE(res.errors[0].find("row count"), std::string::npos);
}

TEST(BenchDiffDirs, IdenticalDirsAlwaysPass)
{
    ScratchDir base("base"), cur("cur");
    base.write("t.json", kGoldenTable);
    cur.write("t.json", kGoldenTable);
    const BenchDiffResult res =
        diff_bench_dirs(base.path(), cur.path(), 0.0001);
    EXPECT_TRUE(res.ok()) << res.to_string(true);
}

} // namespace
} // namespace pmill
