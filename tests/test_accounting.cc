/**
 * @file
 * Cycle-accounting tests: the ledger's conservation-by-construction
 * arithmetic, AcctScope nesting, the engine's end-of-run breakdown
 * (both invariants on a real run), and the report module's JSONL
 * round trip and renderer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/accounting/acct_report.hh"
#include "src/accounting/cycle_account.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

#define SKIP_IF_COMPILED_OUT()                                             \
    do {                                                                   \
        if (!CycleAccount::kCompiledIn)                                    \
            GTEST_SKIP() << "built with PMILL_ACCT=OFF";                   \
    } while (0)

TEST(CycleAccount, ChargeConservesByConstruction)
{
    SKIP_IF_COMPILED_OUT();
    CycleAccount acct;
    // Fractional cycles stress the fixed-point rounding: the SAME
    // rounded integer must land in the bucket and the total.
    acct.charge(kAcctFramework, kAcctCompute, 1.0 / 3.0);
    acct.charge(kAcctDriverRx, kAcctAccess, 12.345678901);
    acct.charge(kAcctElementBase + 2, kAcctDramStall, 1e7 + 0.1);
    acct.charge(kAcctIdle, kAcctCompute, 0.0);
    EXPECT_EQ(acct.sum_minus_total(), 0);

    const CycleAccount::Fixed expect =
        CycleAccount::to_fixed(1.0 / 3.0) +
        CycleAccount::to_fixed(12.345678901) +
        CycleAccount::to_fixed(1e7 + 0.1);
    EXPECT_EQ(acct.total_fixed(), expect);
    EXPECT_EQ(acct.snapshot().sum_minus_total(), 0);
}

TEST(CycleAccount, SnapshotDeltaAndTotals)
{
    SKIP_IF_COMPILED_OUT();
    CycleAccount acct;
    acct.charge(kAcctMempool, kAcctAccess, 5.0);
    const CycleAccount::Snapshot base = acct.snapshot();

    acct.charge(kAcctMempool, kAcctAccess, 7.0);
    acct.charge(kAcctMempool, kAcctTlbStall, 2.0);
    acct.charge(kAcctMetadata, kAcctAccess, 11.0);

    const CycleAccount::Snapshot d = acct.snapshot().delta_since(base);
    EXPECT_EQ(d.bucket(kAcctMempool, kAcctAccess),
              CycleAccount::to_fixed(7.0));
    EXPECT_EQ(d.bucket(kAcctMempool, kAcctTlbStall),
              CycleAccount::to_fixed(2.0));
    EXPECT_EQ(d.scope_total(kAcctMempool), CycleAccount::to_fixed(9.0));
    EXPECT_EQ(d.component_total(kAcctAccess),
              CycleAccount::to_fixed(18.0));
    EXPECT_EQ(d.sum_minus_total(), 0);
    // Out-of-range lookups read as zero, not UB.
    EXPECT_EQ(d.bucket(999, kAcctCompute), 0);

    // The live ledger agrees with its own snapshot.
    EXPECT_EQ(acct.scope_total(kAcctMetadata),
              acct.snapshot().scope_total(kAcctMetadata));
    EXPECT_EQ(acct.component_total(kAcctAccess),
              acct.snapshot().component_total(kAcctAccess));
}

TEST(CycleAccount, ChargeNsConvertsAtFrequency)
{
    SKIP_IF_COMPILED_OUT();
    CycleAccount acct;
    acct.charge_ns(kAcctIdle, kAcctCompute, 10.0, 2.3);
    EXPECT_EQ(acct.total_fixed(), CycleAccount::to_fixed(23.0));
}

/** Sink recording nothing; only the scope tag matters. */
class ScopeProbe : public AccessSink {
  public:
    void on_access(Addr, std::uint32_t, AccessType) override {}
    void on_compute(Cycles, double) override {}
};

TEST(AcctScopeGuard, NestsAndRestores)
{
    ScopeProbe sink;
    EXPECT_EQ(sink.acct_scope(), kAcctFramework);
    {
        AcctScope rx(sink, kAcctDriverRx);
        if (CycleAccount::kCompiledIn)
            EXPECT_EQ(sink.acct_scope(), kAcctDriverRx);
        {
            // Nested retag (mempool refill inside an RX burst) must
            // land in the innermost scope and restore the outer one.
            AcctScope pool(&sink, kAcctMempool);
            if (CycleAccount::kCompiledIn)
                EXPECT_EQ(sink.acct_scope(), kAcctMempool);
        }
        if (CycleAccount::kCompiledIn)
            EXPECT_EQ(sink.acct_scope(), kAcctDriverRx);
    }
    EXPECT_EQ(sink.acct_scope(), kAcctFramework);

    // Null-tolerant: instrumented structures run un-sinked in tests.
    AcctScope none(nullptr, kAcctMempool);
}

TEST(EngineAcct, BreakdownConservesAndTiesToClock)
{
    SKIP_IF_COMPILED_OUT();
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    Engine engine(m, router_config(), opts_packetmill(), t);
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 100;
    rc.duration_us = 400;
    engine.run(rc);

    const auto &bd = engine.acct_breakdown();
    ASSERT_EQ(bd.size(), 1u);
    const auto &b = bd[0];
    // First invariant: buckets tile the total bit-exactly.
    EXPECT_EQ(b.delta.sum_minus_total(), 0);
    // Second invariant: the ledger total matches the clock advance.
    const double res = CycleAccount::cycles(b.residual);
    EXPECT_LE(std::fabs(res), 1.0 + 1e-5 * b.clock_cycles)
        << "ledger drifted " << res << " cycles from the core clock";
    EXPECT_GT(b.clock_cycles, 0.0);
    EXPECT_GT(CycleAccount::cycles(b.delta.total), 0.0);

    // Labels cover every touched scope, elements included.
    const std::vector<std::string> labels = engine.acct_scope_labels();
    EXPECT_GE(labels.size(), kAcctNumFixedScopes);
    EXPECT_LE(b.delta.num_scopes(), labels.size());

    // A loaded run must attribute real work outside the idle scope.
    const AcctReport rep = acct_report_from_engine(engine);
    ASSERT_FALSE(rep.empty());
    EXPECT_GT(rep.aggregate.busy_cycles(), 0.0);
    std::string dom;
    std::uint32_t comp = 0;
    double share = 0;
    EXPECT_TRUE(rep.dominant_busy_bucket(&dom, &comp, &share));
    EXPECT_GT(share, 0.0);
}

TEST(AcctReport, JsonlRoundTripPreservesTotals)
{
    SKIP_IF_COMPILED_OUT();
    Trace t = make_fixed_size_trace(256, 128, 16);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    engine.run(rc);

    const AcctReport rep = acct_report_from_engine(engine);
    ASSERT_FALSE(rep.empty());

    std::stringstream ss;
    // Interleave foreign lines: the parser must skip them.
    ss << "{\"type\":\"meta\",\"config\":\"x\"}\n";
    acct_write_jsonl(rep, ss);
    ss << "{\"type\":\"summary\",\"mpps\":1.5}\n";

    AcctReport back;
    std::string err;
    ASSERT_TRUE(acct_report_from_jsonl(ss, &back, &err)) << err;
    ASSERT_EQ(back.cores.size(), rep.cores.size());
    ASSERT_EQ(back.aggregate.rows.size(), rep.aggregate.rows.size());
    // Totals survive the %.10g serialization to well under a cycle.
    EXPECT_NEAR(back.aggregate.total_cycles, rep.aggregate.total_cycles,
                1e-3 * rep.aggregate.total_cycles + 1.0);
    EXPECT_EQ(back.sum_minus_total_fixed, rep.sum_minus_total_fixed);
    EXPECT_EQ(back.aggregate.rows[0].label, rep.aggregate.rows[0].label);

    std::ostringstream os;
    acct_render_report(back, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("aggregate breakdown"), std::string::npos);
    EXPECT_NE(text.find("dominant busy bucket:"), std::string::npos);
    EXPECT_NE(text.find("conservation:"), std::string::npos);
}

TEST(AcctReport, StreamWithoutAcctLinesFails)
{
    std::stringstream ss;
    ss << "{\"type\":\"meta\",\"config\":\"x\"}\n"
       << "{\"type\":\"row\",\"Thr(Gbps)\":99.0}\n";
    AcctReport rep;
    std::string err;
    EXPECT_FALSE(acct_report_from_jsonl(ss, &rep, &err));
    EXPECT_NE(err.find("acct"), std::string::npos);
}

TEST(AcctReport, MalformedInputFailsWithLineAndField)
{
    // Not skipped when accounting is compiled out: the reader is pure
    // text processing.
    const char kRow[] = "{\"type\":\"acct\",\"core\":-1,"
                        "\"scope\":\"idle\",\"element\":0,"
                        "\"total_cycles\":10}\n";
    const struct {
        std::string text;
        const char *expect;
    } cases[] = {
        {std::string(kRow) +
             "{\"type\":\"acct\",\"core\":-1,\"total_cycles\":\"oops\"}\n",
         "line 2: malformed value for 'total_cycles'"},
        {std::string(kRow) + "{\"type\":\"acct\",\"core\":\n",
         "line 2: malformed JSON"},
        {"{\"type\":\"acct\",\"core\":1000000000,\"total_cycles\":1}\n",
         "line 1: malformed value for 'core'"},
        // Cores are written in ascending order from 0: core 1 cannot
        // come before core 0.
        {std::string(kRow) +
             "{\"type\":\"acct\",\"core\":1,\"total_cycles\":1}\n",
         "line 2: malformed value for 'core'"},
        {std::string(kRow) +
             "{\"type\":\"acct_check\",\"sum_minus_total_fixed\":1.5}\n",
         "line 2: malformed value for 'sum_minus_total_fixed'"},
    };
    for (const auto &c : cases) {
        std::stringstream ss(c.text);
        AcctReport rep;
        std::string err;
        EXPECT_FALSE(acct_report_from_jsonl(ss, &rep, &err)) << c.text;
        EXPECT_EQ(err, c.expect) << c.text;
    }
}

} // namespace
} // namespace pmill
