/**
 * @file
 * pmill_explain: render a ranked bottleneck report from a run's
 * cycle-accounting JSONL.
 *
 * Usage:
 *   pmill_explain <stats.jsonl> [--top N]
 *   pmill_explain -            # read stdin
 *
 * The input is any JSONL stream containing the `{"type":"acct"}` /
 * `{"type":"acct_check"}` lines that `pmill_run --stats-json` (or any
 * caller of acct_write_jsonl) emits; all other line types are skipped,
 * so pointing it at the full stats file Just Works. Exits 0 on a
 * rendered report, 1 when the stream has no accounting lines (e.g. a
 * -DPMILL_ACCT=OFF build) or a malformed line or value, 2 on usage/IO
 * errors.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/accounting/acct_report.hh"
#include "src/common/parse.hh"

int
main(int argc, char **argv)
{
    std::uint32_t top_n = 5;
    bool help = false;
    pmill::FlagTable flags("pmill_explain", "<stats.jsonl | ->");
    flags.u32("--top", "N", &top_n, 1, 1000, "a row count in [1, 1000]")
        .on("--help", &help)
        .on("-h", &help);
    const std::vector<std::string> pos = flags.parse_or_exit(argc, argv);
    if (help) {
        std::fputs(flags.usage().c_str(), stderr);
        return 0;
    }
    if (pos.size() != 1)
        flags.fail("expected one input file");
    const std::string &path = pos[0];

    pmill::AcctReport report;
    std::string err;
    bool ok = false;
    if (path == "-") {
        ok = pmill::acct_report_from_jsonl(std::cin, &report, &err);
    } else {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "pmill_explain: cannot open %s\n",
                         path.c_str());
            return 2;
        }
        ok = pmill::acct_report_from_jsonl(in, &report, &err);
    }
    if (!ok) {
        std::fprintf(stderr, "pmill_explain: %s\n", err.c_str());
        return 1;
    }

    std::ostringstream os;
    pmill::acct_render_report(report, os, top_n);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
