/**
 * @file
 * pmill_bench_diff: CI gate comparing two bench-artifact directories.
 *
 * Usage:
 *   pmill_bench_diff <baseline_dir> <current_dir>
 *                    [--threshold PCT] [--host-threshold PCT] [--verbose]
 *
 * Exits 0 when every tracked metric (throughput-like up, latency-like
 * down, "eq" columns unchanged bit-for-bit) of every baseline artifact
 * is within the threshold; exits 1 on any regression, missing bench,
 * or malformed artifact. Wall-clock ("wall"/"host") columns are
 * informational unless --host-threshold arms a wide gate for them —
 * shared CI runners make tight wall-clock gates flaky.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/parse.hh"
#include "src/telemetry/bench_diff.hh"

int
main(int argc, char **argv)
{
    double threshold = 5.0;
    double host_threshold = -1.0;  // informational by default
    bool verbose = false, help = false;
    pmill::FlagTable flags("pmill_bench_diff",
                           "<baseline_dir> <current_dir>");
    flags
        .real("--threshold", "PCT", &threshold, pmill::kMinPositive,
              1000.0, "a percentage in (0, 1000]")
        .real("--host-threshold", "PCT", &host_threshold, 0.0, 1000.0,
              "a percentage in [0, 1000]")
        .on("--verbose", &verbose)
        .on("-v", &verbose)
        .on("--help", &help)
        .on("-h", &help);
    const std::vector<std::string> pos = flags.parse_or_exit(argc, argv);
    if (help) {
        std::fputs(flags.usage().c_str(), stderr);
        return 0;
    }
    if (pos.size() != 2)
        flags.fail("expected a baseline and a current directory");
    const std::string &base_dir = pos[0], &cur_dir = pos[1];

    const pmill::BenchDiffResult res =
        pmill::diff_bench_dirs(base_dir, cur_dir, threshold, host_threshold);
    std::fputs(res.to_string(verbose).c_str(), stdout);
    if (res.ok()) {
        std::printf("PASS\n");
        return 0;
    }
    std::printf("FAIL\n");
    return 1;
}
