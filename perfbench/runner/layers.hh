/**
 * @file
 * The traced run: per-layer metrics of one workload.
 *
 * Layers are the library's src/ modules. Each is measured from
 * outside: host time by timing the benchmark's own calls into the
 * layer's public functions (each call is a span), simulated cost by
 * reading the counters the library already exposes (the cycle ledger,
 * element and NIC statistics, the sampled timeline, flow-table
 * statistics, the event tracer's tail attribution).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>

#include "runner/report.hh"
#include "runner/scenario.hh"

namespace perfbench {

/**
 * Run rounds of layer calls on @p sc for @p seconds (at least two
 * rounds), add every per-layer metric to @p out and write the span
 * file into @p out_dir, headed by @p manifest.
 */
void measure_layers(const Scenario &sc, double seconds,
                    const std::string &out_dir, const std::string &manifest,
                    Checks *checks, MetricSet *out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
