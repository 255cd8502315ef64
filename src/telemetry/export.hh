/**
 * @file
 * Machine-readable exporters for the telemetry subsystem: JSON Lines
 * and CSV for the sampled Timeline, plus the shared row primitives
 * (JSON string escaping, CSV quoting) used by the bench artifact
 * writer. Human-readable output stays on common/table_printer.
 */

#ifndef PMILL_TELEMETRY_EXPORT_HH
#define PMILL_TELEMETRY_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "src/telemetry/sampler.hh"

namespace pmill {

class TablePrinter;

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string json_escape(const std::string &s);

/** Format @p v as a JSON number (finite; NaN/inf degrade to 0). */
std::string json_number(double v);

/**
 * @p s rendered as a JSON value: bare when read_double() accepts it
 * (a finite JSON number such as "12.3" or "-4e5"), an escaped string
 * literal otherwise ("inf", "1.2x", "85%", "").
 */
std::string json_cell(const std::string &s);

/** Write one CSV record (RFC-4180 quoting) terminated by '\n'. */
void write_csv_record(std::ostream &os,
                      const std::vector<std::string> &cells);

/**
 * Write the timeline as JSON Lines: one
 * `{"type":"sample","t_us":...,"dt_us":...,<column>:<value>,...}`
 * object per sampled interval.
 */
void export_jsonl(const Timeline &tl, std::ostream &os);

/** Write the timeline as CSV (`t_us,dt_us,<columns...>` header). */
void export_csv(const Timeline &tl, std::ostream &os);

/**
 * Render the timeline into @p t (header + one row per interval,
 * values restricted to @p columns when non-empty) for the human
 * table printer.
 */
void timeline_to_table(const Timeline &tl, TablePrinter &t,
                       const std::vector<std::string> &columns = {});

} // namespace pmill

#endif // PMILL_TELEMETRY_EXPORT_HH
