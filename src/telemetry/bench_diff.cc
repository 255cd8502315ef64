#include "src/telemetry/bench_diff.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/common/table_printer.hh"

namespace pmill {

namespace {

/** Lower-cased alphanumeric tokens of a column name. */
std::vector<std::string>
tokens_of(const std::string &column)
{
    std::vector<std::string> toks;
    std::string cur;
    for (char c : column) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            cur += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else if (!cur.empty()) {
            toks.push_back(cur);
            cur.clear();
        }
    }
    if (!cur.empty())
        toks.push_back(cur);
    return toks;
}

bool
has_token(const std::vector<std::string> &toks,
          std::initializer_list<const char *> names)
{
    for (const std::string &t : toks)
        for (const char *n : names)
            if (t == n)
                return true;
    return false;
}

} // namespace

ColumnClass
classify_column(const std::string &column)
{
    const std::vector<std::string> toks = tokens_of(column);
    // Simulated-equivalence columns ("eq_frames", "eq_p99_us"): any
    // numeric change at all is a regression, so check before the
    // latency/throughput tokens their names also contain.
    if (has_token(toks, {"eq"}))
        return ColumnClass::kExact;
    // Host wall-clock measurements ("wall_ms", "host_Mpps"): noisy on
    // shared runners; checked before the rate tokens so host
    // throughput never gates like simulated throughput.
    if (has_token(toks, {"wall", "host"}))
        return ColumnClass::kHostWall;
    // Input axes are identical between runs by construction; exclude
    // them so a changed sweep shows up as a row mismatch, not a fake
    // throughput regression.
    if (has_token(toks, {"offered", "bytes", "size", "len", "cores",
                         "threads", "ghz", "freq", "rate",
                         "improvement", "speedup", "ratio"}))
        return ColumnClass::kInformational;
    // Cycle-accounting breakdowns ("acct_idle_pct", "acct_llc_cycles"):
    // shares shift legitimately with any modeled change, so they stay
    // informational — only the eq_acct_* conservation columns above
    // gate. Checked before the latency tokens because the names also
    // contain "cycles"/"stall".
    if (has_token(toks, {"acct"}))
        return ColumnClass::kInformational;
    // Steering and NUMA placement counters ("steer_handoffs",
    // "numa_remote_fills"): absolute volumes set by the placement
    // policy under test, not quality signals — a rebalance that helps
    // p99 legitimately moves every one of them. Checked before the
    // latency tokens because the names also contain "drops"/"fills";
    // eq_-prefixed variants still gate exactly above.
    if (has_token(toks, {"steer", "numa"}))
        return ColumnClass::kInformational;
    // Payload-park plumbing counters ("park_fills", "park_gathers"):
    // absolute volumes fixed by the split point and traffic mix, not
    // quality signals. Checked before the latency tokens so a
    // park_*_miss breakdown never gates twice; the eq_park_* variants
    // still gate exactly above, and "Parking" (the model-named
    // throughput column) is a different token that gates higher-better
    // below.
    if (has_token(toks, {"park"}))
        return ColumnClass::kInformational;
    if (has_token(toks, {"latency", "p50", "p99", "p999", "us", "ns",
                         "miss", "misses", "drop", "drops", "cycles",
                         "cpp", "stall", "stalls"}))
        return ColumnClass::kLowerBetter;
    if (has_token(toks, {"gbps", "mpps", "pps", "thr", "throughput",
                         "goodput", "ipc", "ops",
                         // Model-comparison tables (fig04/fig05) name
                         // throughput columns after the metadata model.
                         "copying", "overlaying", "xchange", "x",
                         "parking", "vanilla", "packetmill"}))
        return ColumnClass::kHigherBetter;
    return ColumnClass::kInformational;
}

bool
load_bench_table(const std::string &path, BenchTable *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open " + path;
        return false;
    }
    *out = BenchTable{};
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonObject obj;
        if (!parse_json_object_line(line, &obj)) {
            if (err)
                *err = path + ": malformed line: " + line;
            return false;
        }
        const auto type = obj.find("type");
        if (type == obj.end())
            continue;
        if (type->second == "meta") {
            out->bench = obj.count("bench") ? obj["bench"] : "";
            out->title = obj.count("title") ? obj["title"] : "";
            // Columns arrive as the raw `["a","b"]` text.
            const std::string cols =
                obj.count("columns") ? obj["columns"] : "[]";
            std::string cur;
            bool in_str = false;
            for (std::size_t i = 0; i < cols.size(); ++i) {
                const char c = cols[i];
                if (in_str) {
                    if (c == '\\' && i + 1 < cols.size())
                        cur += cols[++i];
                    else if (c == '"') {
                        out->columns.push_back(cur);
                        cur.clear();
                        in_str = false;
                    } else {
                        cur += c;
                    }
                } else if (c == '"') {
                    in_str = true;
                }
            }
        } else if (type->second == "row") {
            obj.erase("type");
            out->rows.push_back(std::move(obj));
        }
    }
    if (out->bench.empty() && err)
        *err = path + ": no meta line";
    return !out->bench.empty();
}

std::vector<std::string>
list_bench_artifacts(const std::string &dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!e.is_regular_file())
            continue;
        const std::filesystem::path p = e.path();
        if (p.extension() == ".json")
            names.push_back(p.stem().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

namespace {

/** Gated direction of a kHostWall column: true = higher is better. */
bool
host_wall_higher_better(const std::string &column)
{
    return has_token(tokens_of(column),
                     {"mpps", "kpps", "pps", "gbps", "ops", "rate",
                      "speedup"});
}

} // namespace

BenchDiffResult
diff_bench_dirs(const std::string &base_dir, const std::string &cur_dir,
                double threshold_pct, double host_threshold_pct)
{
    BenchDiffResult res;
    res.threshold_pct = threshold_pct;
    res.host_threshold_pct = host_threshold_pct;

    for (const std::string &name : list_bench_artifacts(base_dir)) {
        BenchTable base, cur;
        std::string err;
        if (!load_bench_table(base_dir + "/" + name + ".json", &base,
                              &err)) {
            res.errors.push_back(err);
            continue;
        }
        if (!std::filesystem::exists(cur_dir + "/" + name + ".json")) {
            res.missing.push_back(name);
            continue;
        }
        if (!load_bench_table(cur_dir + "/" + name + ".json", &cur,
                              &err)) {
            res.errors.push_back(err);
            continue;
        }
        if (base.rows.size() != cur.rows.size()) {
            res.errors.push_back(strprintf(
                "%s: row count changed (%zu baseline, %zu current)",
                name.c_str(), base.rows.size(), cur.rows.size()));
            continue;
        }

        for (const std::string &col : base.columns) {
            const ColumnClass cls = classify_column(col);
            if (cls == ColumnClass::kInformational)
                continue;
            for (std::size_t r = 0; r < base.rows.size(); ++r) {
                const auto bv = base.rows[r].find(col);
                const auto cv = cur.rows[r].find(col);
                if (bv == base.rows[r].end() || cv == cur.rows[r].end())
                    continue;
                BenchDiffResult::Delta d;
                if (!read_double(bv->second, kMinDouble, kMaxDouble,
                                 &d.base) ||
                    !read_double(cv->second, kMinDouble, kMaxDouble,
                                 &d.cur))
                    continue;
                d.bench = name;
                d.column = col;
                d.row = r;
                d.cls = cls;
                const double denom = std::max(std::fabs(d.base), 1e-12);
                d.pct = (d.cur - d.base) / denom * 100.0;
                switch (cls) {
                  case ColumnClass::kExact:
                    d.regression = d.cur != d.base;
                    break;
                  case ColumnClass::kHostWall:
                    d.regression =
                        host_threshold_pct >= 0 &&
                        (host_wall_higher_better(col)
                             ? d.pct < -host_threshold_pct
                             : d.pct > host_threshold_pct);
                    break;
                  case ColumnClass::kHigherBetter:
                    d.regression = d.pct < -threshold_pct;
                    break;
                  default:
                    d.regression = d.pct > threshold_pct;
                    break;
                }
                if (d.regression)
                    ++res.num_regressions;
                res.deltas.push_back(std::move(d));
            }
        }
    }
    return res;
}

std::string
BenchDiffResult::to_string(bool verbose) const
{
    std::string out = strprintf(
        "bench diff: %zu comparisons, %zu regression(s) beyond %.1f%%\n",
        deltas.size(), num_regressions, threshold_pct);
    for (const std::string &m : missing)
        out += "  MISSING: " + m + " (in baseline, not in current run)\n";
    for (const std::string &e : errors)
        out += "  ERROR: " + e + "\n";

    TablePrinter t;
    t.header({"bench", "column", "row", "baseline", "current", "change",
              "verdict"});
    // Regressions always shown; with verbose, every comparison.
    std::vector<const Delta *> shown;
    for (const Delta &d : deltas)
        if (verbose || d.regression)
            shown.push_back(&d);
    std::stable_sort(shown.begin(), shown.end(),
                     [](const Delta *a, const Delta *b) {
                         if (a->regression != b->regression)
                             return a->regression;
                         return std::fabs(a->pct) > std::fabs(b->pct);
                     });
    for (const Delta *d : shown) {
        const char *verdict = d->regression ? "REGRESSION" : "ok";
        if (d->cls == ColumnClass::kHostWall && host_threshold_pct < 0)
            verdict = "info";  // wall-clock column, gate not armed
        t.row({d->bench, d->column, strprintf("%zu", d->row),
               strprintf("%.4g", d->base), strprintf("%.4g", d->cur),
               strprintf("%+.2f%%", d->pct), verdict});
    }
    if (t.num_rows())
        out += t.to_string();
    else if (!deltas.empty())
        out += "  all tracked metrics within threshold\n";
    return out;
}

} // namespace pmill
