#include "src/telemetry/export.hh"

#include <cmath>

#include "src/common/log.hh"
#include "src/common/parse.hh"
#include "src/common/table_printer.hh"

namespace pmill {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "0";
    return strprintf("%.10g", v);
}

std::string
json_cell(const std::string &s)
{
    double v = 0;
    if (read_double(s, kMinDouble, kMaxDouble, &v))
        return s;
    return "\"" + json_escape(s) + "\"";
}

void
write_csv_record(std::ostream &os, const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &c = cells[i];
        const bool quote = c.find_first_of(",\"\n") != std::string::npos;
        if (i)
            os << ',';
        if (quote) {
            os << '"';
            for (char ch : c) {
                if (ch == '"')
                    os << '"';
                os << ch;
            }
            os << '"';
        } else {
            os << c;
        }
    }
    os << '\n';
}

void
export_jsonl(const Timeline &tl, std::ostream &os)
{
    for (const TimelineRow &r : tl.rows) {
        PMILL_ASSERT(r.values.size() == tl.columns.size(),
                     "timeline row has %zu values for %zu columns",
                     r.values.size(), tl.columns.size());
        os << "{\"type\":\"sample\",\"t_us\":" << json_number(r.t_us)
           << ",\"dt_us\":" << json_number(r.dt_us);
        if (r.partial)
            os << ",\"partial\":true";
        for (std::size_t c = 0; c < tl.columns.size(); ++c)
            os << ",\"" << json_escape(tl.columns[c])
               << "\":" << json_number(r.values[c]);
        os << "}\n";
    }
}

void
export_csv(const Timeline &tl, std::ostream &os)
{
    std::vector<std::string> header = {"t_us", "dt_us", "partial"};
    header.insert(header.end(), tl.columns.begin(), tl.columns.end());
    write_csv_record(os, header);
    for (const TimelineRow &r : tl.rows) {
        PMILL_ASSERT(r.values.size() == tl.columns.size(),
                     "timeline row has %zu values for %zu columns",
                     r.values.size(), tl.columns.size());
        std::vector<std::string> cells = {json_number(r.t_us),
                                          json_number(r.dt_us),
                                          r.partial ? "1" : "0"};
        for (double v : r.values)
            cells.push_back(json_number(v));
        write_csv_record(os, cells);
    }
}

void
timeline_to_table(const Timeline &tl, TablePrinter &t,
                  const std::vector<std::string> &columns)
{
    std::vector<int> idx;
    std::vector<std::string> header = {"t(us)"};
    if (columns.empty()) {
        for (std::size_t c = 0; c < tl.columns.size(); ++c) {
            idx.push_back(static_cast<int>(c));
            header.push_back(tl.columns[c]);
        }
    } else {
        for (const std::string &name : columns) {
            const int c = tl.column(name);
            if (c >= 0) {
                idx.push_back(c);
                header.push_back(name);
            }
        }
    }
    t.header(header);
    for (const TimelineRow &r : tl.rows) {
        std::vector<std::string> cells = {strprintf("%.0f", r.t_us)};
        for (int c : idx)
            cells.push_back(
                strprintf("%.4g", r.values[static_cast<std::size_t>(c)]));
        t.row(cells);
    }
}

} // namespace pmill
