/**
 * @file
 * Metric collection and the statistics the benchmark reports.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (0 for an empty vector). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Percentage change of @p a over @p b (0 when @p b is 0). */
inline double
pct_over(double a, double b)
{
    return b > 0 ? (a / b - 1.0) * 100.0 : 0.0;
}

/** Share of @p part in @p whole, in percent (0 when @p whole is 0). */
inline double
pct_of(double part, double whole)
{
    return whole > 0 ? part / whole * 100.0 : 0.0;
}

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
};

/**
 * Ordered metrics of one workload. Each metric is also printed as a
 * human line, with its sample count or the reason it does not apply.
 */
class MetricSet {
  public:
    explicit MetricSet(std::string workload) : workload_(std::move(workload))
    {
    }

    /** Record @p name and print it with @p note (e.g. "median of 12"). */
    void
    add(const std::string &name, const std::string &unit, double value,
        const std::string &note = "")
    {
        metrics_.push_back({name, unit, value});
        print_only(name, unit, value, note);
    }

    /** Print @p name like a metric without recording it. */
    void
    print_only(const std::string &name, const std::string &unit,
               double value, const std::string &note) const
    {
        std::printf("[%s] %-36s %14.6g %-6s %s\n", workload_.c_str(),
                    name.c_str(), value, unit.c_str(), note.c_str());
    }

    /**
     * Record a metric this workload cannot have as 0 and print why, so
     * every workload reports the same metric names.
     */
    void
    not_applicable(const std::string &name, const std::string &unit,
                   const std::string &why)
    {
        metrics_.push_back({name, unit, 0.0});
        std::printf("[%s] %-36s %14s %-6s n/a: %s\n", workload_.c_str(),
                    name.c_str(), "0", unit.c_str(), why.c_str());
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::string workload_;
    std::vector<Metric> metrics_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
