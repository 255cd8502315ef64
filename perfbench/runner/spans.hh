/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call from the benchmark into a layer of the
 * library: name, start, end (host steady-clock ns since the recorder
 * was created), the span that was open when it started, and the
 * workload it belongs to. Spans stay in memory and are written as
 * JSON Lines when the run ends, so recording costs two clock reads
 * and one vector append.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
    std::string name;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    double start_ns = 0;
    double end_ns = 0;

    double dur_ns() const { return end_ns - start_ns; }
};

/** Per-name aggregate of the recorded spans. */
struct SpanSummary {
    std::size_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  ///< total minus the time child spans cover
};

class SpanRecorder {
  public:
    explicit SpanRecorder(std::string workload);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span nested in the innermost open one; returns its index. */
    std::size_t open(const std::string &name);

    /** Close span @p idx, which must be the innermost open span. */
    void close(std::size_t idx);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: duration minus its children's. */
    std::vector<double> self_ns() const;

    /** Count, total and self time per span name. */
    std::map<std::string, SpanSummary> summarize() const;

    /**
     * Write one JSON object per span (after @p header_line, which is
     * written verbatim). @return false on I/O error.
     */
    bool write_jsonl(const std::string &path,
                     const std::string &header_line) const;

  private:
    std::string workload_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/**
 * RAII span: opens on construction and closes on destruction. A null
 * recorder makes it a no-op, so untraced runs share the code path.
 */
class SpanScope {
  public:
    SpanScope(SpanRecorder *rec, const std::string &name)
        : rec_(rec), idx_(rec ? rec->open(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    std::size_t idx_;
};

/** Run @p fn inside span @p name and return its wall time in seconds. */
template <typename F>
double
timed(SpanRecorder *rec, const std::string &name, F &&fn)
{
    SpanScope scope(rec, name);
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
