#include "runner/spans.hh"

#include <fstream>

#include "src/common/log.hh"
#include "src/telemetry/export.hh"

namespace perfbench {

namespace {

double
ns_since(Clock::time_point epoch)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - epoch)
        .count();
}

} // namespace

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now())
{
    spans_.reserve(4096);
}

std::size_t
SpanRecorder::open(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    s.start_ns = ns_since(epoch_);
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(std::size_t idx)
{
    PMILL_ASSERT(!open_.empty() && open_.back() == idx,
                 "span %zu closed out of order", idx);
    spans_[idx].end_ns = ns_since(epoch_);
    open_.pop_back();
}

std::vector<double>
SpanRecorder::self_ns() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].dur_ns();
    // Children nest strictly inside their parent, so subtracting each
    // child's duration leaves the parent's uncovered time.
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.dur_ns();
    return self;
}

std::map<std::string, SpanSummary>
SpanRecorder::summarize() const
{
    const std::vector<double> self = self_ns();
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SpanSummary &sum = out[spans_[i].name];
        ++sum.count;
        sum.total_ns += spans_[i].dur_ns();
        sum.self_ns += self[i];
    }
    return out;
}

bool
SpanRecorder::write_jsonl(const std::string &path,
                          const std::string &header_line) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << header_line << '\n';
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"type\":\"span\",\"id\":" << i
           << ",\"parent\":" << s.parent << ",\"name\":\""
           << pmill::json_escape(s.name) << "\",\"workload\":\""
           << pmill::json_escape(workload_)
           << "\",\"start_ns\":" << pmill::json_number(s.start_ns)
           << ",\"end_ns\":" << pmill::json_number(s.end_ns)
           << ",\"self_ns\":" << pmill::json_number(self[i]) << "}\n";
    }
    return static_cast<bool>(os.flush());
}

} // namespace perfbench
