/**
 * @file
 * Outside-in tracing and sample statistics of the repository benchmark.
 *
 * The benchmark wraps each call into a layer's public function in a
 * Scope. With a Tracer attached the scope records a span (name, start,
 * end, parent span, program or session id) in memory; spans are written
 * out once, when the run ends. Without one the scope only times, so the
 * untraced measurement path pays for two clock reads and nothing else.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** One recorded span; times are ns since the tracer's epoch. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: a root span.
    const char *name = "";    ///< A string literal.
    std::uint64_t owner = 0; ///< Program or session id.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Thread-safe in-memory span store. */
class Tracer
{
  public:
    Tracer();

    std::uint32_t begin() { return nextId_++; }
    void record(const Span &span);

    /** ns since the epoch of @p t. */
    std::int64_t sinceEpoch(Clock::time_point t) const;

    /** Snapshot of every span recorded so far, ordered by id. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON document. */
    void write(std::ostream &os) const;

  private:
    Clock::time_point epoch_;
    std::atomic<std::uint32_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Times one call; records it as a span when a tracer is attached. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::uint64_t owner = 0,
          const Scope *parent = nullptr);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Seconds since the scope opened. */
    double elapsed() const { return secondsSince(start_); }

  private:
    Tracer *tracer_;
    const char *name_;
    std::uint64_t owner_;
    std::uint32_t parent_;
    std::uint32_t id_ = 0;
    Clock::time_point start_;
};

/** Per-name totals of a span set. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalMs = 0;
    double selfMs = 0; ///< Total minus the time children cover.
};

/** Self time of every span: its duration minus the union of its
 * children's intervals, clipped to the span (children of a span may run
 * concurrently on several threads). */
std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/** True when every child span lies inside its parent's interval. */
bool childrenNested(const std::vector<Span> &spans);

std::map<std::string, SpanTotals> totalsByName(const std::vector<Span> &spans);

/** A timing's tail: the highest percentile of a fixed ladder that still
 * has at least ten samples beyond it. */
struct Tail
{
    double percentile = 0;
    double value = 0;
    std::size_t beyond = 0;
};

/** Samples of one metric. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    double median() const;
    Tail tail() const;

  private:
    std::vector<double> values_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
