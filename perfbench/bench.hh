/**
 * @file
 * Shared plumbing of the host-time benchmark: the run context, the
 * span recorder of traced runs, and the metric sink.
 *
 * Every number here is host time or a host-side work count: what the
 * simulator costs to run. Simulated results (cycles, makespans,
 * latencies) are never metrics; the workloads check them instead.
 */

#ifndef ASCEND_PERFBENCH_BENCH_HH
#define ASCEND_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of a non-empty sample (mean of the middle pair if even). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Mean of a non-empty sample. Throughputs are total items over total
 * seconds of a run's repetitions: host noise here comes in phases of
 * seconds, and a median jumps between phases where the mean averages
 * them.
 */
inline double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / double(v.size());
}

/**
 * Spans of a traced run: name, start, end and the enclosing span,
 * recorded from the benchmark's own code around calls into the
 * simulator's public functions. Kept in memory and written once at
 * exit. Recording happens on the calling thread only; the simulator's
 * internal fan-out runs inside the spans.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        long parent = -1; ///< index of the enclosing span, -1 = root
    };

    /** RAII span; a no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name) : log_(log)
        {
            if (log_.enabled_)
                index_ = log_.open(std::move(name));
        }
        ~Scope()
        {
            if (index_ >= 0)
                log_.close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        long index_ = -1;
    };

    explicit SpanLog(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as a JSON array to @p path. */
    void write(const std::string &path) const;

  private:
    long open(std::string name);
    void close(long index);

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<long> stack_;
};

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What one workload run produced. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check failures; empty means every check held. */
    std::vector<std::string> checkFailures;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            checkFailures.push_back(what);
    }

    /** Record a non-empty message from a checks.hh function. */
    void
    check(const std::string &failure)
    {
        if (!failure.empty())
            checkFailures.push_back(failure);
    }
};

/** Inputs of one run, from the command line. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    unsigned threads = 1;      ///< the workload's thread count
    Clock::time_point started; ///< process start (for setup_s)
    std::string outDir;        ///< scratch files (cache file, spans)
};

/**
 * Run @p fn repeatedly until @p seconds have elapsed (at least
 * @p min_reps times). Every repetition is whole: the loop checks the
 * clock only between repetitions.
 */
template <typename Fn>
unsigned
repeatFor(double seconds, unsigned min_reps, Fn &&fn)
{
    const auto start = Clock::now();
    unsigned reps = 0;
    while (reps < min_reps || secondsSince(start) < seconds) {
        fn(reps);
        ++reps;
    }
    return reps;
}

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/// @{ The four workloads (one translation unit each).
Report runZooCold(const RunContext &ctx, SpanLog &spans);
Report runDesignSweep(const RunContext &ctx, SpanLog &spans);
Report runChip4096(const RunContext &ctx, SpanLog &spans);
Report runFleet(const RunContext &ctx, SpanLog &spans);
/// @}

/**
 * Microseconds of one empty runtime::parallelFor dispatch over the
 * current pool's width, averaged over many calls.
 */
double parallelForUs();

} // namespace perfbench

#endif // ASCEND_PERFBENCH_BENCH_HH
