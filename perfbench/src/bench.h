/**
 * @file
 * Shared plumbing of the gpuperf benchmark: command line, clocks,
 * percentiles, the result report (human lines plus the final JSON
 * line), the in-memory span tracer of the traced run, response
 * digests and the per-run scratch directory.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Parse the CLI; returns false (after printing usage) on bad input. */
bool parseArgs(int argc, char **argv, Args *args);

/** Hardware threads (at least 1). */
int hwThreads();

/** Nearest-rank percentile, p in [0, 1] (0 on an empty sample). */
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/**
 * The highest of p99/p90/p50 that has at least ten samples beyond
 * it, as {label, value}; {"", 0} when even p50 is not supported.
 */
std::pair<std::string, double> supportedTail(
    const std::vector<double> &samples);

/** getrusage max RSS of this process, MiB. */
double peakRssMb();

/** FNV-1a over the binary encoding of @p resp, chained from @p h. */
uint64_t digestResponse(const gpuperf::api::AnalysisResponse &resp,
                        uint64_t h);
std::string hex64(uint64_t v);

/**
 * The run's result: human-readable notes go to stdout as they come;
 * metrics and the correctness tally form the final JSON line.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** One human-readable "name = value" line on stdout. */
    void note(const std::string &name, const std::string &value);
    void note(const std::string &name, double value,
              const std::string &unit = "");
    /** Count @p n attempted operations, @p failed of them failing. */
    void tally(uint64_t n, uint64_t failed);
    /** A correctness failure (mismatch, error); printed at once. */
    void fail(const std::string &why);

    bool correct() const { return correct_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    /** The final JSON line. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * In-memory span recorder of the traced run (single-threaded): name,
 * start, end, parent and request id per span, written out as JSON
 * lines at the end. Disabled, begin()/end() cost one branch, which is
 * how the same piecewise pass runs untraced to measure the overhead.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        double start = 0.0; ///< seconds since the tracer's epoch
        double end = 0.0;
        int parent = -1;    ///< index into spans(), -1 = root
        uint64_t request = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }
    void setRequest(uint64_t id) { request_ = id; }

    int begin(const char *name);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(const char *name) const;
    /** Sum of durations of spans named @p name. */
    double total(const char *name) const;
    /** Per request: own duration minus its direct children's. */
    std::vector<double> selfTimes(const char *name) const;

    /** Write the spans as JSON lines; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    uint64_t request_ = 0;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: begin in the constructor, end in the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.begin(name))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * The run's scratch directory under .bench_build/perfbench/work
 * (relative to the checkout root the benchmark runs from), created
 * empty and removed on destruction.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }
    /** A fresh, empty subdirectory path (created). */
    std::string fresh(const std::string &name);

  private:
    std::string path_;
};

/** How many set-ups a run performs for the setup_s median. */
constexpr int kSetupRepeats = 9;
/** How many of them run before the timed phase. */
constexpr int kSetupsBefore = 5;

/**
 * setup_s: the median wall time of kSetupRepeats set-ups, each called
 * with its index. Machine speed on a shared host drifts over tens of
 * seconds, so the set-ups are split between the two ends of the run:
 * before() runs the first kSetupsBefore (the last of which serves the
 * timed phase), after() the rest once the timed phase is over.
 */
class SetupTimer
{
  public:
    template <typename Setup> void before(Setup setup)
    {
        repeat(0, kSetupsBefore, setup);
    }
    template <typename Setup> void after(Setup setup)
    {
        repeat(kSetupsBefore, kSetupRepeats, setup);
    }
    double seconds() const { return median(times_); }

  private:
    template <typename Setup> void repeat(int from, int to, Setup setup)
    {
        for (int i = from; i < to; ++i) {
            const auto t0 = Clock::now();
            setup(i);
            times_.push_back(secondsSince(t0));
        }
    }

    std::vector<double> times_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
