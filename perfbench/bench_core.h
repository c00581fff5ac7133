/**
 * @file
 * Helpers of the smtflex end-to-end benchmark: order statistics, the
 * in-memory span tracer, the output checks, result digests, child
 * process control and the result line. The harness (harness.cpp) and the
 * self-tests (tests/selftest.cpp) share them.
 */

#ifndef PERFBENCH_BENCH_CORE_H
#define PERFBENCH_BENCH_CORE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "sim/chip_sim.h"
#include "study/result_cache.h"

namespace perfbench {

// ---- order statistics ----

/** Median of @p values (mean of the middle pair for even counts). */
double median(std::vector<double> values);

/**
 * First, second and third quartile, computed exactly as Python's
 * `statistics.quantiles(values, n=4)` (the default "exclusive" method).
 * Needs at least two values.
 */
std::array<double, 3> quartiles(std::vector<double> values);

/** The tail of a latency sample: the highest percentile with at least
 * ten samples beyond it. */
struct Tail
{
    double value = 0.0;
    /** Nearest-rank percentile of @ref value (100 when the sample is too
     * small to have a tail and the maximum is reported instead). */
    double percentile = 0.0;
    /** Samples strictly beyond @ref value (10, or 0 for the maximum). */
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

/** The tail of @p values; with fewer than 11 samples no percentile has
 * ten samples beyond it and the maximum is reported. Needs one value. */
Tail tailOf(std::vector<double> values);

// ---- tracing ----

using Clock = std::chrono::steady_clock;

/** Seconds since a process-wide epoch (the first call). */
double nowSeconds();

/** One traced layer call. Times are nowSeconds() readings. */
struct Span
{
    std::uint64_t id = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t parent = 0; ///< 0 = root
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its child spans cover (overlapping children count once).
 * @return self seconds, indexed like @p spans.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Keeps spans in memory while the benchmark runs. Off by default; when
 * off, begin()/end() cost one branch. Each thread has its own open-span
 * stack, so spans begun on a thread nest under that thread's open span.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span named @p name under this thread's innermost open
     * span; 0 when tracing is off. */
    std::uint64_t begin(const std::string &name);
    void end(std::uint64_t id);

    std::vector<Span> spans() const;
    void clear();

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t nextId_ = 1;
};

/** RAII span around one layer call. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                           : 0)
    {
    }
    ~ScopedSpan()
    {
        if (id_ != 0)
            Tracer::instance().end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::uint64_t id_;
};

/** Sum of self time per layer: the span name up to its first '.'. */
std::map<std::string, double> layerSelfTimes(const std::vector<Span> &spans);

/** Durations of every span named @p name. */
std::vector<double> spanDurations(const std::vector<Span> &spans,
                                  const std::string &name);

// ---- output checks ----

using Record = std::pair<std::string, std::vector<double>>;

/**
 * Compare freshly computed records with @p reference, value for value.
 * A record absent from the reference, or with any differing value,
 * is a mismatch; its key is appended to @p mismatches.
 * @return number of mismatching records.
 */
std::size_t checkRecords(const std::vector<Record> &computed,
                         const smtflex::ResultCache &reference,
                         std::vector<std::string> *mismatches = nullptr);

/** Whether @p reply is a successful response whose `output` text is
 * byte-identical to @p expected. */
bool responseMatches(const smtflex::serve::Json &reply,
                     const std::string &expected);

/** 64-bit digest of everything a SimResult reports: its metric snapshot
 * and every thread's measured window. */
std::uint64_t resultDigest(const smtflex::SimResult &result);

// ---- child processes ----

/**
 * A server process started from the smtflex binary. The constructor
 * returns once the process printed its "listening on HOST:PORT" line;
 * stop() asks it to drain (SIGINT) and reaps it; the destructor kills
 * and reaps a process still running, so every exit path reaps. Children
 * also die with the harness (parent-death signal).
 */
class ServerProcess
{
  public:
    ServerProcess(const std::vector<std::string> &argv,
                  const std::vector<std::string> &extra_env,
                  const std::string &log_path);
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    std::uint16_t port() const { return port_; }

    /** SIGINT, wait (killing after a timeout); @return exit status 0. */
    bool stop();

    /** Peak resident set in MB and CPU seconds (valid after stop()). */
    double peakRssMb() const { return peakRssMb_; }
    double cpuSeconds() const { return cpuSeconds_; }

  private:
    void reap(bool force);

    int pid_ = -1;
    int stdoutFd_ = -1;
    std::uint16_t port_ = 0;
    bool exitedOk_ = false;
    double peakRssMb_ = 0.0;
    double cpuSeconds_ = 0.0;
};

/** Send @p request on a fresh connection to 127.0.0.1:@p port. */
smtflex::serve::Json callOnce(std::uint16_t port,
                              const smtflex::serve::Json &request);

/** Block until a ping on 127.0.0.1:@p port is answered. */
void waitForPing(std::uint16_t port);

/** This process's peak resident set in MB since the last
 * resetSelfPeakRss() (since it started when never reset). */
double selfPeakRssMb();
/** Restart the peak resident set at the current one. */
void resetSelfPeakRss();
/** This process's CPU seconds. */
double selfCpuSeconds();

// ---- the result line ----

/** Metrics and context the harness reports for one run. */
class Report
{
  public:
    /** Record metric @p name; throws when @p value is not finite. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    void context(const std::string &key, const std::string &value);
    void context(const std::string &key, double value);
    /** A line of human-readable output, printed before the result. */
    void line(const std::string &text);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The JSON document the harness prints as its last line:
     * attempted, failed, metrics ({name: {value, unit}}), context and
     * lines. */
    std::string json() const;

  private:
    smtflex::serve::Json metrics_ = smtflex::serve::Json::object();
    smtflex::serve::Json context_ = smtflex::serve::Json::object();
    smtflex::serve::Json lines_ = smtflex::serve::Json::array();
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_H
