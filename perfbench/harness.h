/**
 * @file
 * Pieces the harness's workload files share: options, the outcome of
 * operations and checks, the time-budgeted unit loop and the reporting
 * helpers.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_core.h"

namespace perfbench {

/** The study seed of the committed result cache (benchmark seed 0). */
constexpr std::uint64_t kBaseSeed = 12'345;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string runDir;
    std::string seedCache;
    std::string smtflex;
    unsigned workers = 2;
    std::string spansPath;

    std::uint64_t simSeed() const { return kBaseSeed + seed; }
};

/** The outcome of every operation and output check of a run. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    /** Peak resident set of the processes doing a unit's work: the
     * harness's own or the server processes' (summed), median over units
     * (fleet_sweep: the largest over units). */
    double peakRssMb = 0.0;

    void check(bool ok, const std::string &what);
};

double elapsedSince(double start);

/**
 * Run @p unit until @p seconds have passed and at least @p min_units
 * ran; @return each unit's wall time. Each unit is a `bench.unit` span.
 */
std::vector<double> runUnits(double seconds, std::size_t min_units,
                             const std::function<void()> &unit);

/**
 * The untraced measurement and, with --trace 1, a traced one on the
 * other half of the budget. @return the untraced unit walls; the traced
 * ones go to @p traced_walls.
 */
std::vector<double> measure(const Options &opt, std::size_t min_units,
                            const std::function<void()> &unit,
                            std::vector<double> *traced_walls);

double medianOf(const std::vector<double> &values);

/** Median over units of each op's latency in ms (ops of a fixed unit). */
std::vector<double>
perOpMedianMs(const std::vector<std::vector<double>> &per_unit);

/** The unit count and the quartiles of the unit walls, as context. */
void reportUnits(Report &report, const std::vector<double> &walls);

/** Units with fewer operations than this have their slowest operation
 * as their tail: the tail rule would land mid-distribution. */
constexpr std::size_t kTailRuleSamples = 100;

/**
 * latency_p50_ms, the median of every operation's latency, and
 * latency_tail_ms, the median over units of each unit's tail: the tail
 * rule over the unit's operations, or its slowest operation when it has
 * fewer than kTailRuleSamples. @p unit_ms holds each untraced unit's
 * operation latencies in ms. Pooled over every unit instead, the rule
 * would pick an extreme host hiccups set, or a boundary between two kinds
 * of operation that moves with the unit count.
 */
void reportLatency(Report &report,
                   const std::vector<std::vector<double>> &unit_ms,
                   const std::string &what);

/** Per-layer self times, tracing overhead, and the span file. */
void reportTracing(Report &report, const Options &opt,
                   const std::vector<double> &walls,
                   const std::vector<double> &traced_walls);

std::string fmt(const char *format, double value);

int runSweepCold(const Options &opt, Report &report, Outcome &outcome);
int runSimLong(const Options &opt, Report &report, Outcome &outcome);
int runServeMix(const Options &opt, Report &report, Outcome &outcome);
int runFleetSweep(const Options &opt, Report &report, Outcome &outcome);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
