/**
 * @file
 * The smtflex benchmark harness: runs one workload for a time budget,
 * checks its outputs and prints one JSON document (metrics, counts,
 * context) as its last line. perfbench/run.py builds and drives it;
 * see perfbench/README.md for the workloads and metrics.
 *
 *   perfbench_harness WORKLOAD --seed N --seconds S --trace 0|1
 *       --run-dir DIR --seed-cache FILE --smtflex BIN --workers N
 *       --spans FILE
 *
 * Every workload repeats a fixed unit of work until the budget is spent
 * and reports medians over the units. With --trace 1 the budget is split
 * between an untraced and a traced half (their difference is the tracing
 * overhead), and the layer calls of the traced half, plus replays of the
 * unit's layer inputs, are recorded as spans.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (problems.size() < 20)
            problems.push_back(what);
    }
}

double
elapsedSince(double start)
{
    return nowSeconds() - start;
}

/**
 * Run @p unit until @p seconds have passed and at least @p min_units
 * ran; @return each unit's wall time.
 */
std::vector<double>
runUnits(double seconds, std::size_t min_units,
         const std::function<void()> &unit)
{
    std::vector<double> walls;
    const double start = nowSeconds();
    while (walls.size() < min_units || elapsedSince(start) < seconds) {
        const double t0 = nowSeconds();
        {
            ScopedSpan span("bench.unit");
            unit();
        }
        walls.push_back(elapsedSince(t0));
    }
    return walls;
}

/**
 * The untraced measurement, then (when tracing) a traced one. @return
 * the untraced unit walls; the traced walls go to @p traced_walls.
 */
std::vector<double>
measure(const Options &opt, std::size_t min_units,
        const std::function<void()> &unit, std::vector<double> *traced_walls)
{
    const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    std::vector<double> walls = runUnits(budget, min_units, unit);
    if (opt.trace) {
        Tracer::instance().enable(true);
        *traced_walls = runUnits(
            budget, std::max<std::size_t>(1, min_units / 2), unit);
        Tracer::instance().enable(false);
    }
    return walls;
}

double
medianOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0 : median(values);
}

/** Median over units of each op's latency, in ms (ops in a fixed unit). */
std::vector<double>
perOpMedianMs(const std::vector<std::vector<double>> &per_unit)
{
    std::vector<double> out;
    for (std::size_t op = 0; op < per_unit.front().size(); ++op) {
        std::vector<double> samples;
        for (const auto &unit : per_unit)
            samples.push_back(unit.at(op) * 1e3);
        out.push_back(median(samples));
    }
    return out;
}

void
reportUnits(Report &report, const std::vector<double> &walls)
{
    report.context("units", static_cast<double>(walls.size()));
    if (walls.size() >= 2) {
        const auto q = quartiles(walls);
        report.context("wall_q1_s", q[0]);
        report.context("wall_q3_s", q[2]);
    }
}

void
reportLatency(Report &report,
              const std::vector<std::vector<double>> &unit_ms,
              const std::string &what)
{
    std::vector<double> all, tails;
    Tail tail;
    for (const auto &samples : unit_ms) {
        all.insert(all.end(), samples.begin(), samples.end());
        tail = tailOf(samples);
        if (samples.size() < kTailRuleSamples) {
            tail.value = *std::max_element(samples.begin(), samples.end());
            tail.percentile = 100.0;
            tail.beyond = 0;
        }
        tails.push_back(tail.value);
    }
    report.metric("latency_p50_ms", median(all), "ms");
    report.metric("latency_tail_ms", median(tails), "ms");
    report.context("latency_op", what);
    report.context("latency_unit_samples",
                   static_cast<double>(unit_ms.front().size()));
    report.context("latency_tail_percentile", tail.percentile);
    report.context("latency_tail_beyond", static_cast<double>(tail.beyond));
}

void
reportTracing(Report &report, const Options &opt,
              const std::vector<double> &walls,
              const std::vector<double> &traced_walls)
{
    const std::vector<Span> spans = Tracer::instance().spans();
    const auto layers = layerSelfTimes(spans);
    for (const char *layer :
         {"bench", "trace", "sim", "study", "serve", "dist"}) {
        const auto it = layers.find(layer);
        report.metric(std::string(layer) + ".self_s",
                      it == layers.end() ? 0.0 : it->second, "s");
    }
    report.metric("bench.tracing_overhead_s",
                  medianOf(traced_walls) - medianOf(walls), "s");
    report.context("spans", static_cast<double>(spans.size()));
    if (!opt.spansPath.empty())
        Tracer::instance().write(opt.spansPath);
}

std::string
fmt(const char *format, double value)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    Options opt;
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_harness WORKLOAD [options]\n");
        return 2;
    }
    opt.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--seed")
            opt.seed = std::stoull(value);
        else if (key == "--seconds")
            opt.seconds = std::stod(value);
        else if (key == "--trace")
            opt.trace = value == "1";
        else if (key == "--run-dir")
            opt.runDir = value;
        else if (key == "--seed-cache")
            opt.seedCache = value;
        else if (key == "--smtflex")
            opt.smtflex = value;
        else if (key == "--workers")
            opt.workers = static_cast<unsigned>(std::stoul(value));
        else if (key == "--spans")
            opt.spansPath = value;
        else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return 2;
        }
    }

    Report report;
    Outcome outcome;
    report.context("workload", opt.workload);
    report.context("seed", static_cast<double>(opt.seed));
    report.context("sim_seed", static_cast<double>(opt.simSeed()));
    report.context("workers", static_cast<double>(opt.workers));
    report.context("nproc",
                   static_cast<double>(std::thread::hardware_concurrency()));
    report.context("build_type", PERFBENCH_BUILD_TYPE);
    report.context("compiler", __VERSION__);
    report.context("trace", opt.trace ? 1.0 : 0.0);
    try {
        int rc = 2;
        if (opt.workload == "sweep_cold")
            rc = runSweepCold(opt, report, outcome);
        else if (opt.workload == "sim_long")
            rc = runSimLong(opt, report, outcome);
        else if (opt.workload == "serve_mix")
            rc = runServeMix(opt, report, outcome);
        else if (opt.workload == "fleet_sweep")
            rc = runFleetSweep(opt, report, outcome);
        else
            std::fprintf(stderr, "unknown workload %s\n",
                         opt.workload.c_str());
        if (rc != 0)
            return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    for (const auto &problem : outcome.problems)
        std::fprintf(stderr, "check failed: %s\n", problem.c_str());
    report.attempted = outcome.attempted;
    report.failed = outcome.failed;
    report.metric("peak_rss_mb", outcome.peakRssMb, "MB");
    std::printf("%s\n", report.json().c_str());
    return 0;
}
