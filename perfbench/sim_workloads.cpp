/**
 * @file
 * The in-process workloads: sweep_cold (a cold study sweep through
 * StudyEngine) and sim_long (long runs through ChipSim and ParsecRunner).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "sim/chip_sim.h"
#include "study/design_space.h"
#include "study/result_cache.h"
#include "study/study_engine.h"
#include "trace/spec_profiles.h"
#include "trace/tracegen.h"
#include "workload/multiprogram.h"
#include "workload/parsec.h"
#include "workload/parsec_runner.h"

namespace fs = std::filesystem;
using namespace smtflex;

namespace perfbench {

namespace {

// ---------------------------------------------------------------------
// Replays: the unit's layer inputs sent through the layer entry points
// again, one span per call, for the per-layer numbers of layers the
// study engine calls internally.
// ---------------------------------------------------------------------

/** One simulation of a unit: its chip, threads and placement. */
struct RunInputs
{
    ChipConfig config;
    std::vector<ThreadSpec> specs;
    Placement placement;
    std::uint64_t seed = 0;
    /** Micro-ops the threads retire (0 = warmup + budget each). */
    std::uint64_t retired = 0;
};

std::vector<ChipSim::WarmSpec>
warmSpecs(const RunInputs &run)
{
    std::vector<ChipSim::WarmSpec> warm;
    for (std::uint32_t i = 0; i < run.specs.size(); ++i)
        warm.push_back({run.specs[i].profile, AddressSpace::forThread(i),
                        run.placement.entries[i].core});
    return warm;
}

struct ReplayTotals
{
    double genS = 0.0;
    double scanS = 0.0;
    double warmS = 0.0;
    std::uint64_t warmLines = 0;
};

ReplayTotals
replayRuns(const std::vector<RunInputs> &runs)
{
    ReplayTotals totals;
    for (const RunInputs &run : runs) {
        // trace: the uops the threads retire, generated again.
        std::vector<TraceGenerator> gens;
        std::vector<std::uint64_t> quota;
        for (std::uint32_t i = 0; i < run.specs.size(); ++i) {
            gens.emplace_back(*run.specs[i].profile, run.seed, i,
                              AddressSpace::forThread(i));
            quota.push_back(run.retired == 0
                                ? run.specs[i].warmup + run.specs[i].budget
                                : run.retired / run.specs.size());
        }
        {
            const double t0 = nowSeconds();
            ScopedSpan span("trace.gen");
            for (std::size_t i = 0; i < gens.size(); ++i) {
                for (std::uint64_t k = 0; k < quota[i]; ++k)
                    gens[i].next();
            }
            totals.genS += elapsedSince(t0);
        }
        // trace: the resident-line scans functional warmup performs.
        const auto warm = warmSpecs(run);
        {
            const double t0 = nowSeconds();
            ScopedSpan span("trace.resident_scan");
            for (const auto &spec : warm) {
                TraceGenerator::forEachResidentLine(
                    *spec.profile, spec.space, run.config.llc.sizeBytes,
                    [&](Addr, bool) { ++totals.warmLines; });
            }
            totals.scanS += elapsedSince(t0);
        }
        // sim: functional warmup on the run's placement.
        ChipSim chip(run.config);
        {
            const double t0 = nowSeconds();
            ScopedSpan span("sim.warmup");
            chip.warmAllCaches(warm);
            totals.warmS += elapsedSince(t0);
        }
    }
    return totals;
}

// ---------------------------------------------------------------------
// sweep_cold
// ---------------------------------------------------------------------

/** One sweep row of the cold-sweep unit. */
struct SweepRow
{
    std::string design;
    std::string bench; ///< homogeneous single-benchmark row when set
    bool het = false;
    std::uint32_t n = 0;
};

/** The unit: rows of one OoO, one in-order and one mixed design, and a
 * whole `20s --bench libquantum` sweep (the fleet_sweep request). The
 * heterogeneous rows stay small: the seed draws their mixes, and a large
 * one, as the slowest row, made the tail follow the draw. */
std::vector<SweepRow>
sweepUnitRows(const StudyEngine &engine)
{
    std::vector<SweepRow> rows;
    for (const std::uint32_t n : {1u, 2u, 4u})
        rows.push_back({"4B", "", false, n});
    for (const std::uint32_t n : {1u, 2u})
        rows.push_back({"20s", "", true, n});
    for (const std::uint32_t n : {2u, 4u})
        rows.push_back({"2B10s", "", false, n});
    const ChipConfig fleet = paperDesign("20s");
    for (const std::uint32_t n : engine.sweepThreadCounts()) {
        if (n <= fleet.totalContexts())
            rows.push_back({"20s", "libquantum", false, n});
    }
    return rows;
}

RunMetrics
computeRow(StudyEngine &engine, const SweepRow &row)
{
    const ChipConfig cfg = paperDesign(row.design);
    if (!row.bench.empty())
        return engine.homogeneousBenchmarkAt(cfg, row.bench, row.n);
    return row.het ? engine.heterogeneousAt(cfg, row.n)
                   : engine.homogeneousAt(cfg, row.n);
}

/** The workloads behind a row's records, in sweepRowCacheKeys order. */
std::vector<MultiProgramWorkload>
rowWorkloads(const StudyEngine &engine, const SweepRow &row)
{
    if (!row.bench.empty())
        return {homogeneousWorkload(row.bench, row.n)};
    if (row.het && row.n > 1)
        return heterogeneousWorkloads(row.n, engine.options().hetMixes,
                                      engine.options().seed);
    std::vector<MultiProgramWorkload> out;
    for (const auto &bench : specBenchmarkNames())
        out.push_back(homogeneousWorkload(bench, row.n));
    return out;
}

StudyOptions
studyOptions(const Options &opt, const std::string &cache_path)
{
    StudyOptions so; // default budget 12k, warmup 3k, 12 mixes
    so.seed = opt.simSeed();
    so.cachePath = cache_path;
    return so;
}

const CoreType kCoreTypes[] = {CoreType::kBig, CoreType::kMedium,
                               CoreType::kSmall};

/** Every record a cold unit computed, keyed as in the ResultCache. */
std::vector<Record>
unitRecords(const StudyEngine &engine, const std::vector<SweepRow> &rows)
{
    std::vector<std::string> keys = engine.isolationCacheKeys();
    for (const SweepRow &row : rows) {
        const auto row_keys = engine.sweepRowCacheKeys(
            paperDesign(row.design), row.bench, row.het, row.n);
        keys.insert(keys.end(), row_keys.begin(), row_keys.end());
    }
    std::vector<Record> records;
    std::set<std::string> seen;
    for (const auto &key : keys) {
        if (!seen.insert(key).second)
            continue;
        const auto values = engine.resultCache().lookup(key);
        records.emplace_back(key, values ? *values : std::vector<double>{});
    }
    return records;
}

/**
 * Recompute a seeded sample of the unit's records with fast-forward off
 * (strict cycle-by-cycle simulation) and compare value for value.
 */
void
checkSampleStrict(const Options &opt, const StudyEngine &engine,
                  const std::vector<SweepRow> &rows, Outcome &outcome)
{
    Rng rng(opt.seed * 7919 + 17);
    struct Candidate
    {
        ChipConfig config;
        MultiProgramWorkload workload;
        std::string key;
    };
    std::vector<Candidate> candidates;
    for (const SweepRow &row : rows) {
        if (row.n > 4) // keep the strict recomputation cheap
            continue;
        const ChipConfig cfg = paperDesign(row.design);
        const auto keys =
            engine.sweepRowCacheKeys(cfg, row.bench, row.het, row.n);
        const auto workloads = rowWorkloads(engine, row);
        for (std::size_t i = 0; i < keys.size(); ++i)
            candidates.push_back({cfg, workloads.at(i), keys[i]});
    }
    const auto iso_keys = engine.isolationCacheKeys();
    std::set<std::size_t> iso_pick;
    while (iso_pick.size() < 3)
        iso_pick.insert(rng.nextRange(iso_keys.size()));

    setenv("SMTFLEX_NO_FASTFWD", "1", 1);
    StudyOptions so = engine.options();
    so.cachePath.clear();
    StudyEngine strict(so);
    for (std::size_t i = 0; i < iso_keys.size(); ++i) {
        if (iso_pick.count(i) == 0) {
            const auto v = engine.resultCache().lookup(iso_keys[i]);
            if (v)
                strict.resultCache().store(iso_keys[i], *v);
        }
    }
    const auto &benches = specBenchmarkNames();
    for (const std::size_t i : iso_pick) {
        const double ipc =
            strict.isolatedIpc(benches[i / 3], kCoreTypes[i % 3]);
        const auto v = engine.resultCache().lookup(iso_keys[i]);
        outcome.check(v && v->size() == 1 && (*v)[0] == ipc,
                      "strict recompute differs: " + iso_keys[i]);
    }
    for (int k = 0; k < 6 && !candidates.empty(); ++k) {
        const std::size_t pick = rng.nextRange(candidates.size());
        const Candidate &c = candidates[pick];
        const RunMetrics m = strict.multiprogram(c.config, c.workload);
        const auto v = engine.resultCache().lookup(c.key);
        const bool same = v && v->size() >= 6 && (*v)[0] == m.stp &&
            (*v)[1] == m.antt && (*v)[2] == m.powerGatedW &&
            (*v)[3] == m.powerUngatedW && (*v)[4] == m.cycles &&
            ((*v)[5] != 0.0) == m.hitLimit;
        outcome.check(same, "strict recompute differs: " + c.key);
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    }
    unsetenv("SMTFLEX_NO_FASTFWD");
}

} // namespace

int
runSweepCold(const Options &opt, Report &report, Outcome &outcome)
{
    exec::ThreadPool::configureGlobal(opt.workers);
    const fs::path dir = fs::path(opt.runDir) / "sweep";
    fs::create_directories(dir);

    std::vector<SweepRow> rows;
    std::vector<double> setups;
    std::vector<std::vector<double>> row_times;
    std::vector<double> offline_times, flush_times;
    std::vector<std::uint64_t> computed, hits;
    std::uint64_t unit_index = 0;
    std::unique_ptr<StudyEngine> last;
    double cpu_used = 0.0, cpu_wall = 0.0;

    std::vector<double> unit_rss;
    const auto unit = [&] {
        resetSelfPeakRss();
        const std::string path =
            (dir / ("unit" + std::to_string(unit_index++) + ".txt")).string();
        // Set-up: opening the engine over a fresh on-disk cache, timed in
        // every unit so that the median spans the whole run.
        const double open0 = nowSeconds();
        auto engine = std::make_unique<StudyEngine>(studyOptions(opt, path));
        setups.push_back(elapsedSince(open0));
        if (rows.empty())
            rows = sweepUnitRows(*engine);
        const double cpu0 = selfCpuSeconds();
        const double t0 = nowSeconds();
        std::vector<double> times;
        std::uint64_t unit_hits = 0;
        {
            const double s = nowSeconds();
            ScopedSpan span("study.offline");
            engine->offline();
            offline_times.push_back(elapsedSince(s));
        }
        for (const SweepRow &row : rows) {
            for (const auto &key : engine->sweepRowCacheKeys(
                     paperDesign(row.design), row.bench, row.het, row.n))
                unit_hits += engine->resultCache().lookup(key) ? 1 : 0;
            const double s = nowSeconds();
            ScopedSpan span("study.row");
            const RunMetrics m = computeRow(*engine, row);
            times.push_back(elapsedSince(s));
            outcome.check(m.stp > 0.0 && !m.hitLimit,
                          "row " + row.design + " n=" + std::to_string(row.n));
        }
        {
            const double s = nowSeconds();
            ScopedSpan span("study.result_cache.flush");
            engine->resultCache().flush();
            flush_times.push_back(elapsedSince(s));
        }
        cpu_used += selfCpuSeconds() - cpu0;
        cpu_wall += elapsedSince(t0);
        row_times.push_back(times);
        computed.push_back(engine->resultCache().size());
        hits.push_back(unit_hits);
        unit_rss.push_back(selfPeakRssMb());
        last = std::move(engine);
    };
    std::vector<double> traced;
    const std::vector<double> walls = measure(opt, 3, unit, &traced);
    outcome.peakRssMb = median(std::vector<double>(
        unit_rss.begin(), unit_rss.begin() + walls.size()));

    // Output checks on the last unit's records.
    const auto records = unitRecords(*last, rows);
    for (const auto &[key, values] : records)
        outcome.check(!values.empty(), "record missing: " + key);
    if (opt.seed == 0) {
        const fs::path copy = dir / "seed_copy.txt";
        fs::copy_file(opt.seedCache, copy);
        const ResultCache committed(copy.string());
        std::vector<std::string> bad;
        checkRecords(records, committed, &bad);
        for (const auto &[key, values] : records) {
            const bool ok =
                std::find(bad.begin(), bad.end(), key) == bad.end();
            outcome.check(ok, "differs from the committed cache: " + key);
        }
    }
    checkSampleStrict(opt, *last, rows, outcome);

    const double records_per_unit = static_cast<double>(records.size());
    const double wall = median(walls);
    std::vector<double> rates;
    for (const double w : walls)
        rates.push_back(records_per_unit / w);
    report.metric("setup_s",
                  median(std::vector<double>(setups.begin(),
                                             setups.begin() + walls.size())),
                  "s");
    report.metric("wall_s", wall, "s");
    report.metric("throughput_per_s", median(rates), "1/s");
    std::vector<std::vector<double>> row_ms;
    for (std::size_t u = 0; u < walls.size(); ++u) {
        row_ms.emplace_back();
        for (const double seconds : row_times[u])
            row_ms.back().push_back(seconds * 1e3);
    }
    reportLatency(report, row_ms, "sweep row");
    reportUnits(report, walls);
    report.context("records_per_unit", records_per_unit);
    report.context("rows_per_unit", static_cast<double>(rows.size()));
    report.line("records_per_s " + fmt("%.2f", median(rates)) +
                " 1/s (new ResultCache records per second)");

    if (opt.trace) {
        // Replay every simulation of one unit through the layer calls.
        std::vector<RunInputs> runs;
        for (const auto &bench : specBenchmarkNames()) {
            for (const CoreType type : kCoreTypes) {
                CoreParams core = type == CoreType::kBig ? CoreParams::big()
                    : type == CoreType::kMedium ? CoreParams::medium()
                                                : CoreParams::small();
                RunInputs run;
                run.config = last->configured(ChipConfig::homogeneous(
                    std::string("iso_") + coreTypeTag(type), core, 1));
                run.specs = {{&benchProfileByName(bench),
                              last->options().budget,
                              last->options().warmup}};
                run.placement.entries = {{0, 0}};
                run.seed = last->options().seed;
                runs.push_back(run);
            }
        }
        std::set<std::string> replayed;
        for (const SweepRow &row : rows) {
            const ChipConfig cfg = paperDesign(row.design);
            const auto keys =
                last->sweepRowCacheKeys(cfg, row.bench, row.het, row.n);
            const auto workloads = rowWorkloads(*last, row);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (!replayed.insert(keys[i]).second)
                    continue;
                RunInputs run;
                run.config = last->configured(cfg);
                run.specs = workloads[i].specs(last->options().budget,
                                               last->options().warmup);
                run.placement =
                    scheduleOffline(run.config, run.specs, last->offline());
                run.seed = last->options().seed;
                runs.push_back(run);
            }
        }
        Tracer::instance().enable(true);
        const ReplayTotals replay = replayRuns(runs);
        // The append path: every record of the unit stored again.
        std::vector<double> stores;
        {
            ResultCache cache((dir / "store_replay.txt").string());
            for (const auto &[key, values] : records) {
                const double s = nowSeconds();
                ScopedSpan span("study.result_cache.store");
                cache.store(key, values);
                stores.push_back(elapsedSince(s));
            }
        }
        Tracer::instance().enable(false);

        // Layer times come from the traced units only.
        const std::size_t first = walls.size();
        std::vector<double> all_rows;
        for (std::size_t u = first; u < row_times.size(); ++u)
            all_rows.insert(all_rows.end(), row_times[u].begin(),
                            row_times[u].end());
        const auto traced_only = [first](const std::vector<double> &v) {
            return std::vector<double>(v.begin() + first, v.end());
        };
        report.metric("trace.gen_s", replay.genS, "s");
        report.metric("trace.resident_scan_s", replay.scanS, "s");
        report.metric("sim.warmup_s", replay.warmS, "s");
        report.metric("sim.warm_lines",
                      static_cast<double>(replay.warmLines), "count");
        report.metric("study.offline_s",
                      median(traced_only(offline_times)), "s");
        report.metric("study.row_s", median(all_rows), "s");
        report.metric("study.records_computed",
                   static_cast<double>(computed.back()), "count");
        report.metric("study.record_hits",
                      static_cast<double>(hits.back()), "count");
        report.metric("study.result_cache.store_us",
                   median(stores) * 1e6, "us");
        report.metric("study.result_cache.flush_s",
                   median(traced_only(flush_times)), "s");
        report.metric("exec.cpu_util",
                      cpu_used / (cpu_wall * opt.workers), "ratio");
        reportTracing(report, opt, walls, traced);
    }
    return 0;
}

namespace {

// ---------------------------------------------------------------------
// sim_long
// ---------------------------------------------------------------------

struct LongCase
{
    std::string name;
    std::string design;
    std::vector<std::string> programs; ///< empty = PARSEC app
    std::string app;
    std::uint32_t threads = 0;
    InstrCount budget = 0;
};

/** Compute-bound SMT, memory-bound, heterogeneous and PARSEC runs, each
 * far above the study's 12k-instruction budget. */
std::vector<LongCase>
longCases()
{
    std::vector<std::string> compute, memory, het;
    for (int i = 0; i < 2; ++i)
        for (const char *b : {"hmmer", "h264ref", "calculix", "gamess"})
            compute.push_back(b);
    for (int i = 0; i < 10; ++i)
        for (const char *b : {"mcf", "libquantum"})
            memory.push_back(b);
    het = specBenchmarkNames();
    return {
        {"smt_compute_4B", "4B", compute, "", 8, 80'000},
        {"memory_20s", "20s", memory, "", 20, 40'000},
        {"het_2B10s", "2B10s", het, "", 12, 25'000},
        {"parsec_streamcluster_2B10s", "2B10s", {}, "streamcluster", 12, 0},
    };
}

constexpr InstrCount kLongWarmup = 3'000;

RunInputs
longInputs(const LongCase &c, std::uint64_t seed)
{
    RunInputs run;
    run.config = paperDesign(c.design);
    for (const auto &p : c.programs)
        run.specs.push_back({&specProfile(p), c.budget, kLongWarmup});
    if (!run.specs.empty())
        run.placement = scheduleNaive(run.config, run.specs.size());
    run.seed = seed;
    return run;
}

/** Sum of snapshot counters whose path starts with @p prefix and ends
 * with @p suffix. */
double
snapshotSum(const telemetry::Snapshot &snap, const std::string &prefix,
            const std::string &suffix)
{
    double sum = 0.0;
    snap.forEach([&](const std::string &path,
                     const telemetry::MetricValue &value) {
        if (path.size() >= prefix.size() + suffix.size() &&
            path.compare(0, prefix.size(), prefix) == 0 &&
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) == 0 &&
            !value.isString())
            sum += value.numeric();
    });
    return sum;
}

} // namespace

int
runSimLong(const Options &opt, Report &report, Outcome &outcome)
{
    const auto cases = longCases();
    std::vector<RunInputs> inputs;
    for (const auto &c : cases)
        inputs.push_back(longInputs(c, opt.simSeed()));

    // Set-up: building every chip of the unit, summed over its cases and
    // timed in every unit so that the median spans the whole run.
    std::vector<double> setups;
    std::vector<std::vector<double>> case_times;
    std::vector<std::uint64_t> first_digest;
    std::vector<SimResult> results(cases.size());
    std::vector<double> ff_cycles(cases.size(), 0.0);
    double instr_per_unit = 0.0;

    double cpu_used = 0.0, cpu_wall = 0.0;
    std::vector<double> unit_rss;
    std::mutex mutex;
    const auto unit = [&] {
        resetSelfPeakRss();
        const double cpu0 = selfCpuSeconds();
        const double unit_start = nowSeconds();
        std::vector<double> times(cases.size()), builds(cases.size()),
            retired(cases.size());
        std::vector<std::uint64_t> digests(cases.size());
        // The workers take the cases in order, one at a time.
        std::atomic<std::size_t> next{0};
        const auto work = [&] {
            for (std::size_t k = next++; k < cases.size(); k = next++) {
                const double t0 = nowSeconds();
                SimResult result;
                bool ok = true;
                if (cases[k].programs.empty()) {
                    ParsecRunner runner(inputs[k].config,
                                        parsecProfile(cases[k].app),
                                        cases[k].threads, opt.simSeed());
                    builds[k] = elapsedSince(t0);
                    ScopedSpan span("sim.run");
                    ParsecRunResult run = runner.run();
                    ok = run.completed;
                    result = std::move(run.sim);
                } else {
                    ChipSim chip(inputs[k].config);
                    builds[k] = elapsedSince(t0);
                    {
                        ScopedSpan span("sim.run");
                        result = chip.runMultiProgram(inputs[k].specs,
                                                      inputs[k].placement,
                                                      opt.simSeed());
                    }
                    ff_cycles[k] =
                        static_cast<double>(chip.fastForwardedCycles());
                    ok = !result.hitCycleLimit;
                }
                times[k] = elapsedSince(t0);
                digests[k] = resultDigest(result);
                for (const auto &core : result.cores)
                    retired[k] += static_cast<double>(core.stats.retired);
                results[k] = std::move(result);
                std::lock_guard<std::mutex> lock(mutex);
                outcome.check(ok, cases[k].name +
                                  " completed within the cycle limit");
            }
        };
        std::vector<std::thread> helpers;
        for (unsigned w = 1; w < opt.workers; ++w)
            helpers.emplace_back(work);
        work();
        for (auto &t : helpers)
            t.join();
        double instr = 0.0;
        for (const double r : retired)
            instr += r;
        if (first_digest.empty())
            first_digest = digests;
        for (std::size_t k = 0; k < cases.size(); ++k)
            outcome.check(digests[k] == first_digest[k],
                          cases[k].name + " digest repeats");
        instr_per_unit = instr;
        case_times.push_back(times);
        double built = 0.0;
        for (const double b : builds)
            built += b;
        setups.push_back(built);
        cpu_used += selfCpuSeconds() - cpu0;
        cpu_wall += elapsedSince(unit_start);
        unit_rss.push_back(selfPeakRssMb());
    };
    std::vector<double> traced;
    const std::vector<double> walls = measure(opt, 3, unit, &traced);
    outcome.peakRssMb = median(std::vector<double>(
        unit_rss.begin(), unit_rss.begin() + walls.size()));

    std::vector<double> rates;
    for (const double w : walls)
        rates.push_back(instr_per_unit / w);
    report.metric("setup_s",
                  median(std::vector<double>(setups.begin(),
                                             setups.begin() + walls.size())),
                  "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("throughput_per_s", median(rates), "1/s");
    std::vector<std::vector<double>> run_ms;
    for (std::size_t u = 0; u < walls.size(); ++u) {
        run_ms.emplace_back();
        for (const double seconds : case_times[u])
            run_ms.back().push_back(seconds * 1e3);
    }
    reportLatency(report, run_ms, "simulation run");
    const std::vector<double> case_ms = perOpMedianMs(case_times);
    for (std::size_t k = 0; k < cases.size(); ++k)
        report.context("run_ms." + cases[k].name, case_ms[k]);
    reportUnits(report, walls);
    report.context("instr_per_unit", instr_per_unit);
    for (std::size_t k = 0; k < cases.size(); ++k) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(first_digest[k]));
        report.context("digest." + cases[k].name, hex);
    }
    report.line("sim_minstr_per_s " +
                fmt("%.3f", median(rates) / 1e6) +
                " Minstr/s (simulated instructions, warmup included)");

    if (opt.trace) {
        double cycles = 0.0, core_cycles = 0.0, ff = 0.0;
        for (std::size_t k = 0; k < cases.size(); ++k) {
            const SimResult &r = results[k];
            cycles += static_cast<double>(r.cycles);
            if (!cases[k].programs.empty()) {
                core_cycles +=
                    static_cast<double>(r.cycles) * r.cores.size();
                ff += ff_cycles[k];
            }
        }
        double l1a = 0, l1m = 0, l2a = 0, l2m = 0, llca = 0, llcm = 0,
               reads = 0, busy = 0, xfers = 0;
        for (const SimResult &r : results) {
            l1a += snapshotSum(r.metrics, "core.", ".l1d.accesses");
            l1m += snapshotSum(r.metrics, "core.", ".l1d.misses");
            l2a += snapshotSum(r.metrics, "core.", ".l2.accesses");
            l2m += snapshotSum(r.metrics, "core.", ".l2.misses");
            llca += snapshotSum(r.metrics, "llc.", "accesses");
            llcm += snapshotSum(r.metrics, "llc.", "misses");
            reads += snapshotSum(r.metrics, "dram.", "reads");
            busy += snapshotSum(r.metrics, "dram.", "bus_busy_cycles");
            xfers += snapshotSum(r.metrics, "xbar.", "requests");
        }
        // Warmup of the multi-program cases, replayed on fresh chips,
        // and their retired micro-ops generated again.
        std::vector<RunInputs> replay_runs;
        for (std::size_t k = 0; k < cases.size(); ++k) {
            if (cases[k].programs.empty())
                continue;
            RunInputs run = inputs[k];
            for (const auto &core : results[k].cores)
                run.retired += core.stats.retired;
            replay_runs.push_back(run);
        }
        Tracer::instance().enable(true);
        const ReplayTotals replay = replayRuns(replay_runs);
        Tracer::instance().enable(false);
        const auto run_spans =
            spanDurations(Tracer::instance().spans(), "sim.run");
        double run_s = 0.0;
        for (const double d : run_spans)
            run_s += d;
        const double traced_units = static_cast<double>(traced.size());
        run_s = run_s / traced_units - replay.warmS;

        report.metric("trace.gen_s", replay.genS, "s");
        report.metric("trace.resident_scan_s", replay.scanS, "s");
        report.metric("sim.warmup_s", replay.warmS, "s");
        report.metric("sim.warm_lines",
                      static_cast<double>(replay.warmLines), "count");
        report.metric("sim.run_s", run_s, "s");
        report.metric("sim.runs", static_cast<double>(cases.size()), "count");
        report.metric("sim.cycles", cycles, "count");
        report.metric("sim.instr", instr_per_unit, "count");
        report.metric("sim.ff_share",
                      core_cycles > 0 ? ff / core_cycles : 0.0, "ratio");
        report.metric("sim.host_ns_per_cycle", run_s / cycles * 1e9, "ns");
        report.metric("cache.l1d.miss_ratio",
                      l1a > 0 ? l1m / l1a : 0.0, "ratio");
        report.metric("cache.l2.miss_ratio",
                      l2a > 0 ? l2m / l2a : 0.0, "ratio");
        report.metric("cache.llc.accesses", llca, "count");
        report.metric("cache.llc.miss_ratio",
                      llca > 0 ? llcm / llca : 0.0, "ratio");
        report.metric("dram.reads", reads, "count");
        report.metric("dram.bus_util",
                      cycles > 0 ? busy / cycles : 0.0, "ratio");
        report.metric("xbar.transfers", xfers, "count");
        report.metric("exec.cpu_util", cpu_used / (cpu_wall * opt.workers),
                      "ratio");
        reportTracing(report, opt, walls, traced);
    }
    return 0;
}

} // namespace perfbench
