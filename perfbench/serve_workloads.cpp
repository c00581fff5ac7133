/**
 * @file
 * The server workloads: serve_mix (a closed-loop request mix against a
 * fresh `smtflex serve`) and fleet_sweep (a cold sweep through `smtflex
 * coordinator` and two backends). Responses are checked byte for byte
 * against the in-process serve::*Text rendering.
 */

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "online/online_policy.h"
#include "serve/client.h"
#include "serve/commands.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "study/design_space.h"
#include "study/online_study.h"
#include "study/result_cache.h"
#include "study/study_engine.h"
#include "trace/spec_profiles.h"

namespace fs = std::filesystem;
using namespace smtflex;
using smtflex::serve::Json;

namespace perfbench {

namespace {

Json
request(const std::string &op)
{
    Json doc = Json::object();
    doc.set("op", Json::string(op));
    return doc;
}

Json
stringList(const std::vector<std::string> &items)
{
    Json list = Json::array();
    for (const auto &item : items)
        list.push(Json::string(item));
    return list;
}

/** The in-process rendering a response must equal. */
std::string
render(StudyEngine &engine, const Json &doc)
{
    const serve::Request req = serve::parseRequest(doc);
    switch (req.op) {
      case serve::Op::kRun:
        return serve::runText(engine, req.run);
      case serve::Op::kSweep:
        return serve::sweepText(engine, req.sweep);
      case serve::Op::kIsolated:
        return serve::isolatedText(engine, req.isolated);
      case serve::Op::kSchedule:
        return serve::scheduleText(engine, req.schedule);
      default:
        throw std::logic_error("no rendering for " + doc.dump());
    }
}

StudyOptions
seedCacheOptions(const std::string &path)
{
    StudyOptions so; // the committed cache's defaults
    so.cachePath = path;
    return so;
}

/** Whether every record a sweep renders from is in @p engine's cache. */
bool
sweepCovered(const StudyEngine &engine, const std::string &design,
             const std::string &bench, bool het)
{
    const ChipConfig cfg = paperDesign(design);
    std::vector<std::string> keys = engine.isolationCacheKeys();
    for (const std::uint32_t n : engine.sweepThreadCounts()) {
        if (n > cfg.totalContexts())
            break;
        const auto row = engine.sweepRowCacheKeys(cfg, bench, het, n);
        keys.insert(keys.end(), row.begin(), row.end());
    }
    for (const auto &key : keys) {
        if (!engine.resultCache().lookup(key))
            return false;
    }
    return true;
}

/** Isolated requests drawn for the hit pool (1 to 3 benchmarks each). */
constexpr int kIsolatedPool = 96;

/** Requests the committed cache answers without simulating. */
struct HitPools
{
    std::vector<Json> sweeps;
    std::vector<Json> isolated;
    std::vector<Json> schedules;
};

HitPools
hitPools(StudyEngine &engine, std::uint64_t seed)
{
    HitPools pools;
    for (const auto &design : paperDesignNames()) {
        std::vector<std::pair<std::string, bool>> modes = {{"", false},
                                                           {"", true}};
        for (const auto &bench : specBenchmarkNames())
            modes.emplace_back(bench, false);
        for (const auto &[bench, het] : modes) {
            if (!sweepCovered(engine, design, bench, het))
                continue;
            Json doc = request("sweep");
            doc.set("design", Json::string(design));
            if (!bench.empty())
                doc.set("bench", Json::string(bench));
            if (het)
                doc.set("het", Json::boolean(true));
            pools.sweeps.push_back(doc);
        }
    }
    Rng rng(seed * 104'729 + 3);
    const auto &benches = specBenchmarkNames();
    for (int i = 0; i < kIsolatedPool; ++i) {
        std::vector<std::string> pick;
        const std::size_t count = 1 + rng.nextRange(3);
        while (pick.size() < count) {
            const std::string &b = benches[rng.nextRange(benches.size())];
            if (std::find(pick.begin(), pick.end(), b) == pick.end())
                pick.push_back(b);
        }
        Json doc = request("isolated");
        doc.set("benches", stringList(pick));
        pools.isolated.push_back(doc);
    }
    for (const auto &design : onlineStudyDesigns()) {
        for (const auto &mix : onlineStudyWorkloads(engine.options())) {
            if (mix.name.rfind("mix:", 0) != 0)
                continue;
            // The benchmark names, as the mix's name lists them.
            std::vector<std::string> names;
            std::size_t from = 4;
            for (std::size_t plus; (plus = mix.name.find('+', from)) !=
                 std::string::npos;
                 from = plus + 1)
                names.push_back(mix.name.substr(from, plus - from));
            names.push_back(mix.name.substr(from));
            for (const auto &policy : online::onlinePolicyNames()) {
                Json doc = request("schedule");
                doc.set("design", Json::string(design));
                doc.set("benchmarks", stringList(names));
                doc.set("policy", Json::string(policy));
                pools.schedules.push_back(doc);
            }
        }
    }
    return pools;
}

/**
 * One round of a connection: the loadgen's default mix (ping=2, run=4,
 * sweep=1, isolated=1; serve/loadgen.h), extended with the two ops the
 * loadgen leaves out of its default, schedule=1 and metrics=1.
 */
constexpr std::pair<const char *, int> kRoundMix[] = {
    {"ping", 2},     {"run", 4},     {"sweep", 1},
    {"isolated", 1}, {"schedule", 1}, {"metrics", 1}};
/** Rounds per connection in one unit. */
constexpr std::uint64_t kRounds = 30;

/**
 * The loadgen's default pool of run requests (6 variants, budget 2000,
 * warmup 500), outside the committed cache, with simulation seed
 * 42 + @p seed. The pool's designs and workloads stay those of the
 * loadgen's default seed, so the work does not depend on @p seed.
 */
std::vector<Json>
runPool(std::uint64_t seed)
{
    const serve::LoadGenOptions lg;
    std::vector<Json> runs;
    for (Json doc : serve::loadgenRequestPool(lg)) {
        // The warm-start family at the pool's end is left out: the
        // unit's warm-start pair below has budgets that pass a snapshot.
        if (doc.at("op").asString() == "run" && runs.size() < lg.distinct) {
            doc.set("seed", Json::number(42 + seed));
            runs.push_back(doc);
        }
    }
    return runs;
}

/** Budgets of the warm-start pair: the first run passes the snapshot
 * interval (kCkptInterval cycles) and saves; the second, sharing its
 * prefix, resumes from that snapshot. Plain runs end before it. */
constexpr std::uint64_t kWarmBudget = 8'000;
constexpr std::uint64_t kWarmStep = 4'000;
constexpr const char *kCkptInterval = "20000";

/** A run of the loadgen's warm-start family (4B, mcf + milc). */
Json
warmRun(std::uint64_t seed, std::uint64_t budget)
{
    Json doc = request("run");
    doc.set("design", Json::string("4B"));
    doc.set("workload", stringList({"mcf", "milc"}));
    doc.set("budget", Json::number(budget));
    doc.set("warmup", Json::number(std::uint64_t{500}));
    doc.set("seed", Json::number(42 + seed));
    return doc;
}

/** One request of the mix: its op label and document. */
struct MixItem
{
    std::string op;
    Json doc;
};

/**
 * Connection @p conn's requests in every unit: kRounds rounds of
 * kRoundMix in a seeded order, hit requests drawn from @p pools and runs
 * from @p runs. Connection 0 sends the warm-start pair halfway through.
 */
std::vector<MixItem>
connectionRequests(const HitPools &pools, const std::vector<Json> &runs,
                   std::uint64_t seed, std::size_t conn)
{
    Rng rng(seed * 1'000'003 + conn * 7'919, 11);
    const auto draw = [&rng](const std::vector<Json> &pool) {
        return pool[rng.nextRange(pool.size())];
    };
    std::vector<MixItem> items;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
        if (conn == 0 && round == kRounds / 2) {
            items.push_back({"warmrun", warmRun(seed, kWarmBudget)});
            items.push_back(
                {"warmrun", warmRun(seed, kWarmBudget + kWarmStep)});
        }
        std::vector<std::string> ops;
        for (const auto &[op, count] : kRoundMix)
            ops.insert(ops.end(), static_cast<std::size_t>(count), op);
        for (std::size_t i = ops.size(); i > 1; --i)
            std::swap(ops[i - 1], ops[rng.nextRange(i)]);
        for (const auto &op : ops) {
            if (op == "sweep")
                items.push_back({op, draw(pools.sweeps)});
            else if (op == "isolated")
                items.push_back({op, draw(pools.isolated)});
            else if (op == "schedule")
                items.push_back({op, draw(pools.schedules)});
            else if (op == "run")
                items.push_back({op, draw(runs)});
            else
                items.push_back({op, request(op)});
        }
    }
    return items;
}

struct Sample
{
    std::string op;
    double seconds = 0.0;
};

/** Closed loop on one connection: send @p items one after another. */
void
driveConnection(std::uint16_t port, const std::vector<MixItem> &items,
                const std::map<std::string, std::string> &expected,
                std::vector<Sample> &samples, Outcome &outcome,
                std::mutex &mutex)
{
    ScopedSpan connection_span("bench.connection");
    serve::Client client;
    client.connect("127.0.0.1", port);
    for (const MixItem &item : items) {
        const std::string span_name = "serve." + item.op;
        const double t0 = nowSeconds();
        Json reply;
        bool ok = true;
        try {
            ScopedSpan span(span_name.c_str());
            reply = client.call(item.doc);
        } catch (const FatalError &) {
            ok = false;
            client.reconnect();
        }
        samples.push_back({item.op, elapsedSince(t0)});
        if (ok) {
            if (item.op == "ping")
                ok = reply.has("pong");
            else if (item.op == "metrics")
                ok = reply.has("ok") && reply.at("ok").asBool() &&
                    reply.has("metrics");
            else
                ok = responseMatches(reply, expected.at(item.doc.dump()));
        }
        std::lock_guard<std::mutex> lock(mutex);
        outcome.check(ok, item.op + " reply: " + item.doc.dump());
    }
}

double
statNumber(const Json &stats, const std::string &key)
{
    return stats.has(key) && stats.at(key).isNumber()
        ? stats.at(key).asNumber()
        : 0.0;
}

/** Latencies in ms of @p op (every op when empty) in units [from, to). */
std::vector<double>
opSamplesMs(const std::vector<std::vector<Sample>> &units, std::size_t from,
            std::size_t to, const std::string &op)
{
    std::vector<double> out;
    for (std::size_t u = from; u < to && u < units.size(); ++u) {
        for (const auto &s : units[u]) {
            if (op.empty() || s.op == op)
                out.push_back(s.seconds * 1e3);
        }
    }
    return out;
}

/**
 * Pin the calling thread to the last CPU it may run on; the threads and
 * processes it starts afterwards inherit that. @return the CPU, or -1
 * when the affinity cannot be read or set.
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpu = c;
    }
    if (cpu < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

} // namespace

int
runServeMix(const Options &opt, Report &report, Outcome &outcome)
{
    exec::ThreadPool::configureGlobal(opt.workers);
    const fs::path dir = fs::path(opt.runDir) / "serve";
    fs::create_directories(dir);
    const std::size_t connections = opt.workers;

    // The reference engine over its own copy of the committed cache, and
    // every connection's requests, the same in every unit.
    fs::copy_file(opt.seedCache, dir / "reference.txt");
    StudyEngine reference(seedCacheOptions((dir / "reference.txt").string()));
    const HitPools pools = hitPools(reference, opt.seed);
    outcome.check(!pools.sweeps.empty(), "sweep hit pool non-empty");
    const std::vector<Json> runs = runPool(opt.seed);
    std::vector<std::vector<MixItem>> lists;
    for (std::size_t c = 0; c < connections; ++c)
        lists.push_back(connectionRequests(pools, runs, opt.seed, c));

    // The replies they must get: hit requests rendered from the committed
    // cache (none may simulate), then runs simulated in-process, cold, so
    // warm starts are checked against cold runs.
    std::map<std::string, std::string> expected;
    std::vector<double> render_ms;
    const std::size_t records_before = reference.resultCache().size();
    for (const bool simulating : {false, true}) {
        for (const auto &list : lists) {
            for (const MixItem &item : list) {
                const bool run = item.op == "run" || item.op == "warmrun";
                const std::string key = item.doc.dump();
                if (item.op == "ping" || item.op == "metrics" ||
                    run != simulating || expected.count(key))
                    continue;
                const double t0 = nowSeconds();
                expected[key] = render(reference, item.doc);
                if (item.op == "sweep")
                    render_ms.push_back(elapsedSince(t0) * 1e3);
            }
        }
        if (!simulating)
            outcome.check(reference.resultCache().size() == records_before,
                          "a hit-pool request needed a simulation");
    }

    // ResultCache construction over the seed copy, in-process.
    std::vector<double> load_s;
    for (int i = 0; i < 3; ++i) {
        const fs::path copy = dir / ("load" + std::to_string(i) + ".txt");
        fs::copy_file(opt.seedCache, copy);
        const double t0 = nowSeconds();
        const ResultCache cache(copy.string());
        load_s.push_back(elapsedSince(t0));
    }

    // A unit: a fresh server (empty response cache, empty snapshot
    // directory) over a fresh copy of the committed cache, started until
    // it answers a ping (set-up), then every connection's requests,
    // closed loop. One server worker: the connections queue for it, and
    // the server's peak memory does not depend on which requests happen
    // to overlap. The connections and the servers share one CPU: spread
    // over several, every request waits on cross-CPU wake-ups, whose
    // latency on a shared virtual machine swings with the neighbours'
    // load (ping round trips by 3x within minutes) and moved the median
    // unit by up to a third from one run to the next.
    const int cpu = pinToOneCpu();
    report.context("cpu", static_cast<double>(cpu));
    std::mutex mutex;
    std::vector<double> setups, loads, rates, rss;
    std::vector<std::vector<Sample>> unit_samples;
    Json stats;
    std::uint64_t unit_index = 0;
    const auto unit = [&] {
        const fs::path udir = dir / ("u" + std::to_string(unit_index++));
        fs::create_directories(udir / "ckpt");
        fs::copy_file(opt.seedCache, udir / "cache.txt");
        const double t0 = nowSeconds();
        ServerProcess server(
            {opt.smtflex, "serve", "--host", "127.0.0.1", "--port", "0",
             "--jobs", "1", "--cache", (udir / "cache.txt").string(),
             "--ckpt", (udir / "ckpt").string() + ":" + kCkptInterval},
            {}, (udir / "server.log").string());
        waitForPing(server.port());
        setups.push_back(elapsedSince(t0));

        std::vector<std::vector<Sample>> logs(connections);
        const double t1 = nowSeconds();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < connections; ++c)
            threads.emplace_back([&, c] {
                try {
                    driveConnection(server.port(), lists[c], expected,
                                    logs[c], outcome, mutex);
                } catch (const std::exception &e) {
                    std::lock_guard<std::mutex> lock(mutex);
                    outcome.check(false, std::string("connection: ") +
                                             e.what());
                }
            });
        for (auto &t : threads)
            t.join();
        const double load = elapsedSince(t1);

        std::vector<Sample> samples;
        for (const auto &log : logs)
            samples.insert(samples.end(), log.begin(), log.end());
        loads.push_back(load);
        rates.push_back(static_cast<double>(samples.size()) / load);
        unit_samples.push_back(std::move(samples));
        stats = callOnce(server.port(), request("stats")).at("stats");
        outcome.check(server.stop(), "server drained");
        rss.push_back(server.peakRssMb());
        fs::remove_all(udir); // snapshots are megabytes each
    };
    std::vector<double> traced;
    const std::size_t units = measure(opt, 3, unit, &traced).size();
    const auto untraced = [units](const std::vector<double> &v) {
        return std::vector<double>(v.begin(), v.begin() + units);
    };
    const std::vector<double> timed_loads = untraced(loads);
    outcome.peakRssMb = median(untraced(rss));

    report.metric("setup_s", median(untraced(setups)), "s");
    report.metric("wall_s", median(timed_loads), "s");
    report.metric("throughput_per_s", median(untraced(rates)), "1/s");
    std::vector<std::vector<double>> unit_ms;
    for (std::size_t u = 0; u < units; ++u)
        unit_ms.push_back(opSamplesMs(unit_samples, u, u + 1, ""));
    reportLatency(report, unit_ms, "request");
    reportUnits(report, timed_loads);
    report.context("connections", static_cast<double>(connections));
    report.context("server_jobs", 1.0);
    report.context("requests_per_unit",
                   static_cast<double>(unit_samples.front().size()));
    report.context("sweep_pool", static_cast<double>(pools.sweeps.size()));
    report.context("isolated_pool",
                   static_cast<double>(pools.isolated.size()));
    report.context("schedule_pool",
                   static_cast<double>(pools.schedules.size()));
    report.line("req_per_s " + fmt("%.1f", median(untraced(rates))) +
                " 1/s (closed loop, " + std::to_string(connections) +
                " connections)");

    if (opt.trace) {
        // Client-side latencies of the traced units; server counters of
        // the last unit.
        for (const char *op : {"sweep", "isolated", "schedule", "run",
                               "warmrun", "ping", "metrics"}) {
            report.metric(std::string("serve.") + op + ".p50_ms",
                          medianOf(opSamplesMs(unit_samples, units,
                                               unit_samples.size(), op)),
                          "ms");
        }
        report.metric("serve.render_ms", median(render_ms), "ms");
        const double executed = statNumber(stats, "executed");
        const double hits = statNumber(stats, "cache_hits");
        const double coalesced = statNumber(stats, "coalesced");
        report.metric("serve.executed", executed, "count");
        report.metric("serve.cache_hits", hits, "count");
        report.metric("serve.coalesced", coalesced, "count");
        report.metric("serve.overloaded", statNumber(stats, "overloaded"),
                      "count");
        report.metric("serve.hit_ratio",
                      hits / (hits + coalesced + executed), "ratio");
        report.metric("ckpt.hits", statNumber(stats, "ckpt.hits"), "count");
        report.metric("ckpt.misses", statNumber(stats, "ckpt.misses"),
                      "count");
        report.metric("ckpt.resume_ms", statNumber(stats, "ckpt.resume_ms"),
                      "ms");
        report.metric("study.result_cache.load_s", median(load_s), "s");
        reportTracing(report, opt, timed_loads,
                      std::vector<double>(loads.begin() + units,
                                          loads.end()));
    }
    return 0;
}

int
runFleetSweep(const Options &opt, Report &report, Outcome &outcome)
{
    exec::ThreadPool::configureGlobal(opt.workers);
    const fs::path dir = fs::path(opt.runDir) / "fleet";
    fs::create_directories(dir);

    // The cold sweep the fleet computes: a subset of sweep_cold's rows.
    Json sweep = request("sweep");
    sweep.set("design", Json::string("20s"));
    sweep.set("bench", Json::string("libquantum"));

    // Reference: the committed cache at seed 0, a cold in-process
    // computation at any other seed.
    std::string want;
    {
        StudyOptions so = seedCacheOptions("");
        so.seed = opt.simSeed();
        if (opt.seed == 0) {
            fs::copy_file(opt.seedCache, dir / "reference.txt");
            so.cachePath = (dir / "reference.txt").string();
        }
        StudyEngine reference(so);
        want = render(reference, sweep);
    }

    const std::vector<std::string> env = {"SMTFLEX_SEED=" +
                                          std::to_string(opt.simSeed())};
    std::vector<double> setups, rates, latencies, rss;
    Json last_stats, last_metrics;
    std::vector<double> executed;
    double cpu_util = 0.0;
    std::uint64_t unit_index = 0;

    const auto unit = [&] {
        const fs::path udir = dir / ("u" + std::to_string(unit_index++));
        fs::create_directories(udir);
        const double t0 = nowSeconds();
        std::vector<std::unique_ptr<ServerProcess>> backends;
        std::vector<std::string> argv = {
            opt.smtflex, "coordinator", "--host", "127.0.0.1", "--port", "0",
            "--jobs", "1", "--cache", (udir / "coordinator.txt").string(),
            "--ckpt", (udir / "journal").string()};
        for (int b = 0; b < 2; ++b) {
            const std::string name = "backend" + std::to_string(b);
            backends.push_back(std::make_unique<ServerProcess>(
                std::vector<std::string>{
                    opt.smtflex, "serve", "--host", "127.0.0.1", "--port",
                    "0", "--jobs", "1", "--cache",
                    (udir / (name + ".txt")).string()},
                env, (udir / (name + ".log")).string()));
            argv.push_back("--backend");
            argv.push_back("127.0.0.1:" +
                           std::to_string(backends.back()->port()));
        }
        ServerProcess coordinator(argv, env,
                                  (udir / "coordinator.log").string());
        waitForPing(coordinator.port());
        setups.push_back(elapsedSince(t0));

        const double t1 = nowSeconds();
        Json reply;
        {
            ScopedSpan span("dist.sweep");
            reply = callOnce(coordinator.port(), sweep);
        }
        const double latency = elapsedSince(t1);
        outcome.check(responseMatches(reply, want),
                      "fleet sweep response differs");
        last_stats = callOnce(coordinator.port(), request("stats")).at("stats");
        last_metrics =
            callOnce(coordinator.port(), request("metrics")).at("metrics");
        executed.clear();
        for (auto &backend : backends)
            executed.push_back(statNumber(
                callOnce(backend->port(), request("stats")).at("stats"),
                "executed"));
        const double records = statNumber(last_stats, "result_cache_entries");
        outcome.check(records > 0, "fleet stored records");
        rates.push_back(records / latency);
        latencies.push_back(latency);

        outcome.check(coordinator.stop(), "coordinator drained");
        double cpu = 0.0, unit_rss = coordinator.peakRssMb();
        for (auto &backend : backends) {
            outcome.check(backend->stop(), "backend drained");
            cpu += backend->cpuSeconds();
            unit_rss += backend->peakRssMb();
        }
        rss.push_back(unit_rss);
        cpu_util = cpu / (latency * static_cast<double>(backends.size()));
    };
    std::vector<double> traced;
    const std::vector<double> walls = measure(opt, 3, unit, &traced);

    const std::size_t untraced = walls.size();
    const std::vector<double> timed(latencies.begin(),
                                    latencies.begin() + untraced);
    const std::vector<double> timed_rates(rates.begin(),
                                          rates.begin() + untraced);
    // Which backend's simulations overlap varies from unit to unit; the
    // largest sum is the one every run reaches.
    outcome.peakRssMb = *std::max_element(rss.begin(), rss.begin() + untraced);
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", median(timed), "s");
    report.metric("throughput_per_s", median(timed_rates), "1/s");
    // One sweep per unit: its latency is the unit's tail, and the
    // metric reads the same as wall_s.
    std::vector<std::vector<double>> sweep_ms;
    for (const double seconds : timed)
        sweep_ms.push_back({seconds * 1e3});
    reportLatency(report, sweep_ms, "coordinated sweep");
    reportUnits(report, timed);
    report.context("backends", 2.0);
    report.context("records_per_sweep",
                   statNumber(last_stats, "result_cache_entries"));
    report.line("records_per_s " + fmt("%.2f", median(timed_rates)) +
                " 1/s (records the fleet computed per second)");

    if (opt.trace) {
        const auto metric = [&](const std::string &path) {
            return statNumber(last_metrics, path);
        };
        report.metric("dist.chunks_dispatched",
                      metric("dist.chunks_dispatched"), "count");
        report.metric("dist.chunks_stolen",
                      metric("dist.chunks_stolen"), "count");
        report.metric("dist.rows_local", metric("dist.rows_local"), "count");
        report.metric("dist.records_pushed",
                      metric("dist.records_pushed"), "count");
        report.metric("dist.records_pulled",
                      metric("dist.records_pulled"), "count");
        const auto [lo, hi] =
            std::minmax_element(executed.begin(), executed.end());
        report.metric("dist.backend_skew", *hi / std::max(1.0, *lo), "ratio");
        report.metric("serve.executed",
                      statNumber(last_stats, "executed"), "count");
        report.metric("serve.cache_hits",
                      statNumber(last_stats, "cache_hits"), "count");
        report.metric("serve.coalesced",
                      statNumber(last_stats, "coalesced"), "count");
        report.metric("serve.overloaded",
                      statNumber(last_stats, "overloaded"), "count");
        report.metric("study.records_computed",
                   statNumber(last_stats, "result_cache_entries"), "count");
        report.metric("exec.cpu_util", cpu_util, "ratio");
        reportTracing(report, opt,
                      std::vector<double>(latencies.begin(),
                                          latencies.begin() + untraced),
                      std::vector<double>(latencies.begin() + untraced,
                                          latencies.end()));
    }
    return 0;
}

} // namespace perfbench
