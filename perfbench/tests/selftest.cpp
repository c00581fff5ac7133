/**
 * @file
 * Self-tests of the benchmark's own helpers: order statistics, the tail
 * rule, span self-time arithmetic, and that every output check catches a
 * deliberately altered record, response or result.
 *
 *   ctest --test-dir .bench_build/perfbench
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.h"
#include "study/result_cache.h"

using namespace perfbench;
using smtflex::serve::Json;

namespace {

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                         __LINE__, #cond);                                  \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testMedian()
{
    CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
    CHECK(near(median({7.0}), 7.0));
}

void
testQuartiles()
{
    // Reference values from Python's statistics.quantiles(v, n=4).
    const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    CHECK(near(a[0], 2.75) && near(a[1], 5.5) && near(a[2], 8.25));
    const auto b = quartiles({1, 2});
    CHECK(near(b[0], 0.75) && near(b[1], 1.5) && near(b[2], 2.25));
    const auto c = quartiles({3.5, 1.25, 9.0, 4.0, 2.0});
    CHECK(near(c[0], 1.625) && near(c[1], 3.5) && near(c[2], 6.5));
    const auto d = quartiles({0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 0.95});
    CHECK(near(d[0], 0.9) && near(d[1], 1.0) && near(d[2], 1.2));
}

void
testTail()
{
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(i);
    const Tail small = tailOf(ten);
    CHECK(near(small.value, 10.0) && small.beyond == 0 &&
          near(small.percentile, 100.0) && small.samples == 10);

    std::vector<double> eleven = ten;
    eleven.push_back(11);
    const Tail edge = tailOf(eleven);
    CHECK(near(edge.value, 1.0) && edge.beyond == 10);

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    const Tail p90 = tailOf(hundred);
    CHECK(near(p90.value, 90.0) && p90.beyond == 10 &&
          near(p90.percentile, 90.0));

    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(i);
    const Tail p99 = tailOf(thousand);
    CHECK(near(p99.value, 990.0) && p99.beyond == 10 &&
          near(p99.percentile, 99.0));
}

void
testSelfTimes()
{
    // root [0,10] has children [1,3] and [2,5] (overlapping: [1,5]) and
    // [8,12] (clipped to [8,10]); [2,5] has a child [3,4].
    const std::vector<Span> spans = {
        {1, "study.row", 0.0, 10.0, 0}, {2, "sim.run", 1.0, 3.0, 1},
        {3, "sim.run", 2.0, 5.0, 1},    {4, "trace.gen", 3.0, 4.0, 3},
        {5, "sim.warmup", 8.0, 12.0, 1}};
    const std::vector<double> self = selfTimes(spans);
    CHECK(near(self[0], 10.0 - 4.0 - 2.0));
    CHECK(near(self[1], 2.0));
    CHECK(near(self[2], 3.0 - 1.0));
    CHECK(near(self[3], 1.0));
    CHECK(near(self[4], 4.0));

    const auto layers = layerSelfTimes(spans);
    CHECK(near(layers.at("study"), 4.0));
    CHECK(near(layers.at("sim"), 2.0 + 2.0 + 4.0));
    CHECK(near(layers.at("trace"), 1.0));

    const auto runs = spanDurations(spans, "sim.run");
    CHECK(runs.size() == 2 && near(runs[0], 2.0) && near(runs[1], 3.0));
}

void
testTracer()
{
    Tracer &tracer = Tracer::instance();
    tracer.clear();
    {
        ScopedSpan off("bench.unit");
    }
    CHECK(tracer.spans().empty());
    tracer.enable(true);
    {
        ScopedSpan outer("bench.unit");
        ScopedSpan inner("study.row");
    }
    tracer.enable(false);
    const auto spans = tracer.spans();
    CHECK(spans.size() == 2);
    CHECK(spans[0].parent == 0 && spans[1].parent == spans[0].id);
    CHECK(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
    tracer.clear();
}

void
testRecordCheck()
{
    smtflex::ResultCache reference("");
    reference.store("mp;4B;a", {1.0, 2.5, 3.0});
    reference.store("iso;mcf;B", {0.42});
    std::vector<Record> computed = {{"mp;4B;a", {1.0, 2.5, 3.0}},
                                    {"iso;mcf;B", {0.42}}};
    CHECK(checkRecords(computed, reference) == 0);

    // One value off by one unit in the last place.
    computed[0].second[1] = std::nextafter(2.5, 3.0);
    std::vector<std::string> bad;
    CHECK(checkRecords(computed, reference, &bad) == 1);
    CHECK(bad.size() == 1 && bad[0] == "mp;4B;a");

    // A missing value and a record the reference lacks.
    computed[0].second = {1.0, 2.5};
    computed.push_back({"mp;4B;b", {1.0}});
    CHECK(checkRecords(computed, reference) == 2);
}

void
testResponseCheck()
{
    Json reply = Json::object();
    reply.set("ok", Json::boolean(true));
    reply.set("output", Json::string("threads STP\n1 1.000\n"));
    CHECK(responseMatches(reply, "threads STP\n1 1.000\n"));
    CHECK(!responseMatches(reply, "threads STP\n1 1.001\n"));
    CHECK(!responseMatches(reply, "threads STP\n1 1.000"));

    Json error = Json::object();
    error.set("ok", Json::boolean(false));
    error.set("error", Json::string("failed"));
    CHECK(!responseMatches(error, ""));
    CHECK(!responseMatches(Json::object(), ""));
}

void
testDigest()
{
    smtflex::SimResult a;
    a.cycles = 1000;
    a.threads.resize(1);
    a.threads[0].benchmark = "mcf";
    a.threads[0].finishCycle = 900;
    a.metrics.set("llc.accesses",
                  smtflex::telemetry::MetricValue::u64(12'345));
    a.metrics.set("chip.ipc", smtflex::telemetry::MetricValue::real(1.5));
    const smtflex::SimResult same = a;
    CHECK(resultDigest(a) == resultDigest(same));

    smtflex::SimResult counter = a;
    counter.metrics.set("llc.accesses",
                        smtflex::telemetry::MetricValue::u64(12'346));
    CHECK(resultDigest(a) != resultDigest(counter));

    smtflex::SimResult real = a;
    real.metrics.set("chip.ipc", smtflex::telemetry::MetricValue::real(
                                     std::nextafter(1.5, 2.0)));
    CHECK(resultDigest(a) != resultDigest(real));

    smtflex::SimResult thread = a;
    thread.threads[0].finishCycle = 901;
    CHECK(resultDigest(a) != resultDigest(thread));
}

} // namespace

int
main()
{
    testMedian();
    testQuartiles();
    testTail();
    testSelfTimes();
    testTracer();
    testRecordCheck();
    testResponseCheck();
    testDigest();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}
