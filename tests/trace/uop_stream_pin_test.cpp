/**
 * @file
 * Pins the synthetic uop streams bit for bit: a digest of the first 20k
 * uops of every SPEC model and of every PARSEC worker and serial kernel
 * (with the application's shared placement). Any change to the
 * generator's draws, their order or the address layout changes a digest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "trace/spec_profiles.h"
#include "trace/tracegen.h"
#include "workload/parsec.h"

namespace smtflex {
namespace {

constexpr int kPinnedOps = 20000;
constexpr std::uint64_t kSeed = 7;
constexpr std::uint32_t kThread = 3;

/** FNV-1a over every field of the first kPinnedOps uops of @p gen. */
std::uint64_t
streamDigest(TraceGenerator &gen)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (int i = 0; i < kPinnedOps; ++i) {
        const MicroOp op = gen.next();
        mix(static_cast<std::uint64_t>(op.cls), 1);
        mix(op.mispredict, 1);
        mix(op.fetchLineCross, 1);
        mix(op.depDist, 1);
        mix(op.addr, 8);
        mix(op.fetchAddr, 8);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digests of the streams as generated by the reference implementation. */
const std::map<std::string, std::string> &
pinnedDigests()
{
    static const std::map<std::string, std::string> digests = {
        {"spec/GemsFDTD", "2b65860927dd314c"},
        {"spec/astar", "06e4cfe7cefed55f"},
        {"spec/bwaves", "30a0a86fa049b794"},
        {"spec/bzip2", "59b3e25eb79563c9"},
        {"spec/cactusADM", "3cd1e6e152de44f1"},
        {"spec/calculix", "7f9652f8e6911c03"},
        {"spec/gamess", "3fa7678ab3d6dac4"},
        {"spec/gcc", "03813d07f602f361"},
        {"spec/gobmk", "dd9f9e238ee2546c"},
        {"spec/gromacs", "cc4a0a15bae0ab51"},
        {"spec/h264ref", "139ffbfab9da0aeb"},
        {"spec/hmmer", "75dc64df5bef5c1f"},
        {"spec/lbm", "3dc22da9567cdf8d"},
        {"spec/leslie3d", "c9a708daddba65c8"},
        {"spec/libquantum", "d12268164779cca0"},
        {"spec/mcf", "cd01da27797057e7"},
        {"spec/milc", "a6bf20248acfeedb"},
        {"spec/namd", "3b2a55db769c06fb"},
        {"spec/omnetpp", "53836dd26441b6e0"},
        {"spec/perlbench", "856889784416699a"},
        {"spec/povray", "6125aa5233ee3278"},
        {"spec/sjeng", "28dfb2f804a82a2c"},
        {"spec/soplex", "a2fae0f18b19dfbf"},
        {"spec/tonto", "c72a582b609f5ba3"},
        {"spec/xalancbmk", "079f800f42718b8e"},
        {"spec/zeusmp", "83fab64b7bef600f"},
        {"parsec/blackscholes/worker", "ce800a59019420c3"},
        {"parsec/blackscholes/serial", "f498ae0dc5d84109"},
        {"parsec/bodytrack/worker", "48178ff3f2a2d14c"},
        {"parsec/bodytrack/serial", "3828890d94f9d5f6"},
        {"parsec/canneal/worker", "0c15b29af32b41d0"},
        {"parsec/canneal/serial", "66029cdafd37dfdc"},
        {"parsec/dedup/worker", "17b7e32dd8d0def1"},
        {"parsec/dedup/serial", "29654a0639ae3586"},
        {"parsec/ferret/worker", "e72f205035bbec5d"},
        {"parsec/ferret/serial", "2a0013020b60b3a7"},
        {"parsec/freqmine/worker", "ee3fe366ca869211"},
        {"parsec/freqmine/serial", "fc1d7e86e369536a"},
        {"parsec/raytrace/worker", "9d1495adead5260b"},
        {"parsec/raytrace/serial", "86876b8fd51123bf"},
        {"parsec/streamcluster/worker", "ab2b3056cdd447ab"},
        {"parsec/streamcluster/serial", "30ec92a9b0c314e5"},
        {"parsec/swaptions/worker", "894db4c0d59fdcd0"},
        {"parsec/swaptions/serial", "f498ae0dc5d84109"},
        {"parsec/vips/worker", "564371da86fadcea"},
        {"parsec/vips/serial", "8c7ee73e09d0e657"},
        {"parsec/x264/worker", "0fd079f10092cddb"},
        {"parsec/x264/serial", "2a0013020b60b3a7"},
    };
    return digests;
}

void
expectPinned(const std::string &key, TraceGenerator &gen)
{
    const auto it = pinnedDigests().find(key);
    ASSERT_NE(it, pinnedDigests().end()) << "no pinned digest for " << key;
    EXPECT_EQ(hex(streamDigest(gen)), it->second) << key;
}

TEST(UopStreamPinTest, EverySpecModel)
{
    for (const BenchmarkProfile *p : specAllProfiles()) {
        TraceGenerator gen(*p, kSeed, kThread,
                           AddressSpace::forThread(kThread));
        expectPinned("spec/" + p->name, gen);
    }
}

TEST(UopStreamPinTest, EveryParsecKernelWithSharedPlacement)
{
    for (const ParsecProfile *app : parsecProfiles()) {
        // The ParsecRunner placement: a private segment plus the
        // application-wide shared segment.
        AddressSpace space = AddressSpace::forThread(kThread);
        space.sharedBase = Addr{1} << 35;
        space.sharedProb = app->sharedFraction;
        ASSERT_GT(space.sharedProb, 0.0) << app->name;
        TraceGenerator worker(app->kernel, kSeed, kThread, space);
        expectPinned("parsec/" + app->name + "/worker", worker);
        TraceGenerator serial(app->serialKernel, kSeed, 1000 + kThread,
                              space);
        expectPinned("parsec/" + app->name + "/serial", serial);
    }
}

TEST(UopStreamPinTest, ResetReplaysThePinnedStream)
{
    const BenchmarkProfile &p = specProfile("mcf");
    TraceGenerator gen(p, kSeed, kThread, AddressSpace::forThread(kThread));
    for (int i = 0; i < 1234; ++i)
        gen.next();
    gen.reset();
    expectPinned("spec/mcf", gen);
}

} // namespace
} // namespace smtflex
