/**
 * @file
 * Tests for the MorphCore model: mode selection, drain-and-switch
 * semantics, performance characteristics in each mode, exact agreement
 * with OooCore while in out-of-order mode, and digests that pin every
 * scenario's final state bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "common/log.h"
#include "tests/uarch/test_helpers.h"
#include "trace/spec_profiles.h"
#include "uarch/inorder_core.h"
#include "uarch/morph_core.h"
#include "uarch/ooo_core.h"

namespace smtflex {
namespace {

using test::FixedLatencyMemory;
using test::ProfileThread;
using test::runCycles;

CoreParams
morphPersonality()
{
    CoreParams p = CoreParams::big();
    p.maxSmtContexts = 8; // MorphCore: 2-way OoO / 8-way in-order SMT
    return p;
}

/** A MorphCore on a fixed-latency memory, with the threads it runs. */
struct MorphRig
{
    MorphRig(const MorphParams &morph, Cycle mem_latency)
        : mem(mem_latency),
          core(morphPersonality(), morph, 0, 8, &mem, 2.66)
    {
    }

    /** Create @p n threads of @p bench; attach them to slots 0..n-1
     * unless @p attach is false. */
    void addThreads(const char *bench, std::uint32_t n, bool attach = true)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            threads.push_back(std::make_unique<ProfileThread>(
                specProfile(bench), i, 1u << 30));
            if (attach)
                core.attachThread(i, threads.back().get());
        }
    }

    FixedLatencyMemory mem;
    MorphCore core;
    std::vector<std::unique_ptr<ProfileThread>> threads;
};

/** One hmmer thread: stays out-of-order. */
std::unique_ptr<MorphRig>
stayOoo()
{
    auto rig = std::make_unique<MorphRig>(MorphParams{}, 40);
    rig->addThreads("hmmer", 1);
    runCycles(rig->core, 20000);
    return rig;
}

/** Six hmmer threads: morphs to in-order once. */
std::unique_ptr<MorphRig>
morphAtSixThreads()
{
    auto rig = std::make_unique<MorphRig>(MorphParams{}, 40);
    rig->addThreads("hmmer", 6);
    runCycles(rig->core, 20000);
    return rig;
}

/** Four gobmk threads, then two leave: morphs to in-order and back. */
std::unique_ptr<MorphRig>
morphBack()
{
    auto rig = std::make_unique<MorphRig>(MorphParams{}, 40);
    rig->addThreads("gobmk", 4);
    runCycles(rig->core, 10000);
    EXPECT_FALSE(rig->core.inOooMode());
    rig->core.detachThread(2);
    rig->core.detachThread(3);
    runCycles(rig->core, 10000, 10000);
    return rig;
}

/** A 500-cycle switch penalty and threads crossing the limit every 3000
 * cycles. */
std::unique_ptr<MorphRig>
penaltyChurn()
{
    MorphParams morph;
    morph.switchPenalty = 500;
    auto rig = std::make_unique<MorphRig>(morph, 40);
    rig->addThreads("hmmer", 4, false);
    MorphCore &core = rig->core;
    core.attachThread(0, rig->threads[0].get());
    Cycle now = 0;
    for (int round = 0; round < 4; ++round) {
        core.attachThread(1, rig->threads[1].get());
        core.attachThread(2, rig->threads[2].get());
        runCycles(core, 3000, now);
        now += 3000;
        core.detachThread(1);
        core.detachThread(2);
        runCycles(core, 3000, now);
        now += 3000;
    }
    return rig;
}

/** Eight mcf threads on a 150-cycle memory under @p ooo_limit. */
std::unique_ptr<MorphRig>
mcfEightThreads(std::uint32_t ooo_limit)
{
    MorphParams morph;
    morph.oooThreadLimit = ooo_limit;
    auto rig = std::make_unique<MorphRig>(morph, 150);
    rig->addThreads("mcf", 8);
    runCycles(rig->core, 40000);
    return rig;
}

/** Every CoreStats field of @p a equals the one of @p b. */
void
expectSameStats(const CoreStats &a, const CoreStats &b,
                const std::string &what)
{
    CoreStats::forEachCounter([&](const char *name, auto member) {
        EXPECT_EQ(a.*member, b.*member) << what << ": " << name;
    });
    for (int c = 0; c < kNumOpClasses; ++c)
        EXPECT_EQ(a.dispatched[c], b.dispatched[c])
            << what << ": dispatched " << c;
}

TEST(MorphCoreTest, StartsInOooModeAndStaysThereWithFewThreads)
{
    // Up to oooThreadLimit threads, MorphCore is exactly the configured
    // out-of-order core: every counter agrees with an OooCore.
    for (const char *bench : {"hmmer", "mcf", "gobmk"}) {
        for (std::uint32_t n = 1; n <= 2; ++n) {
            FixedLatencyMemory mem(40);
            MorphCore core(morphPersonality(), MorphParams{}, 0, 8, &mem,
                           2.66);
            FixedLatencyMemory mem2(40);
            OooCore ooo(morphPersonality(), 0, 8, &mem2, 2.66);
            std::vector<std::unique_ptr<ProfileThread>> threads;
            for (std::uint32_t i = 0; i < n; ++i) {
                threads.push_back(std::make_unique<ProfileThread>(
                    specProfile(bench), i, 1u << 30));
                core.attachThread(i, threads.back().get());
                threads.push_back(std::make_unique<ProfileThread>(
                    specProfile(bench), i, 1u << 30));
                ooo.attachThread(i, threads.back().get());
            }
            runCycles(core, 20000);
            runCycles(ooo, 20000);
            const std::string what =
                std::string(bench) + " x" + std::to_string(n);
            EXPECT_TRUE(core.inOooMode()) << what;
            EXPECT_EQ(core.modeSwitches(), 0u) << what;
            EXPECT_GT(core.stats().retired, 0u) << what;
            expectSameStats(core.stats(), ooo.stats(), what);
        }
    }
}

TEST(MorphCoreTest, MorphsToInOrderWhenThreadsExceedLimit)
{
    const auto rig = morphAtSixThreads();
    EXPECT_FALSE(rig->core.inOooMode());
    EXPECT_EQ(rig->core.modeSwitches(), 1u);
    EXPECT_GT(rig->core.stats().retired, 5000u) << "in-order mode must run";
}

TEST(MorphCoreTest, MorphsBackWhenThreadsLeave)
{
    const auto rig = morphBack();
    EXPECT_TRUE(rig->core.inOooMode());
    EXPECT_EQ(rig->core.modeSwitches(), 2u);
}

TEST(MorphCoreTest, SwitchDrainsBeforeMorphing)
{
    // With a huge switch penalty, frequent attach/detach around the limit
    // must not corrupt anything — retires keep flowing eventually.
    const auto rig = penaltyChurn();
    EXPECT_GE(rig->core.modeSwitches(), 4u);
    EXPECT_GT(rig->core.stats().retired, 10000u);
}

TEST(MorphCoreTest, InOrderModeStaysCompetitiveAtHighThreadCounts)
{
    // MorphCore's in-order-SMT mode trades the OoO window for simplicity
    // (its real pitch is energy). On latency-bound code the barrel of 8
    // threads must stay within striking distance of partitioned-ROB SMT,
    // not collapse.
    const auto in_order_mode = mcfEightThreads(2)->core.stats().retired;
    const auto forced_ooo = mcfEightThreads(8)->core.stats().retired;
    EXPECT_GT(in_order_mode, forced_ooo * 2 / 5)
        << "in-order SMT mode must not collapse";
    EXPECT_LT(in_order_mode, forced_ooo)
        << "the OoO window should still win throughput (MorphCore's "
           "advantage is energy, which this timing model does not "
           "credit)";
}

TEST(MorphCoreTest, RequiresOooPersonality)
{
    FixedLatencyMemory mem(40);
    EXPECT_THROW(MorphCore(CoreParams::small(), MorphParams{}, 0, 2, &mem,
                           2.66),
                 FatalError);
    MorphParams bad;
    bad.oooThreadLimit = 0;
    EXPECT_THROW(MorphCore(morphPersonality(), bad, 0, 8, &mem, 2.66),
                 FatalError);
}

/**
 * FNV-1a over @p rig's CoreStats, mode, mode-switch count and saveState()
 * bytes, with threads serialized by their index in the rig.
 */
std::string
stateDigest(const MorphRig &rig)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    const CoreStats &stats = rig.core.stats();
    CoreStats::forEachCounter(
        [&](const char *, auto member) { mix(stats.*member, 8); });
    for (const std::uint64_t d : stats.dispatched)
        mix(d, 8);
    mix(rig.core.modeSwitches(), 8);
    mix(rig.core.inOooMode(), 1);
    ckpt::Writer w;
    rig.core.saveState(w, [&rig](const ThreadSource *t) {
        const auto it = std::find_if(
            rig.threads.begin(), rig.threads.end(),
            [t](const auto &owned) { return owned.get() == t; });
        return static_cast<std::uint32_t>(it - rig.threads.begin());
    });
    for (const std::uint8_t b : w.bytes())
        mix(b, 1);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// The digests were taken from the MorphCore that kept its own copies of
// the out-of-order and in-order pipelines; they show that the shared
// bodies reproduce it bit for bit.

TEST(MorphCorePinTest, StaysOoo)
{
    EXPECT_EQ(stateDigest(*stayOoo()), "5d0af23a0194ef54");
}

TEST(MorphCorePinTest, MorphsAtSixThreads)
{
    EXPECT_EQ(stateDigest(*morphAtSixThreads()), "d39b0bf777c020ec");
}

TEST(MorphCorePinTest, MorphsBack)
{
    EXPECT_EQ(stateDigest(*morphBack()), "86bbf7776e678366");
}

TEST(MorphCorePinTest, PenaltyChurn)
{
    EXPECT_EQ(stateDigest(*penaltyChurn()), "16b3be4c454d3e53");
}

TEST(MorphCorePinTest, McfUnderBothThreadLimits)
{
    EXPECT_EQ(stateDigest(*mcfEightThreads(2)), "e914043aca1dc226");
    EXPECT_EQ(stateDigest(*mcfEightThreads(8)), "2bc7d24b884703d0");
}

} // namespace
} // namespace smtflex
