/**
 * @file
 * Tests for the shared memory system: crossbar -> LLC -> DRAM latency
 * composition, writeback paths, and warmup installation.
 */

#include <gtest/gtest.h>

#include "sim/shared_memory.h"

namespace smtflex {
namespace {

ChipConfig
config()
{
    return ChipConfig::homogeneous("t", CoreParams::big(), 1);
}

TEST(SharedMemoryTest, LlcMissGoesToDramThenHits)
{
    SharedMemory mem(config());
    const Addr addr = 0x12345640;

    const Cycle miss = mem.fetchLine(1000, addr, 0);
    // xbar hop (4) + LLC lookup (20) + DRAM (142) + response hop (4).
    EXPECT_EQ(miss, 1000u + 4 + 20 + 142 + 4);
    EXPECT_EQ(mem.dram().stats().reads, 1u);

    const Cycle hit = mem.fetchLine(5000, addr, 0);
    EXPECT_EQ(hit, 5000u + 4 + 20 + 4);
    EXPECT_EQ(mem.dram().stats().reads, 1u); // no new DRAM access
}

TEST(SharedMemoryTest, WarmLineMakesFetchAnLlcHit)
{
    SharedMemory mem(config());
    mem.llc().install(0xabc040);
    const Cycle done = mem.fetchLine(100, 0xabc040, 0);
    EXPECT_EQ(done, 100u + 4 + 20 + 4);
    EXPECT_EQ(mem.dram().stats().reads, 0u);
}

TEST(SharedMemoryTest, WritebackAllocatesInLlc)
{
    SharedMemory mem(config());
    mem.writebackLine(10, 0x999940, 0);
    // The written-back line now hits in the LLC.
    const Cycle done = mem.fetchLine(1000, 0x999940, 0);
    EXPECT_EQ(done, 1000u + 4 + 20 + 4);
}

TEST(SharedMemoryTest, DirtyLlcVictimReachesDram)
{
    ChipConfig cfg = config();
    cfg.llc = {64 * 1024, 2}; // small LLC: easy to evict
    SharedMemory mem(cfg);
    // Write back far more dirty lines than the LLC holds.
    const std::uint64_t lines = (1 * 1024 * 1024) / kLineSize;
    for (std::uint64_t i = 0; i < lines; ++i)
        mem.writebackLine(i * 10, i * kLineSize, 0);
    EXPECT_GT(mem.dram().stats().writes, lines / 2);
}

TEST(SharedMemoryTest, BankContentionSerialisesSameBank)
{
    SharedMemory mem(config());
    // Warm both lines so only the crossbar/bank is exercised.
    const Addr a = 0 * kLineSize;
    const Addr b = 8 * kLineSize; // same LLC bank (8 banks)
    mem.llc().install(a);
    mem.llc().install(b);
    const Cycle first = mem.fetchLine(0, a, 0);
    const Cycle second = mem.fetchLine(0, b, 1);
    EXPECT_EQ(first, 0u + 4 + 20 + 4);
    EXPECT_GT(second, first); // queued behind the first at the bank
}

TEST(SharedMemoryTest, DifferentBanksProceedInParallel)
{
    SharedMemory mem(config());
    const Addr a = 0 * kLineSize;
    const Addr b = 1 * kLineSize;
    mem.llc().install(a);
    mem.llc().install(b);
    const Cycle first = mem.fetchLine(0, a, 0);
    const Cycle second = mem.fetchLine(0, b, 1);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace smtflex
