/**
 * @file
 * Property test of the divide-free set index: for every cache geometry of
 * the modelled chips it must equal (addr / lineSize) % numSets, on random
 * 64-bit addresses and on the edges of the reduction.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cache/cache.h"
#include "common/log.h"
#include "common/rng.h"
#include "sim/chip_config.h"
#include "uarch/core_params.h"

namespace smtflex {
namespace {

std::vector<CacheGeometry>
modelledGeometries()
{
    std::vector<CacheGeometry> out;
    for (const CoreParams &p :
         {CoreParams::big(), CoreParams::medium(), CoreParams::small(),
          CoreParams::medium().withBigCaches(),
          CoreParams::small().withBigCaches()}) {
        out.push_back(p.l1i);
        out.push_back(p.l1d);
        out.push_back(p.l2);
    }
    out.push_back(ChipConfig{}.llc);
    return out;
}

void
expectExact(const CacheGeometry &g, const SetIndex &index, Addr addr)
{
    ASSERT_EQ(index(addr), (addr / g.lineSize) % g.numSets())
        << "addr " << addr << " sets " << g.numSets();
}

TEST(SetIndexTest, MatchesDivisionOnEveryModelledGeometry)
{
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    Rng rng(2014);
    for (const CacheGeometry &g : modelledGeometries()) {
        const SetIndex index(g.lineSize, g.numSets());
        const std::uint64_t sets = g.numSets();
        for (int i = 0; i < 200000; ++i)
            expectExact(g, index, rng.next());
        for (const Addr addr : {Addr{0}, kMax, kMax - g.lineSize, Addr{1},
                                Addr{g.lineSize - 1}, Addr{g.lineSize}})
            expectExact(g, index, addr);
        // k * numSets +- 1 lines, across the whole line-number range.
        const std::uint64_t max_line = kMax / g.lineSize;
        for (std::uint64_t k = 0; k < 2000; ++k) {
            for (const std::uint64_t kk :
                 {k, max_line / sets - k, rng.nextRange(max_line / sets)}) {
                const std::uint64_t centre = kk * sets;
                for (const std::uint64_t line :
                     {centre - 1, centre, centre + 1}) {
                    if (line > max_line)
                        continue;
                    for (const Addr offset : {Addr{0}, Addr{g.lineSize - 1}})
                        expectExact(g, index, line * g.lineSize + offset);
                }
            }
        }
    }
}

TEST(SetIndexTest, ModelledGeometriesCoverBothReductions)
{
    // The 6 KB and 48 KB caches of the small core have 48 and 192 sets:
    // the multiply-high path; the rest are powers of two: the mask.
    bool pow2 = false, other = false;
    for (const CacheGeometry &g : modelledGeometries()) {
        const std::uint64_t sets = g.numSets();
        ((sets & (sets - 1)) == 0 ? pow2 : other) = true;
    }
    EXPECT_TRUE(pow2);
    EXPECT_TRUE(other);
}

TEST(SetIndexTest, NonPowerOfTwoLineSizeIsRejected)
{
    EXPECT_THROW(SetAssocCache("odd", {96 * 48, 4, 48}), FatalError);
}

} // namespace
} // namespace smtflex
