/**
 * @file
 * Pins the cache snapshot bytes: a fixed sequence of access(), install()
 * and newest-first fills, then a digest of saveState(). The digests were
 * taken from the array-of-lines tag store that preceded the flat one, so
 * they show that snapshots written by either store load into the other
 * and resume identically. A loadState() -> saveState() round trip over
 * caches with invalid ways completes the argument.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"

namespace smtflex {
namespace {

constexpr std::uint64_t kKiB = 1024;

std::string
digest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::uint8_t>
snapshot(const SetAssocCache &cache)
{
    ckpt::Writer w;
    cache.saveState(w);
    return w.take();
}

/** Demand accesses (some writes, some prefetch-tagged fills) and
 * functional installs over a footprint twice the cache, from @p rng. */
void
mixedTraffic(SetAssocCache &cache, Rng &rng, int ops)
{
    const std::uint64_t lines = 2 * cache.geometry().numLines();
    for (int i = 0; i < ops; ++i) {
        const Addr addr = rng.nextRange(lines) * 64 + rng.nextRange(64);
        switch (rng.nextRange(4)) {
          case 0:
            cache.install(addr);
            break;
          case 1:
            cache.access(addr, true);
            break;
          case 2:
            cache.access(addr, false, true);
            break;
          default:
            cache.access(addr, false);
            break;
        }
    }
}

/** A newest-first fill that stops early (invalid ways remain), then
 * traffic on top of it. */
SetAssocCache
filledThenUsed(const CacheGeometry &geometry, std::uint64_t seed)
{
    SetAssocCache cache("pin", geometry);
    Rng rng(seed);
    const std::uint64_t installs = geometry.numLines() / 2;
    SetAssocCache::NewestFirstFill fill(cache, installs);
    for (std::uint64_t k = 0; k < installs; ++k)
        fill.place(rng.nextRange(4 * geometry.numLines()) * 64);
    mixedTraffic(cache, rng, static_cast<int>(geometry.numLines()));
    return cache;
}

/** Traffic from empty, touching a quarter of the footprint so that some
 * sets keep invalid ways. */
SetAssocCache
partlyUsed(const CacheGeometry &geometry, std::uint64_t seed)
{
    SetAssocCache cache("pin", geometry);
    Rng rng(seed);
    mixedTraffic(cache, rng, static_cast<int>(geometry.numLines() / 4));
    return cache;
}

// 48 KB 4-way has 192 sets (the exact non-power-of-two index), 32 KB
// 4-way 128 (the mask); 6 KB 2-way is the small core's L1.
const CacheGeometry kSmallL2{48 * kKiB, 4};
const CacheGeometry kBigL1{32 * kKiB, 4};
const CacheGeometry kSmallL1{6 * kKiB, 2};

TEST(CacheSnapshotPinTest, FixedSequenceDigests)
{
    EXPECT_EQ(digest(snapshot(filledThenUsed(kSmallL2, 1))),
              "02fccc234f272193");
    EXPECT_EQ(digest(snapshot(filledThenUsed(kBigL1, 2))),
              "41d2a7f1bfd5a887");
    EXPECT_EQ(digest(snapshot(partlyUsed(kSmallL1, 3))),
              "88e3758c7ce4d6eb");
    EXPECT_EQ(digest(snapshot(partlyUsed(kSmallL2, 4))),
              "ebe4653e9b3b6197");
}

TEST(CacheSnapshotPinTest, RoundTripWithInvalidWaysResumesIdentically)
{
    for (const CacheGeometry &geometry : {kSmallL2, kBigL1, kSmallL1}) {
        for (int variant = 0; variant < 2; ++variant) {
            SetAssocCache original = variant == 0
                ? filledThenUsed(geometry, 11)
                : partlyUsed(geometry, 12);
            const std::vector<std::uint8_t> bytes = snapshot(original);

            SetAssocCache restored("pin", geometry);
            ckpt::Reader r(bytes);
            restored.loadState(r);
            EXPECT_TRUE(r.atEnd());
            ASSERT_EQ(snapshot(restored), bytes);

            // Both continue with the same traffic: same results, same
            // state.
            Rng rng(13);
            const std::uint64_t lines = 2 * geometry.numLines();
            for (int i = 0; i < 4000; ++i) {
                const Addr addr = rng.nextRange(lines) * 64;
                const bool write = rng.nextBool(0.3);
                const CacheAccessResult x = original.access(addr, write);
                const CacheAccessResult y = restored.access(addr, write);
                ASSERT_EQ(x.hit, y.hit);
                ASSERT_EQ(x.hitPrefetched, y.hitPrefetched);
                ASSERT_EQ(x.writeback, y.writeback);
                ASSERT_EQ(x.victimAddr, y.victimAddr);
            }
            EXPECT_EQ(snapshot(original), snapshot(restored));
        }
    }
}

} // namespace
} // namespace smtflex
