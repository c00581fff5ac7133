/**
 * @file
 * Tests for the functional-warmup support: resident-line and resident-run
 * enumeration, cache installation and the newest-first fill.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/log.h"
#include "trace/tracegen.h"

namespace smtflex {
namespace {

BenchmarkProfile
warmProfile()
{
    BenchmarkProfile p;
    p.name = "warm-test";
    p.mix = {.load = 0.3, .store = 0.1, .intAlu = 0.4, .intMul = 0.0,
             .fp = 0.1, .branch = 0.1};
    p.codeFootprint = 8 * 1024;
    p.regions = {{16 * 1024, 0.5, false},
                 {64 * 1024, 0.3, false},
                 {32 * 1024 * 1024, 0.2, true}}; // streaming: skipped
    return p;
}

TEST(ResidentLinesTest, EnumeratesNonStreamingRegionsAndCode)
{
    const auto p = warmProfile();
    const AddressSpace space = AddressSpace::forThread(3);
    std::size_t data_lines = 0, code_lines = 0;
    TraceGenerator::forEachResidentLine(
        p, space, 8 * 1024 * 1024, [&](Addr, bool is_code) {
            ++(is_code ? code_lines : data_lines);
        });
    EXPECT_EQ(data_lines, (16 * 1024 + 64 * 1024) / kLineSize);
    EXPECT_EQ(code_lines, 8 * 1024 / kLineSize);
}

TEST(ResidentLinesTest, SkipsOversizedRegions)
{
    auto p = warmProfile();
    p.regions[1].bytes = 64 * 1024 * 1024; // now beyond the cap
    p.regions[1].streaming = false;
    std::size_t data_lines = 0;
    TraceGenerator::forEachResidentLine(
        p, AddressSpace::forThread(0), 8 * 1024 * 1024,
        [&](Addr, bool is_code) { data_lines += !is_code; });
    EXPECT_EQ(data_lines, (16 * 1024) / kLineSize);
}

TEST(ResidentLinesTest, LargestRegionFirstHottestLast)
{
    const auto p = warmProfile();
    // Lines of one region are visited contiguously (cold end down to hot
    // end); a non-sequential jump marks a region switch.
    std::vector<std::size_t> sizes_seen;
    std::size_t current = 0;
    Addr prev = 0;
    TraceGenerator::forEachResidentLine(
        p, AddressSpace::forThread(0), 8 * 1024 * 1024,
        [&](Addr addr, bool is_code) {
            if (is_code)
                return;
            if (current == 0 || addr + kLineSize == prev) {
                ++current;
            } else {
                sizes_seen.push_back(current);
                current = 1;
            }
            prev = addr;
        });
    sizes_seen.push_back(current);
    ASSERT_EQ(sizes_seen.size(), 2u);
    EXPECT_GT(sizes_seen[0], sizes_seen[1]) << "largest region first";
}

TEST(ResidentLinesTest, CoverageMatchesGeneratedAddresses)
{
    // Every non-streaming address the generator produces must be inside
    // the enumerated resident set.
    const auto p = warmProfile();
    const AddressSpace space = AddressSpace::forThread(7);
    std::set<Addr> resident;
    TraceGenerator::forEachResidentLine(
        p, space, 8 * 1024 * 1024,
        [&](Addr addr, bool) { resident.insert(lineAlign(addr)); });

    TraceGenerator gen(p, 11, 7, space);
    std::size_t checked = 0, covered = 0;
    for (int i = 0; i < 30000; ++i) {
        const MicroOp op = gen.next();
        if (op.isMem()) {
            ++checked;
            covered += resident.count(lineAlign(op.addr)) > 0;
        }
        if (op.fetchLineCross) {
            ++checked;
            covered += resident.count(op.fetchAddr) > 0;
        }
    }
    // Streaming region accesses (~20% of data) are intentionally absent.
    EXPECT_GT(static_cast<double>(covered) / checked, 0.70);
}

TEST(ResidentLinesTest, SharedSpaceVisitsBothPlacements)
{
    auto p = warmProfile();
    AddressSpace space = AddressSpace::forThread(1);
    space.sharedBase = Addr{1} << 35;
    space.sharedProb = 0.5;
    std::size_t data_lines = 0;
    TraceGenerator::forEachResidentLine(
        p, space, 8 * 1024 * 1024,
        [&](Addr, bool is_code) { data_lines += !is_code; });
    // Private + shared copies of both resident regions.
    EXPECT_EQ(data_lines, 2 * (16 * 1024 + 64 * 1024) / kLineSize);
}

/** forEachResidentRange expanded line by line. */
std::vector<std::pair<Addr, bool>>
expandRanges(const BenchmarkProfile &p, const AddressSpace &space,
             std::uint64_t max_region_bytes)
{
    std::vector<std::pair<Addr, bool>> lines;
    TraceGenerator::forEachResidentRange(
        p, space, max_region_bytes, [&](const ResidentRange &range) {
            EXPECT_GT(range.lines, 0u) << "empty runs are not visited";
            for (std::uint64_t k = 0; k < range.lines; ++k)
                lines.emplace_back(range.at(k), range.isCode);
        });
    return lines;
}

TEST(ResidentRangesTest, ExpandToTheResidentLinesInOrder)
{
    auto p = warmProfile();
    p.regions = {{16 * 1024 + 40, 0.3, false},       // not line-multiple
                 {64 * 1024, 0.3, false},
                 {20 * 1024 * 1024, 0.2, false},     // oversized: skipped
                 {32 * 1024 * 1024, 0.2, true}};     // streaming: skipped
    p.codeFootprint = 8 * 1024 + 8; // a partial last code line
    AddressSpace shared = AddressSpace::forThread(5);
    shared.sharedBase = Addr{1} << 35;
    shared.sharedProb = 0.25;
    for (const AddressSpace &space : {AddressSpace::forThread(5), shared}) {
        std::vector<std::pair<Addr, bool>> lines;
        TraceGenerator::forEachResidentLine(
            p, space, 8 * 1024 * 1024, [&](Addr addr, bool is_code) {
                lines.emplace_back(addr, is_code);
            });
        EXPECT_EQ(expandRanges(p, space, 8 * 1024 * 1024), lines);

        const std::size_t placements = space.sharedProb > 0.0 ? 2 : 1;
        const std::size_t data = placements * (16 * 1024 + 64 * 1024) /
            kLineSize;
        ASSERT_EQ(lines.size(), data + 8 * 1024 / kLineSize + 1);
        // The unaligned region comes second (largest first) and starts
        // one line below its unaligned end.
        const Addr first_small = lines[placements * 64 * 1024 / kLineSize]
                                     .first;
        EXPECT_EQ(first_small % kLineSize, 40u);
        EXPECT_EQ(lines.back(),
                  std::make_pair(space.privateBase + 8 * 1024, true));
    }
}

TEST(ResidentRangesTest, RunsAreContiguousAndTyped)
{
    AddressSpace space = AddressSpace::forThread(2);
    space.sharedBase = Addr{1} << 35;
    space.sharedProb = 0.5;
    std::vector<ResidentRange> runs;
    TraceGenerator::forEachResidentRange(
        warmProfile(), space, 8 * 1024 * 1024,
        [&](const ResidentRange &range) { runs.push_back(range); });
    // Two placements of the two resident regions, then the code.
    ASSERT_EQ(runs.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(runs[i].descending);
        EXPECT_FALSE(runs[i].isCode);
    }
    EXPECT_EQ(runs[0].lines, 64u * 1024 / kLineSize);
    EXPECT_EQ(runs[2].lines, 16u * 1024 / kLineSize);
    EXPECT_EQ(runs[4].first, space.privateBase);
    EXPECT_FALSE(runs[4].descending);
    EXPECT_TRUE(runs[4].isCode);
    EXPECT_EQ(runs[1].at(1) + kLineSize, runs[1].at(0));
}

TEST(CacheInstallTest, InstallMakesLinesResidentWithoutStats)
{
    SetAssocCache cache("w", {32 * 1024, 4});
    for (Addr a = 0; a < 16 * 1024; a += kLineSize)
        cache.install(a);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    std::uint64_t hits = 0;
    for (Addr a = 0; a < 16 * 1024; a += kLineSize)
        hits += cache.access(a, false).hit;
    EXPECT_EQ(hits, 16u * 1024 / kLineSize);
}

TEST(CacheInstallTest, InstallRespectsLru)
{
    SetAssocCache cache("tiny", {128, 2}); // one set, two ways
    cache.install(0 * 64);
    cache.install(1 * 64);
    cache.install(2 * 64); // evicts line 0 (LRU)
    EXPECT_FALSE(cache.contains(0 * 64));
    EXPECT_TRUE(cache.contains(1 * 64));
    EXPECT_TRUE(cache.contains(2 * 64));
}

TEST(CacheInstallTest, InstallOverDirtyLineDropsItSilently)
{
    SetAssocCache cache("tiny", {128, 2});
    cache.access(0 * 64, true); // dirty via normal access
    cache.access(1 * 64, true);
    cache.install(2 * 64); // evicts the dirty LRU silently
    EXPECT_EQ(cache.stats().writebacks, 0u);
    EXPECT_TRUE(cache.contains(2 * 64));
}

TEST(NewestFirstFillTest, MatchesInstallsInReverse)
{
    // One set, two ways: installs 0,1,2,1 leave 2 (stamp 3) and 1 (4).
    SetAssocCache installed("tiny", {128, 2});
    for (const Addr line : {0, 1, 2, 1})
        installed.install(line * 64);
    SetAssocCache filled("tiny", {128, 2});
    SetAssocCache::NewestFirstFill fill(filled, 4);
    EXPECT_TRUE(fill.place(1 * 64));
    EXPECT_FALSE(fill.place(2 * 64)) << "set full: the walk may stop";
    for (SetAssocCache *cache : {&installed, &filled}) {
        EXPECT_FALSE(cache->contains(0 * 64));
        EXPECT_TRUE(cache->contains(1 * 64));
        EXPECT_TRUE(cache->contains(2 * 64));
        EXPECT_EQ(cache->stats().accesses, 0u);
    }
    // Victim choice agrees: line 2 is the LRU line in both.
    installed.access(3 * 64, false);
    filled.access(3 * 64, false);
    EXPECT_FALSE(installed.contains(2 * 64));
    EXPECT_FALSE(filled.contains(2 * 64));
    EXPECT_TRUE(filled.contains(1 * 64));
}

TEST(NewestFirstFillTest, SkipsADuplicateOfANewerInstall)
{
    SetAssocCache cache("tiny", {128, 2});
    SetAssocCache::NewestFirstFill fill(cache, 3);
    EXPECT_TRUE(fill.place(1 * 64));
    EXPECT_TRUE(fill.place(1 * 64)) << "older copy: skipped, set not full";
    EXPECT_FALSE(fill.place(0 * 64));
    EXPECT_TRUE(cache.contains(0 * 64));
}

TEST(NewestFirstFillTest, RefusesAUsedCacheNamingIt)
{
    SetAssocCache cache("l1d-core3", {128, 2});
    cache.access(0, false);
    try {
        SetAssocCache::NewestFirstFill fill(cache, 1);
        FAIL() << "a used cache was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("l1d-core3"),
                  std::string::npos);
    }
}

} // namespace
} // namespace smtflex
