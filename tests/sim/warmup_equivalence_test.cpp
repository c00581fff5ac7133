/**
 * @file
 * Differential test of ChipSim::warmAllCaches against one-by-one
 * installation: the newest-first fill must leave every cache with the
 * same lines, LRU stamps and clock as installing each thread's resident
 * lines in 128-line chunks, threads in spec order within a chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.h"
#include "sim/chip_sim.h"
#include "study/design_space.h"
#include "trace/spec_profiles.h"
#include "workload/parsec.h"

namespace smtflex {
namespace {

/** A cache's state with the way order taken out: per set, the sorted
 * (valid, tag, stamp, dirty, prefetched) tuples of its ways. */
struct CacheImage
{
    using Way = std::tuple<bool, Addr, std::uint64_t, bool, bool>;

    std::uint64_t clock = 0;
    std::vector<std::uint64_t> stats;
    std::vector<std::vector<Way>> sets;

    bool operator==(const CacheImage &) const = default;
};

CacheImage
imageOf(const SetAssocCache &cache)
{
    ckpt::Writer w;
    cache.saveState(w);
    ckpt::Reader r(w.bytes());
    CacheImage image;
    image.clock = r.u64();
    CacheStats::forEachCounter(
        [&](const char *, auto) { image.stats.push_back(r.u64()); });
    const std::uint32_t lines = r.u32();
    const std::uint32_t assoc = cache.geometry().assoc;
    image.sets.resize(lines / assoc);
    for (std::uint32_t i = 0; i < lines; ++i) {
        const Addr tag = r.u64();
        const std::uint64_t stamp = r.u64();
        const bool valid = r.boolean();
        const bool dirty = r.boolean();
        const bool prefetched = r.boolean();
        image.sets[i / assoc].emplace_back(valid, tag, stamp, dirty,
                                           prefetched);
    }
    r.expectEnd();
    for (auto &set : image.sets)
        std::sort(set.begin(), set.end());
    return image;
}

/** Every cache of the chip, LLC first, then L2/L1I/L1D per core. */
std::vector<std::pair<std::string, CacheImage>>
imagesOf(ChipSim &chip)
{
    std::vector<std::pair<std::string, CacheImage>> images;
    images.emplace_back("llc", imageOf(chip.sharedMemory().llc()));
    for (std::uint32_t c = 0; c < chip.numCores(); ++c) {
        const PrivateHierarchy &h = chip.core(c).hierarchy();
        const std::string core = "core" + std::to_string(c) + ".";
        images.emplace_back(core + "l2", imageOf(h.l2()));
        images.emplace_back(core + "l1i", imageOf(h.l1i()));
        images.emplace_back(core + "l1d", imageOf(h.l1d()));
    }
    return images;
}

/**
 * The reference: list each thread's resident lines, then install them
 * one by one — per chunk of @p chunk_lines lines and thread, into the
 * core's L2, its L1I or L1D, and the LLC.
 */
void
installOneByOne(ChipSim &chip, const ChipConfig &config,
                const std::vector<ChipSim::WarmSpec> &specs,
                std::size_t chunk_lines)
{
    std::vector<std::vector<std::pair<Addr, bool>>> lines(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        TraceGenerator::forEachResidentLine(
            *specs[i].profile, specs[i].space, config.llc.sizeBytes,
            [&](Addr addr, bool is_code) {
                lines[i].emplace_back(addr, is_code);
            });
    }
    for (std::size_t begin = 0;; begin += chunk_lines) {
        bool more = false;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::size_t end =
                std::min(begin + chunk_lines, lines[i].size());
            PrivateHierarchy &h = chip.core(specs[i].core).hierarchy();
            for (std::size_t k = begin; k < end; ++k) {
                const auto [addr, is_code] = lines[i][k];
                h.l2().install(addr);
                (is_code ? h.l1i() : h.l1d()).install(addr);
                chip.sharedMemory().llc().install(addr);
                more = true;
            }
        }
        if (!more)
            break;
    }
}

struct WarmCase
{
    std::string design;
    std::uint32_t threads;
    /** PARSEC kernel sharing one data base; empty: SPEC mix. */
    std::string parsec;
};

/** Thread i runs on core (i / 2) % cores: pairs share a core (SMT), and
 * large counts put more threads on a core than it has contexts. */
std::vector<ChipSim::WarmSpec>
warmSpecs(const WarmCase &c, const ChipConfig &config)
{
    std::vector<ChipSim::WarmSpec> specs;
    for (std::uint32_t i = 0; i < c.threads; ++i) {
        const std::uint32_t core = (i / 2) % config.numCores();
        if (c.parsec.empty()) {
            const auto &names = specBenchmarkNames();
            specs.push_back({&specProfile(names[i % names.size()]),
                             AddressSpace::forThread(i), core});
        } else {
            const ParsecProfile &app = parsecProfile(c.parsec);
            AddressSpace space = AddressSpace::forThread(i);
            space.sharedBase = Addr{1} << 35;
            space.sharedProb = app.sharedFraction;
            specs.push_back({&app.kernel, space, core});
        }
    }
    return specs;
}

/** Caches whose state differs between the fill and the reference. */
std::vector<std::string>
mismatches(const WarmCase &c, std::size_t reference_chunk_lines)
{
    const ChipConfig config = paperDesign(c.design);
    const auto specs = warmSpecs(c, config);
    ChipSim filled(config);
    filled.warmAllCaches(specs);
    ChipSim reference(config);
    installOneByOne(reference, config, specs, reference_chunk_lines);

    const auto got = imagesOf(filled);
    const auto want = imagesOf(reference);
    std::vector<std::string> differing;
    for (std::size_t k = 0; k < got.size(); ++k)
        if (!(got[k].second == want[k].second))
            differing.push_back(got[k].first);
    return differing;
}

std::vector<WarmCase>
allCases()
{
    const std::vector<std::string> designs = {"4B", "20s", "2B10s", "1B15s",
                                              "3B5s"};
    std::vector<WarmCase> cases;
    for (const auto &design : designs)
        for (const std::uint32_t threads : {1u, 2u, 7u, 24u})
            cases.push_back({design, threads, ""});
    for (const auto &design : designs)
        for (const char *app : {"streamcluster", "canneal"})
            cases.push_back({design, 12, app});
    return cases;
}

class WarmupEquivalenceTest : public testing::TestWithParam<WarmCase>
{
};

TEST_P(WarmupEquivalenceTest, NewestFirstFillEqualsOneByOneInstall)
{
    const auto differing = mismatches(GetParam(), 128);
    EXPECT_TRUE(differing.empty())
        << differing.size() << " caches differ, first " << differing[0];
}

INSTANTIATE_TEST_SUITE_P(
    Designs, WarmupEquivalenceTest, testing::ValuesIn(allCases()),
    [](const testing::TestParamInfo<WarmCase> &info) {
        return "d" + info.param.design + "_t" +
            std::to_string(info.param.threads) +
            (info.param.parsec.empty() ? "" : "_" + info.param.parsec);
    });

TEST(WarmupEquivalenceCheckTest, CatchesAWrongInstallOrder)
{
    // Halving the chunk changes which of the threads' lines survive in
    // the shared LLC; the comparison must see it.
    const auto differing = mismatches({"4B", 24, ""}, 64);
    EXPECT_FALSE(differing.empty());
}

TEST(WarmupEquivalenceCheckTest, WarmingAUsedChipFails)
{
    const ChipConfig config = paperDesign("2B10s");
    const auto specs = warmSpecs({"2B10s", 4, ""}, config);
    {
        ChipSim chip(config);
        chip.warmAllCaches(specs);
        EXPECT_THROW(chip.warmAllCaches(specs), FatalError);
    }
    {
        ChipSim chip(config);
        chip.core(1).hierarchy().l1d().access(0x1000, false);
        EXPECT_THROW(chip.warmAllCaches(specs), FatalError);
    }
    {
        ChipSim chip(config);
        chip.sharedMemory().llc().install(0x1000);
        EXPECT_THROW(chip.warmAllCaches(specs), FatalError);
    }
}

} // namespace
} // namespace smtflex
