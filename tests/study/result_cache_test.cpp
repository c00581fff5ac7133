/**
 * @file
 * Tests for the disk-backed result cache: persistence, the sharded file
 * format, the one load rule (a line loads iff its CRC verifies), the
 * committed seed cache as a golden v2 file, and key escaping (the
 * `|`/newline injection fix).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "study/result_cache.h"
#include "tests/temp_path.h"

namespace smtflex {
namespace {

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = tempPath("cache_test.txt");
        removeCacheFiles(path_);
    }
    void TearDown() override
    {
        setLogSink(nullptr);
        removeCacheFiles(path_);
    }

    std::string path_;
};

TEST_F(ResultCacheTest, StoreAndFind)
{
    ResultCache cache(path_);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.store("k1", {1.0, 2.5, -3.0});
    EXPECT_EQ(cache.lookup("k1"), (std::vector<double>{1.0, 2.5, -3.0}));
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ResultCacheTest, PersistsAcrossInstances)
{
    {
        ResultCache cache(path_);
        cache.store("a", {1.0});
        cache.store("b", {2.0, 3.0});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.lookup("a"), (std::vector<double>{1.0}));
    EXPECT_EQ(reloaded.lookup("b"), (std::vector<double>{2.0, 3.0}));
}

TEST_F(ResultCacheTest, OverwriteTakesLatestValue)
{
    {
        ResultCache cache(path_);
        cache.store("k", {1.0});
        cache.store("k", {9.0});
        EXPECT_EQ(cache.lookup("k"), (std::vector<double>{9.0}));
    }
    // The append-only segments replay in order; the last record wins.
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.lookup("k"), (std::vector<double>{9.0}));
}

TEST_F(ResultCacheTest, FullPrecisionRoundTrip)
{
    const double value = 0.12345678901234567;
    {
        ResultCache cache(path_);
        cache.store("pi", {value});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.lookup("pi"), (std::vector<double>{value}));
}

TEST_F(ResultCacheTest, HeaderlessPreV2FileLoadsNothing)
{
    // The pre-v2 format (no header, no CRC tags) is no longer parsed:
    // every line is counted as corrupt and reported in one warning, so
    // its results are recomputed instead of trusted.
    {
        std::ofstream out(path_);
        out << "legacy_a|1 2 3\n";
        out << "legacy_b|4\n";
    }
    static std::vector<std::string> warnings;
    warnings.clear();
    setLogSink([](LogLevel level, const std::string &message) {
        if (level == LogLevel::kWarn)
            warnings.push_back(message);
    });
    ResultCache cache(path_);
    setLogSink(nullptr);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.corruptLinesSkipped(), 2u);
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("skipped 2 corrupt lines"), std::string::npos)
        << warnings[0];
}

TEST_F(ResultCacheTest, ShardRecordsOverrideTheUntouchedBaseFile)
{
    // `path` itself (the committed seed campaign) is only ever read: new
    // records go to shard segments, which load later and override it.
    const std::string base = std::string(ResultCache::kFormatHeader) +
        "\n" + ResultCache::formatRecord("a", {1, 2, 3}) +
        ResultCache::formatRecord("b", {4});
    std::ofstream(path_, std::ios::binary) << base;
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    cache.store("b", {9.0});
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.lookup("a"), (std::vector<double>{1, 2, 3}));
    EXPECT_EQ(reloaded.lookup("b"), (std::vector<double>{9.0}));
    std::ifstream in(path_, std::ios::binary);
    EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>()),
              base);
}

TEST_F(ResultCacheTest, ToleratesCorruptLines)
{
    {
        std::ofstream out(path_);
        out << ResultCache::formatRecord("good", {1, 2, 3});
        out << "garbage without separator\n";
        out << "|empty key\n";
        out << ResultCache::formatRecord("tail", {4, 5});
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup("good"), (std::vector<double>{1, 2, 3}));
    EXPECT_EQ(cache.lookup("tail"), (std::vector<double>{4, 5}));
    EXPECT_EQ(cache.corruptLinesSkipped(), 2u);
}

TEST_F(ResultCacheTest, InMemoryOnlyWithEmptyPath)
{
    ResultCache cache("");
    cache.store("x", {1.0});
    EXPECT_TRUE(cache.lookup("x").has_value());
    EXPECT_TRUE(cache.path().empty());
}

TEST_F(ResultCacheTest, EmptyKeyRejected)
{
    ResultCache cache(path_);
    EXPECT_THROW(cache.store("", {1.0}), FatalError);
}

TEST_F(ResultCacheTest, SeparatorCharactersInKeysRoundTrip)
{
    // Regression: keys containing the on-disk separators used to corrupt
    // the format (a '|' shifted the value split, a newline broke the
    // record into two lines). They are escaped now.
    const std::vector<std::string> nasty = {
        "a|b", "a\nb", "a\rb", "a\\b", "a\\|b\\n", "trailing\\",
        "mp;cfg|smt1;w\nx",
    };
    {
        ResultCache cache(path_);
        for (std::size_t i = 0; i < nasty.size(); ++i)
            cache.store(nasty[i], {static_cast<double>(i), 0.5});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), nasty.size());
    for (std::size_t i = 0; i < nasty.size(); ++i) {
        const auto hit = reloaded.lookup(nasty[i]);
        ASSERT_TRUE(hit.has_value()) << "key " << i;
        EXPECT_DOUBLE_EQ(hit->at(0), static_cast<double>(i)) << "key " << i;
    }
}

TEST_F(ResultCacheTest, EscapeKeyIsInvertibleAndOneLine)
{
    for (const std::string key :
         {"plain", "a|b", "a\nb", "a\r\nb", "back\\slash", "\\p", "x"}) {
        const std::string escaped = ResultCache::escapeKey(key);
        EXPECT_EQ(escaped.find('|'), std::string::npos) << key;
        EXPECT_EQ(escaped.find('\n'), std::string::npos) << key;
        EXPECT_EQ(ResultCache::unescapeKey(escaped), key);
    }
    // Keys without backslashes pass through unchanged.
    EXPECT_EQ(ResultCache::unescapeKey("iso;mcf;B;b12000"), "iso;mcf;B;b12000");
}

TEST_F(ResultCacheTest, FormatRecordCarriesCrcTag)
{
    const std::string record = ResultCache::formatRecord("k", {1.5, -2.0});
    ASSERT_FALSE(record.empty());
    EXPECT_EQ(record.back(), '\n');
    // `escaped_key|values|cXXXXXXXX`: 'c' + 8 hex digits before the
    // newline.
    const std::size_t tag = record.rfind("|c");
    ASSERT_NE(tag, std::string::npos);
    EXPECT_EQ(record.size() - tag, 11u); // "|c" + 8 hex + '\n'
    EXPECT_EQ(record.rfind("k|1.5 -2|", 0), 0u);
}

TEST_F(ResultCacheTest, CrcMismatchIsSkippedAndCounted)
{
    {
        std::ofstream out(path_);
        out << ResultCache::kFormatHeader << "\n";
        out << ResultCache::formatRecord("good", {1.0, 2.0});
        std::string bad = ResultCache::formatRecord("bad", {3.0});
        bad[bad.find('3')] = '4'; // flip a value byte; the CRC now lies
        out << bad;
        out << ResultCache::formatRecord("tail", {5.0});
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.corruptLinesSkipped(), 1u);
    EXPECT_TRUE(cache.lookup("good").has_value());
    EXPECT_FALSE(cache.lookup("bad").has_value());
    EXPECT_TRUE(cache.lookup("tail").has_value());
}

TEST_F(ResultCacheTest, StrictFormatRejectsUntaggedLines)
{
    // A line without a CRC tag is a truncated record — its values may be
    // silently shortened.
    {
        std::ofstream out(path_);
        out << ResultCache::kFormatHeader << "\n";
        out << "torn|1 2\n";
        out << ResultCache::formatRecord("ok", {3.0});
    }
    ResultCache cache(path_);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_FALSE(cache.lookup("torn").has_value());
    EXPECT_EQ(cache.corruptLinesSkipped(), 1u);
}

TEST_F(ResultCacheTest, NewSegmentsCarryTheFormatHeader)
{
    {
        ResultCache cache(path_);
        cache.store("k", {1.0});
    }
    bool found = false;
    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
        std::ifstream in(cacheShardPath(path_, i));
        std::string first;
        if (in && std::getline(in, first)) {
            found = true;
            EXPECT_EQ(first, ResultCache::kFormatHeader);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ResultCacheTest, CheckpointCompactsAndStaysAppendable)
{
    ResultCache cache(path_);
    cache.store("k", {1.0});
    cache.store("k", {2.0});
    cache.store("k", {3.0}); // three appended records for one key
    EXPECT_TRUE(cache.checkpoint());
    // The snapshot holds exactly one record per entry.
    std::size_t records = 0;
    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i) {
        std::ifstream in(cacheShardPath(path_, i));
        std::string line;
        while (std::getline(in, line))
            if (line != ResultCache::kFormatHeader)
                ++records;
    }
    EXPECT_EQ(records, 1u);
    // Appends after the checkpoint land in the renamed file, not the
    // replaced inode.
    cache.store("post", {4.0});
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.lookup("k"), (std::vector<double>{3.0}));
    EXPECT_TRUE(reloaded.lookup("post").has_value());
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
}

TEST_F(ResultCacheTest, EmptyValueVector)
{
    {
        ResultCache cache(path_);
        cache.store("empty", {});
    }
    ResultCache reloaded(path_);
    EXPECT_EQ(reloaded.lookup("empty"), std::vector<double>{});
}

#ifdef SMTFLEX_SOURCE_DIR
TEST(ResultCacheSeedTest, CommittedSeedCacheIsGoldenV2)
{
    // The committed campaign is a v2 file: it loads whole, and
    // formatRecord() re-serialises it in file order byte for byte — so
    // every record round-trips bit-exactly through the writer.
    const std::string path =
        std::string(SMTFLEX_SOURCE_DIR) + "/smtflex_cache.txt";
    const ResultCache seed(path);
    EXPECT_EQ(seed.size(), 12'238u);
    EXPECT_EQ(seed.corruptLinesSkipped(), 0u);

    std::ifstream in(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::istringstream lines(file);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    ASSERT_EQ(line, ResultCache::kFormatHeader);
    std::string rebuilt = line + '\n';
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        const std::string key =
            ResultCache::unescapeKey(line.substr(0, line.find('|')));
        const auto values = seed.lookup(key);
        ASSERT_TRUE(values.has_value()) << key;
        rebuilt += ResultCache::formatRecord(key, *values);
        ++records;
    }
    EXPECT_EQ(records, seed.size());
    EXPECT_TRUE(rebuilt == file) << "re-serialised seed cache differs";
}
#endif

} // namespace
} // namespace smtflex
