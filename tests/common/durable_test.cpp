/**
 * @file
 * The durable-file layer under ResultCache, snapshots and the journal:
 * atomicWriteFile() leaves the old file or the new one whichever step of
 * tmp -> write -> fsync -> rename -> fsync(dir) fails, the torn-write seam
 * publishes a reported prefix, a fresh append file ends up fully headed,
 * and readFile() returns whole contents or nothing.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/durable.h"
#include "common/fault.h"
#include "tests/temp_path.h"

namespace smtflex {
namespace {

namespace fs = std::filesystem;

class DurableTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        fault::reset();
        dir_ = tempPath("durable");
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        path_ = dir_ + "/file";
        ASSERT_TRUE(publish("old contents"));
    }

    void TearDown() override
    {
        fault::reset();
        fs::remove_all(dir_);
    }

    bool publish(const std::string &text,
                 fault::Site torn_seam = durable::kNoSeam)
    {
        return durable::atomicWriteFile(path_, text.data(), text.size(),
                                        torn_seam, fault::Site::kIoFsync);
    }

    static std::string contents(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    /** A failed replacement keeps the old entry and leaves no tmp file. */
    void expectOldKept() const
    {
        EXPECT_EQ(contents(path_), "old contents");
        EXPECT_FALSE(fs::exists(fs::symlink_status(path_ + ".tmp")));
    }

    std::string dir_;
    std::string path_;
};

TEST_F(DurableTest, AtomicWriteReplacesTheWholeFile)
{
    ASSERT_TRUE(publish("new"));
    EXPECT_EQ(contents(path_), "new");
    EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(DurableTest, AtomicWriteOpenFailureKeepsOld)
{
    fs::create_directory(path_ + ".tmp"); // open(O_WRONLY) -> EISDIR
    EXPECT_FALSE(publish("new contents"));
    EXPECT_EQ(contents(path_), "old contents");
}

TEST_F(DurableTest, AtomicWriteWriteFailureKeepsOld)
{
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "needs /dev/full to fail a write";
    fs::create_symlink("/dev/full", path_ + ".tmp"); // write -> ENOSPC
    EXPECT_FALSE(publish("new contents"));
    expectOldKept();
}

TEST_F(DurableTest, AtomicWriteFsyncFailureKeepsOld)
{
    fault::configure("io.fsync:limit=1"); // the tmp file's fsync
    EXPECT_FALSE(publish("new contents"));
    EXPECT_EQ(fault::fires(fault::Site::kIoFsync), 1u);
    expectOldKept();
}

TEST_F(DurableTest, AtomicWriteRenameFailureKeepsOld)
{
    // A non-empty directory in the target's place refuses the rename.
    const std::string old_dir = dir_ + "/target";
    fs::create_directories(old_dir + "/child");
    const std::string text = "new contents";
    EXPECT_FALSE(durable::atomicWriteFile(old_dir, text.data(), text.size()));
    EXPECT_TRUE(fs::is_directory(old_dir + "/child"));
    EXPECT_FALSE(fs::exists(old_dir + ".tmp"));
}

TEST_F(DurableTest, AtomicWriteDirFsyncFailureStillPublishesNew)
{
    // The rename already happened; the directory fsync is best effort.
    fault::configure("io.fsync:after=1;limit=1");
    EXPECT_TRUE(publish("new contents"));
    EXPECT_EQ(fault::fires(fault::Site::kIoFsync), 1u);
    EXPECT_EQ(contents(path_), "new contents");
    EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(DurableTest, TornWriteSeamPublishesAReportedPrefix)
{
    // A non-atomic writer's crash: the prefix is published and the call
    // fails, so the format's own checks must reject it on load.
    fault::configure("ckpt.write:limit=1;param=3");
    EXPECT_FALSE(publish("new contents", fault::Site::kCkptWrite));
    EXPECT_EQ(contents(path_), "new");
    fault::reset();
    EXPECT_TRUE(publish("new contents", fault::Site::kCkptWrite));
    EXPECT_EQ(contents(path_), "new contents");
}

TEST_F(DurableTest, TornLengthIsAlwaysAStrictPrefix)
{
    EXPECT_EQ(durable::tornLength(fault::Site::kIoWrite, 10, "x"), 10u);
    fault::configure("io.write");
    EXPECT_EQ(durable::tornLength(fault::Site::kIoWrite, 10, "x"), 5u);
    fault::configure("io.write:param=4");
    EXPECT_EQ(durable::tornLength(fault::Site::kIoWrite, 10, "x"), 4u);
    fault::configure("io.write:param=99");
    EXPECT_EQ(durable::tornLength(fault::Site::kIoWrite, 10, "x"), 9u);
    EXPECT_EQ(durable::tornLength(durable::kNoSeam, 10, "x"), 10u);
}

TEST_F(DurableTest, FreshAppendFileIsFullyHeaded)
{
    const std::string fresh = dir_ + "/log";
    const std::string header(4096, 'h'); // several pages through writeAll
    int fd = durable::openAppend(fresh, header + '\n', true);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(durable::writeAll(fd, "one\n", 4));
    ::close(fd);
    EXPECT_EQ(contents(fresh), header + "\none\n");

    // Reopening a non-empty file appends without a second header.
    fd = durable::openAppend(fresh, header + '\n', true);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(durable::writeAll(fd, "two\n", 4));
    ::close(fd);
    EXPECT_EQ(contents(fresh), header + "\none\ntwo\n");

    // An existing but empty file counts as fresh.
    std::ofstream(fresh, std::ios::trunc).close();
    fd = durable::openAppend(fresh, "#h\n", false);
    ASSERT_GE(fd, 0);
    ::close(fd);
    EXPECT_EQ(contents(fresh), "#h\n");

    EXPECT_EQ(durable::openAppend(dir_ + "/missing/log", "#h\n", true), -1);
}

TEST_F(DurableTest, ReadFileReturnsWholeContentsOrNothing)
{
    EXPECT_FALSE(durable::readFile(dir_ + "/absent").has_value());
    std::string text(100'000, '\0');
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = static_cast<char>(i * 131 + 7);
    ASSERT_TRUE(publish(text));
    const auto bytes = durable::readFile(path_);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(std::string(bytes->begin(), bytes->end()), text);
}

} // namespace
} // namespace smtflex
