/**
 * @file
 * Per-test scratch paths. gtest_discover_tests runs every test as its own
 * process and `ctest -jN` runs them side by side, so a fixed path under
 * ::testing::TempDir() lets one test's clean-up delete another's files.
 * tempPath() names the path after the running test and the process id;
 * removeCacheFiles() clears a result cache created there.
 */

#ifndef SMTFLEX_TESTS_TEMP_PATH_H
#define SMTFLEX_TESTS_TEMP_PATH_H

#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "study/result_cache.h"

namespace smtflex {

/** `<TempDir>smtflex_<suite>.<test>_<pid>_<stem>`, unique to the running
 * test process ('/' of parametrised names becomes '_'). */
inline std::string
tempPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) + "." +
            info->name()
                            : "global";
    for (char &c : name)
        if (c == '/')
            c = '_';
    return ::testing::TempDir() + "smtflex_" + name + "_" +
        std::to_string(::getpid()) + "_" + stem;
}

/** `<path>.shard-NN`, segment @p index of the result cache at @p path. */
inline std::string
cacheShardPath(const std::string &path, std::size_t index)
{
    return path + ".shard-" + (index < 10 ? "0" : "") +
        std::to_string(index);
}

/** Remove the result cache at @p path: the base file and every segment. */
inline void
removeCacheFiles(const std::string &path)
{
    std::remove(path.c_str());
    for (std::size_t i = 0; i < ResultCache::kNumShards; ++i)
        std::remove(cacheShardPath(path, i).c_str());
}

} // namespace smtflex

#endif // SMTFLEX_TESTS_TEMP_PATH_H
