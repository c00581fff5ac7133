/**
 * @file
 * Tests for trace capture: the exact text writeTrace() emits, and its
 * validation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/log.h"
#include "trace/spec_profiles.h"
#include "trace/trace_io.h"

namespace smtflex {
namespace {

TEST(TraceIoTest, RoundTripPreservesOps)
{
    // The header line, then one line per op, each formatted here from a
    // second generator with the same seed.
    TraceGenerator gen(specProfile("soplex"), 3, 1,
                       AddressSpace::forThread(1));
    TraceGenerator ref(specProfile("soplex"), 3, 1,
                       AddressSpace::forThread(1));
    std::stringstream file;
    writeTrace(file, gen, 2000);
    std::string line;
    ASSERT_TRUE(std::getline(file, line));
    EXPECT_EQ(line, "smtflex-trace 1 2000");
    for (int i = 0; i < 2000; ++i) {
        const MicroOp op = ref.next();
        char expect[80];
        std::snprintf(expect, sizeof expect, "%d %d %d %d %llx %llx",
                      static_cast<int>(op.cls), op.mispredict ? 1 : 0,
                      op.fetchLineCross ? 1 : 0,
                      static_cast<int>(op.depDist),
                      static_cast<unsigned long long>(op.addr),
                      static_cast<unsigned long long>(op.fetchAddr));
        ASSERT_TRUE(std::getline(file, line)) << "op " << i;
        ASSERT_EQ(line, expect) << "op " << i;
    }
    EXPECT_FALSE(std::getline(file, line)) << "trailing text: " << line;
}

TEST(TraceIoTest, EmptyTraceRejected)
{
    TraceGenerator gen(specProfile("hmmer"), 1, 0,
                       AddressSpace::forThread(0));
    std::stringstream file;
    EXPECT_THROW(writeTrace(file, gen, 0), FatalError);
}

TEST(TraceIoTest, FailedStreamIsFatal)
{
    TraceGenerator gen(specProfile("hmmer"), 1, 0,
                       AddressSpace::forThread(0));
    std::stringstream file;
    file.setstate(std::ios::badbit);
    EXPECT_THROW(writeTrace(file, gen, 10), FatalError);
}

} // namespace
} // namespace smtflex
