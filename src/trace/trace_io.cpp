#include "trace_io.h"

#include <ostream>

#include "common/log.h"

namespace smtflex {

namespace {

constexpr const char *kMagic = "smtflex-trace";
constexpr int kVersion = 1;

} // namespace

void
writeTrace(std::ostream &out, TraceGenerator &gen, InstrCount count)
{
    if (count == 0)
        fatal("writeTrace: empty trace requested");
    out << kMagic << " " << kVersion << " " << count << "\n";
    for (InstrCount i = 0; i < count; ++i) {
        const MicroOp op = gen.next();
        out << static_cast<int>(op.cls) << " " << (op.mispredict ? 1 : 0)
            << " " << (op.fetchLineCross ? 1 : 0) << " "
            << static_cast<int>(op.depDist) << " " << std::hex << op.addr
            << " " << op.fetchAddr << std::dec << "\n";
    }
    if (!out)
        fatal("writeTrace: stream failure");
}

} // namespace smtflex
