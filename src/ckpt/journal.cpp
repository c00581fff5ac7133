#include "ckpt/journal.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/crc32.h"
#include "common/durable.h"
#include "common/fault.h"
#include "common/log.h"

namespace smtflex {
namespace ckpt {

namespace {

constexpr std::uint32_t kFrameMagic = 0x4c4a4653; // "SFJL" little-endian

} // namespace

SweepJournal::SweepJournal(std::string path, CkptStats *stats)
    : path_(std::move(path)), stats_(stats)
{
}

bool
SweepJournal::append(const std::vector<Record> &records)
{
    Writer payload;
    payload.u32(static_cast<std::uint32_t>(records.size()));
    for (const Record &rec : records) {
        payload.str(rec.key);
        payload.u32(static_cast<std::uint32_t>(rec.values.size()));
        for (const double v : rec.values)
            payload.f64(v);
    }

    Writer frame;
    frame.u32(kFrameMagic);
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    const std::uint32_t crc =
        crc32(payload.bytes().data(), payload.size());
    std::vector<std::uint8_t> bytes = frame.take();
    bytes.insert(bytes.end(), payload.bytes().begin(),
                 payload.bytes().end());
    Writer tail;
    tail.u32(crc);
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());

    const std::size_t to_write =
        durable::tornLength(fault::Site::kCkptWrite, bytes.size(), path_);
    const int fd = durable::openAppend(path_, {}, true);
    if (fd < 0)
        return false;
    const bool wrote = durable::writeAll(fd, bytes.data(), to_write);
    if (!wrote)
        warn("ckpt: journal append to ", path_,
             " failed: ", std::strerror(errno));
    const bool synced = wrote && durable::syncFd(fd, path_);
    ::close(fd);
    const bool ok = synced && to_write == bytes.size();
    if (ok)
        stats_->journalAppends.fetch_add(1, std::memory_order_relaxed);
    return ok;
}

std::uint64_t
SweepJournal::replay(const std::function<void(const Record &)> &visit)
{
    const auto file = durable::readFile(path_);
    if (!file)
        return 0;
    if (fault::shouldFire(fault::Site::kCkptLoad)) {
        warn("ckpt: injected unreadable journal: ", path_);
        stats_->corruptSkipped.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }
    const std::vector<std::uint8_t> &bytes = *file;

    std::uint64_t visited = 0;
    std::size_t pos = 0;
    while (pos + 8 <= bytes.size()) {
        Reader head(bytes.data() + pos, 8);
        if (head.u32() != kFrameMagic) {
            stats_->corruptSkipped.fetch_add(1, std::memory_order_relaxed);
            warn("ckpt: journal ", path_, ": bad frame magic at offset ",
                 pos, "; ignoring the rest");
            break;
        }
        const std::uint32_t len = head.u32();
        if (pos + 8 + len + 4 > bytes.size())
            break; // torn tail: the crash case, silently healed
        const std::uint8_t *payload = bytes.data() + pos + 8;
        Reader tail(payload + len, 4);
        if (tail.u32() != crc32(payload, len)) {
            stats_->corruptSkipped.fetch_add(1, std::memory_order_relaxed);
            warn("ckpt: journal ", path_, ": frame CRC mismatch at offset ",
                 pos, "; ignoring the rest");
            break;
        }
        try {
            Reader r(payload, len);
            const std::uint32_t count = r.u32();
            for (std::uint32_t i = 0; i < count; ++i) {
                Record rec;
                rec.key = r.str();
                const std::uint32_t nv = r.u32();
                rec.values.reserve(nv);
                for (std::uint32_t v = 0; v < nv; ++v)
                    rec.values.push_back(r.f64());
                visit(rec);
                ++visited;
            }
            r.expectEnd();
        } catch (const CorruptSnapshot &e) {
            stats_->corruptSkipped.fetch_add(1, std::memory_order_relaxed);
            warn("ckpt: journal ", path_, ": ", e.what(),
                 "; ignoring the rest");
            break;
        }
        pos += 8 + len + 4;
    }
    stats_->journalReplayed.fetch_add(visited, std::memory_order_relaxed);
    return visited;
}

} // namespace ckpt
} // namespace smtflex
