#include "ckpt/snapshot.h"

#include "common/crc32.h"
#include "common/durable.h"
#include "common/fault.h"
#include "common/log.h"

namespace smtflex {
namespace ckpt {

namespace {

constexpr std::uint32_t kMagic = 0x4b434653; // "SFCK" little-endian

} // namespace

std::vector<std::uint8_t>
encodeSnapshot(const Snapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kSnapshotVersion);
    w.u32(static_cast<std::uint32_t>(snap.kind));
    w.str(snap.key);
    w.u64(snap.cycle);
    w.blob(snap.meta);
    w.blob(snap.payload);
    const std::uint32_t crc = crc32(w.bytes().data(), w.size());
    w.u32(crc);
    return w.take();
}

Snapshot
decodeSnapshot(const std::uint8_t *data, std::size_t size)
{
    if (size < 4)
        throw CorruptSnapshot("ckpt: snapshot shorter than its CRC");
    const std::uint32_t want = crc32(data, size - 4);
    Reader tail(data + size - 4, 4);
    if (tail.u32() != want)
        throw CorruptSnapshot("ckpt: snapshot CRC mismatch");

    Reader r(data, size - 4);
    if (r.u32() != kMagic)
        throw CorruptSnapshot("ckpt: bad snapshot magic");
    if (r.u32() != kSnapshotVersion)
        throw CorruptSnapshot("ckpt: unsupported snapshot version");
    Snapshot snap;
    snap.kind = static_cast<SnapshotKind>(r.u32());
    if (snap.kind != SnapshotKind::kChipRun)
        throw CorruptSnapshot("ckpt: unknown snapshot kind");
    snap.key = r.str();
    snap.cycle = r.u64();
    snap.meta = r.blob();
    snap.payload = r.blob();
    r.expectEnd();
    return snap;
}

bool
writeSnapshotFile(const std::string &path, const Snapshot &snap)
{
    // The injected ckpt.write failure writes a prefix and still publishes
    // it — exactly the torn file a power cut during a non-atomic writer
    // would leave. Loads must reject it (CRC) and cold-start.
    const std::vector<std::uint8_t> bytes = encodeSnapshot(snap);
    return durable::atomicWriteFile(path, bytes.data(), bytes.size(),
                                    fault::Site::kCkptWrite);
}

std::optional<Snapshot>
readSnapshotFile(const std::string &path)
{
    const auto bytes = durable::readFile(path);
    if (!bytes)
        return std::nullopt;
    if (fault::shouldFire(fault::Site::kCkptLoad)) {
        warn("ckpt: injected unreadable snapshot: ", path);
        throw CorruptSnapshot("ckpt: injected load failure");
    }
    return decodeSnapshot(bytes->data(), bytes->size());
}

} // namespace ckpt
} // namespace smtflex
