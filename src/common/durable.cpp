#include "common/durable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/log.h"

namespace smtflex {
namespace durable {

namespace {

bool
seamFires(fault::Site seam)
{
    return seam != kNoSeam && fault::shouldFire(seam);
}

/** fsync the directory holding @p path, so a new or renamed entry is
 * durable. Best effort: a directory that cannot be opened is skipped. */
void
syncParentDir(const std::string &path, fault::Site seam)
{
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // best effort: some filesystems refuse directory opens
    syncFd(fd, dir, seam);
    ::close(fd);
}

} // namespace

bool
writeAll(int fd, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::write(fd, bytes, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        bytes += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

std::size_t
tornLength(fault::Site seam, std::size_t size, const std::string &what)
{
    if (size == 0 || !seamFires(seam))
        return size;
    const std::size_t torn = static_cast<std::size_t>(
        std::min<std::uint64_t>(fault::param(seam, size / 2), size - 1));
    warn("durable: injected torn write (", torn, " of ", size,
         " bytes): ", what);
    return torn;
}

bool
syncFd(int fd, const std::string &what, fault::Site seam)
{
    if (seamFires(seam)) {
        warn("durable: injected fsync failure on ", what);
        return false;
    }
    if (::fsync(fd) != 0) {
        warn("durable: fsync(", what, ") failed: ", std::strerror(errno));
        return false;
    }
    return true;
}

bool
atomicWriteFile(const std::string &path, const void *data, std::size_t size,
                fault::Site torn_seam, fault::Site fsync_seam)
{
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("durable: cannot create ", tmp, ": ", std::strerror(errno));
        return false;
    }
    const std::size_t length = tornLength(torn_seam, size, path);
    bool ok = writeAll(fd, data, length);
    if (!ok)
        warn("durable: write to ", tmp, " failed: ", std::strerror(errno));
    // The durable order is write -> fsync -> rename -> fsync(dir); any
    // failure before the rename keeps the old file in place.
    ok = ok && syncFd(fd, tmp, fsync_seam);
    ::close(fd);
    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("durable: rename(", tmp, " -> ", path,
             ") failed: ", std::strerror(errno));
        ok = false;
    }
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    syncParentDir(path, fsync_seam); // the rename itself must survive
    return length == size;
}

int
openAppend(const std::string &path, std::string_view header, bool sync_new,
           fault::Site fsync_seam)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("durable: cannot append to ", path, ": ", std::strerror(errno));
        return -1;
    }
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size == 0) {
        if (!writeAll(fd, header.data(), header.size())) {
            warn("durable: header write to ", path,
                 " failed: ", std::strerror(errno));
            ::close(fd);
            return -1;
        }
        // Appended data fsyncs alone do not make a *new* file durable:
        // its directory entry needs an fsync of the parent too.
        if (sync_new)
            syncParentDir(path, fsync_seam);
    }
    return fd;
}

std::optional<std::vector<std::uint8_t>>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg())
                                   : -1;
    if (size < 0)
        return std::nullopt;
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(bytes.data()), size);
    if (in.bad())
        return std::nullopt;
    bytes.resize(static_cast<std::size_t>(in.gcount())); // shrank under us
    return bytes;
}

} // namespace durable
} // namespace smtflex
