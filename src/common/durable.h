/**
 * @file
 * smtflex::durable — the durable-write protocol under every on-disk
 * format: ResultCache segments, ckpt snapshots and the sweep journal.
 * Each format frames and CRC-checks its own bytes; this layer only gets
 * them to stable storage (write-all, fsync of the file and of its
 * directory, atomic replace, headed append) and back.
 *
 * Callers pass the smtflex::fault sites their format answers to (io.*
 * for the result cache, ckpt.* for snapshots and the journal), so each
 * seam fires at the same operation in every format; kNoSeam marks a
 * step without one.
 */

#ifndef SMTFLEX_COMMON_DURABLE_H
#define SMTFLEX_COMMON_DURABLE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"

namespace smtflex {
namespace durable {

/** "This step has no fault seam." */
inline constexpr fault::Site kNoSeam = fault::Site::kCount;

/**
 * Write all @p size bytes at @p data to @p fd, retrying EINTR and short
 * writes. @return false on the first real error (errno describes it).
 */
bool writeAll(int fd, const void *data, std::size_t size);

/**
 * Bytes of a @p size-byte write of @p what that reach the disk: @p size,
 * or — when @p seam fires — a torn prefix of the seam's `param` bytes
 * (default half), always shorter than @p size. Warns when it tears.
 */
std::size_t tornLength(fault::Site seam, std::size_t size,
                       const std::string &what);

/** fsync @p fd (named @p what in warnings); @p seam injects a failure.
 * @return whether the data is known durable. */
bool syncFd(int fd, const std::string &what, fault::Site seam = kNoSeam);

/**
 * Atomically replace @p path with @p size bytes at @p data: write
 * `<path>.tmp`, fsync it (@p fsync_seam), rename it over @p path, fsync
 * the directory. Any failure before the rename removes the tmp file and
 * leaves the old @p path untouched.
 *
 * @p torn_seam models a non-atomic writer: when it fires only a prefix is
 * written (tornLength()), the protocol still publishes it, and the call
 * returns false — the format's own checks must reject the file on load.
 *
 * @return whether the whole new content was published.
 */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size, fault::Site torn_seam = kNoSeam,
                     fault::Site fsync_seam = kNoSeam);

/**
 * Open @p path for appending, creating it (0644) when absent. When the
 * file is empty, @p header is written first through writeAll() and —
 * with @p sync_new — the parent directory is fsynced (@p fsync_seam) so
 * the new file itself survives power loss.
 * @return the descriptor, or -1 after a warning.
 */
int openAppend(const std::string &path, std::string_view header,
               bool sync_new, fault::Site fsync_seam = kNoSeam);

/** Whole contents of @p path; nullopt when it cannot be opened or read. */
std::optional<std::vector<std::uint8_t>> readFile(const std::string &path);

} // namespace durable
} // namespace smtflex

#endif // SMTFLEX_COMMON_DURABLE_H
