#include "result_cache.h"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/crc32.h"
#include "common/durable.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/log.h"

namespace smtflex {

namespace {

/**
 * Parse one on-disk line, `escaped_key|v1 v2 ...|cXXXXXXXX`. The line
 * counts only if its CRC verifies and every field parses; anything else
 * (a torn write, a merged line, a pre-v2 line without a tag) is rejected.
 */
bool
parseRecord(std::string_view line, std::string &key,
            std::vector<double> &values)
{
    constexpr std::size_t kTagSize = 10; // "|c" + 8 hex digits
    if (line.size() < kTagSize)
        return false;
    const std::size_t tag = line.size() - kTagSize;
    if (line[tag] != '|' || line[tag + 1] != 'c')
        return false;
    std::uint32_t stored = 0;
    const char *const end = line.data() + line.size();
    const auto hex = std::from_chars(line.data() + tag + 2, end, stored, 16);
    if (hex.ec != std::errc() || hex.ptr != end ||
        crc32(line.data(), tag) != stored)
        return false;
    const std::size_t sep = line.find('|');
    if (sep == 0 || sep == tag)
        return false;
    const char *p = line.data() + sep + 1;
    const char *const values_end = line.data() + tag;
    while (p < values_end) {
        double v = 0.0;
        const auto num = std::from_chars(p, values_end, v);
        if (num.ec != std::errc())
            return false;
        values.push_back(v);
        p = num.ptr;
        if (p < values_end && *p++ != ' ')
            return false;
    }
    key = ResultCache::unescapeKey(line.substr(0, sep));
    return true;
}

} // namespace

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    fsyncEachStore_ = envFlag("SMTFLEX_CACHE_FSYNC", false);
    for (auto &shard : shards_)
        shard = std::make_unique<Shard>();
    if (!path_.empty())
        load();
}

ResultCache::~ResultCache()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        if (shard->fd >= 0) {
            ::close(shard->fd);
            shard->fd = -1;
        }
    }
}

std::string
ResultCache::escapeKey(const std::string &key)
{
    std::string out;
    out.reserve(key.size());
    for (const char c : key) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '|':
            out += "\\p";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
ResultCache::unescapeKey(std::string_view escaped)
{
    std::string out;
    out.reserve(escaped.size());
    for (std::size_t i = 0; i < escaped.size(); ++i) {
        if (escaped[i] != '\\' || i + 1 == escaped.size()) {
            out += escaped[i];
            continue;
        }
        switch (escaped[++i]) {
          case '\\':
            out += '\\';
            break;
          case 'p':
            out += '|';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            // escapeKey() never writes other sequences; keep them
            // verbatim rather than guess.
            out += '\\';
            out += escaped[i];
        }
    }
    return out;
}

std::string
ResultCache::formatRecord(const std::string &key,
                          const std::vector<double> &values)
{
    std::ostringstream os;
    os.precision(17);
    os << escapeKey(key) << '|';
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? " " : "") << values[i];
    std::string record = os.str();
    char tag[11];
    std::snprintf(tag, sizeof(tag), "|c%08x", crc32(record));
    record += tag;
    record += '\n';
    return record;
}

std::size_t
ResultCache::shardOf(const std::string &key) const
{
    return std::hash<std::string>{}(key) % kNumShards;
}

std::string
ResultCache::shardPath(std::size_t index) const
{
    std::ostringstream os;
    os << path_ << ".shard-" << (index < 10 ? "0" : "") << index;
    return os.str();
}

void
ResultCache::loadFile(const std::string &file_path)
{
    if (fault::shouldFire(fault::Site::kIoLoad)) {
        warn("ResultCache: injected load failure on ", file_path,
             "; segment treated as missing");
        return;
    }
    std::ifstream in(file_path);
    if (!in)
        return; // no segment yet
    // One rule: a line loads if and only if its CRC verifies. The header
    // line is skipped; every other line is counted as corrupt, since the
    // result will simply be recomputed.
    std::uint64_t skipped = 0;
    std::string line;
    for (bool first = true; std::getline(in, line); first = false) {
        if (first && line == kFormatHeader)
            continue;
        std::string key;
        std::vector<double> values;
        if (!parseRecord(line, key, values)) {
            ++skipped;
            continue;
        }
        shards_[shardOf(key)]->entries.insert_or_assign(std::move(key),
                                                       std::move(values));
    }
    if (skipped > 0) {
        corruptSkipped_.fetch_add(skipped, std::memory_order_relaxed);
        warn("ResultCache: skipped ", skipped, " corrupt line",
             skipped == 1 ? "" : "s", " in ", file_path,
             " (results will be recomputed)");
    }
}

void
ResultCache::load()
{
    // The base file (the committed seed campaign) first, then the shard
    // segments (newer records) so they override.
    loadFile(path_);
    for (std::size_t i = 0; i < kNumShards; ++i)
        loadFile(shardPath(i));
}

std::optional<std::vector<double>>
ResultCache::lookup(const std::string &key) const
{
    const Shard &shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end())
        return std::nullopt;
    return it->second;
}

void
ResultCache::appendRecord(Shard &shard, std::size_t index,
                          const std::string &record)
{
    const std::string segment = shardPath(index);
    if (shard.fd < 0) {
        // A fresh segment starts with the format header; its directory
        // entry is fsynced too when every store is (checkpoint() syncs
        // the parent after its rename anyway).
        shard.fd = durable::openAppend(segment,
                                       std::string(kFormatHeader) + '\n',
                                       fsyncEachStore_,
                                       fault::Site::kIoFsync);
        if (shard.fd < 0)
            return;
    }
    // A crash can tear a write at any byte; the io.write seam injects
    // that case. Recovery: terminate whatever prefix reached the disk so
    // it is one CRC-failing line, then rewrite the whole record. The cost
    // of a torn write is one skipped line at the next load, never a lost
    // or corrupt record.
    for (int attempt = 0; attempt < 3; ++attempt) {
        const std::size_t length = durable::tornLength(
            fault::Site::kIoWrite, record.size(), segment);
        if (!durable::writeAll(shard.fd, record.data(), length)) {
            warn("ResultCache: write to ", segment, " failed: ",
                 std::strerror(errno));
            return;
        }
        if (length == record.size()) {
            if (fsyncEachStore_)
                durable::syncFd(shard.fd, segment, fault::Site::kIoFsync);
            return;
        }
        warn("ResultCache: short write to ", segment,
             "; terminating torn record and retrying");
        if (length > 0)
            durable::writeAll(shard.fd, "\n", 1);
    }
    warn("ResultCache: giving up appending a record to ", segment,
         "; the entry stays in memory only");
}

void
ResultCache::store(const std::string &key, const std::vector<double> &values)
{
    if (key.empty())
        fatal("ResultCache: empty key");
    const std::size_t index = shardOf(key);
    Shard &shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries[key] = values;
    if (path_.empty())
        return;
    appendRecord(shard, index, formatRecord(key, values));
}

void
ResultCache::flush()
{
    if (path_.empty())
        return;
    for (std::size_t i = 0; i < kNumShards; ++i) {
        Shard &shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.fd >= 0)
            durable::syncFd(shard.fd, shardPath(i), fault::Site::kIoFsync);
    }
}

bool
ResultCache::checkpoint()
{
    if (path_.empty())
        return true;
    bool all_ok = true;
    for (std::size_t i = 0; i < kNumShards; ++i) {
        Shard &shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mutex);
        std::string blob = std::string(kFormatHeader) + '\n';
        for (const auto &[key, values] : shard.entries)
            blob += formatRecord(key, values);
        // A failure keeps the old segment (still loadable) in place.
        if (!durable::atomicWriteFile(shardPath(i), blob.data(),
                                      blob.size(), durable::kNoSeam,
                                      fault::Site::kIoFsync)) {
            all_ok = false;
            continue;
        }
        // The append descriptor points at the replaced inode; reopen on
        // the next store.
        if (shard.fd >= 0) {
            ::close(shard.fd);
            shard.fd = -1;
        }
    }
    return all_ok;
}

std::size_t
ResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

} // namespace smtflex
