#include "cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/log.h"

namespace smtflex {

SetIndex::SetIndex(std::uint32_t line_size, std::uint64_t num_sets)
    : lineShift_(static_cast<unsigned>(std::countr_zero(line_size))),
      numSets_(num_sets),
      mask_(std::has_single_bit(num_sets) ? num_sets - 1 : kNoMask)
{
    if (!std::has_single_bit(line_size) || line_size < 2 || num_sets == 0)
        fatal("SetIndex: line size ", line_size, " or set count ", num_sets,
              " out of range");
    if (mask_ == kNoMask)
        magic_ = ~std::uint64_t{0} / num_sets; // floor(2^64 / n), n not 2^k
}

namespace {

/** @p geometry, after fatal() on any geometry the cache cannot model
 * (SetIndex checks the line size). */
const CacheGeometry &
checkedGeometry(const std::string &name, const CacheGeometry &geometry)
{
    if (geometry.lineSize == 0 || geometry.assoc == 0)
        fatal("cache ", name, ": bad geometry");
    if (geometry.sizeBytes % geometry.lineSize != 0)
        fatal("cache ", name, ": size not a multiple of line size");
    if (geometry.numLines() % geometry.assoc != 0)
        fatal("cache ", name, ": lines not divisible by associativity");
    if (geometry.numSets() == 0)
        fatal("cache ", name, ": zero sets");
    return geometry;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geometry)
    : name_(std::move(name)), geometry_(checkedGeometry(name_, geometry)),
      numSets_(geometry_.numSets()),
      index_(geometry_.lineSize, numSets_),
      tags_(numSets_ * geometry_.assoc, kInvalidTag),
      stamps_(tags_.size(), 0), bits_(tags_.size(), 0)
{
}

std::uint32_t
SetAssocCache::findWay(std::size_t base, std::uint64_t line) const
{
    const std::uint64_t *const tags = &tags_[base];
    const std::uint32_t assoc = geometry_.assoc;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        if (tags[way] == line)
            return way;
    }
    return assoc;
}

std::uint32_t
SetAssocCache::victimWay(std::size_t base) const
{
    const std::uint64_t *const tags = &tags_[base];
    for (std::uint32_t way = geometry_.assoc; way-- > 0;) {
        if (tags[way] == kInvalidTag)
            return way;
    }
    const std::uint64_t *const stamps = &stamps_[base];
    std::uint32_t victim = 0;
    for (std::uint32_t way = 1; way < geometry_.assoc; ++way) {
        if (stamps[way] < stamps[victim])
            victim = way;
    }
    return victim;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write, bool mark_prefetched)
{
    const std::uint64_t line = index_.line(addr);
    const std::size_t base = setBase(line);

    ++stats_.accesses;
    ++lruClock_;

    const std::uint32_t hit_way = findWay(base, line);
    if (hit_way != geometry_.assoc) {
        const std::size_t i = base + hit_way;
        stamps_[i] = lruClock_;
        const bool was_prefetched = bits_[i] & kPrefetched;
        // A demand touch consumes the prefetch tag.
        bits_[i] = static_cast<std::uint8_t>((bits_[i] & kDirty) |
                                             (is_write ? kDirty : 0));
        return {.hit = true, .hitPrefetched = was_prefetched,
                .writeback = false, .victimAddr = 0};
    }

    // Miss: allocate over the LRU (or an invalid) way.
    ++stats_.misses;
    CacheAccessResult result;
    const std::size_t i = base + victimWay(base);
    if (tags_[i] != kInvalidTag) {
        ++stats_.evictions;
        if (bits_[i] & kDirty) {
            ++stats_.writebacks;
            result.writeback = true;
            result.victimAddr = tags_[i] << index_.lineShift();
        }
    }
    tags_[i] = line;
    stamps_[i] = lruClock_;
    bits_[i] = static_cast<std::uint8_t>((is_write ? kDirty : 0) |
                                         (mark_prefetched ? kPrefetched : 0));
    return result;
}

void
SetAssocCache::install(Addr addr)
{
    const std::uint64_t line = index_.line(addr);
    const std::size_t base = setBase(line);
    ++lruClock_;

    const std::uint32_t hit_way = findWay(base, line);
    if (hit_way != geometry_.assoc) {
        stamps_[base + hit_way] = lruClock_;
        return;
    }
    const std::size_t i = base + victimWay(base);
    tags_[i] = line;
    stamps_[i] = lruClock_;
    bits_[i] = 0;
}

SetAssocCache::NewestFirstFill::NewestFirstFill(SetAssocCache &cache,
                                                std::uint64_t installs)
    : cache_(cache), stamp_(installs)
{
    if (cache_.lruClock_ != 0)
        fatal("cache ", cache_.name_,
              ": newest-first fill needs an untouched cache");
    cache_.lruClock_ = installs;
}

bool
SetAssocCache::NewestFirstFill::place(Addr addr)
{
    assert(stamp_ > 0 && "more lines offered than installs declared");
    const std::uint64_t line = cache_.index_.line(addr);
    const std::size_t base = cache_.setBase(line);
    const std::uint32_t assoc = cache_.geometry_.assoc;
    std::uint64_t *const tags = &cache_.tags_[base];
    const std::uint64_t stamp = stamp_--;
    // Sets fill from way 0 up and never lose a line, so the first invalid
    // way ends the placed lines.
    for (std::uint32_t way = 0; way < assoc; ++way) {
        if (tags[way] == kInvalidTag) {
            tags[way] = line;
            cache_.stamps_[base + way] = stamp;
            fullSets_ += way + 1 == assoc;
            break;
        }
        if (tags[way] == line)
            break; // shadowed by a newer install of the same line
    }
    return fullSets_ < cache_.numSets_;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const std::uint64_t line = index_.line(addr);
    return findWay(setBase(line), line) != geometry_.assoc;
}

void
SetAssocCache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(bits_.begin(), bits_.end(), 0);
}

void
SetAssocCache::saveState(ckpt::Writer &w) const
{
    // The byte layout of the former array-of-lines store: per way the
    // tag (0 when invalid), LRU stamp, valid, dirty and prefetched.
    w.u64(lruClock_);
    ckpt::saveCounters(w, stats_);
    w.u32(static_cast<std::uint32_t>(tags_.size()));
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const bool valid = tags_[i] != kInvalidTag;
        w.u64(valid ? tags_[i] : 0);
        w.u64(stamps_[i]);
        w.boolean(valid);
        w.boolean(bits_[i] & kDirty);
        w.boolean(bits_[i] & kPrefetched);
    }
}

void
SetAssocCache::loadState(ckpt::Reader &r)
{
    lruClock_ = r.u64();
    ckpt::loadCounters(r, stats_);
    r.count(tags_.size(), "cache lines");
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const std::uint64_t tag = r.u64();
        stamps_[i] = r.u64();
        const bool valid = r.boolean();
        if (valid && tag == kInvalidTag)
            throw ckpt::CorruptSnapshot("ckpt: cache tag out of range");
        tags_[i] = valid ? tag : kInvalidTag;
        const bool dirty = r.boolean();
        const bool prefetched = r.boolean();
        bits_[i] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                             (prefetched ? kPrefetched : 0));
    }
}

} // namespace smtflex
