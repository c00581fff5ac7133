#include "cache.h"

#include <cassert>

#include "common/log.h"

namespace smtflex {

SetAssocCache::SetAssocCache(std::string name, const CacheGeometry &geometry)
    : name_(std::move(name)), geometry_(geometry)
{
    if (geometry_.lineSize == 0 || geometry_.assoc == 0)
        fatal("cache ", name_, ": bad geometry");
    if (geometry_.sizeBytes % geometry_.lineSize != 0)
        fatal("cache ", name_, ": size not a multiple of line size");
    if (geometry_.numLines() % geometry_.assoc != 0)
        fatal("cache ", name_, ": lines not divisible by associativity");
    numSets_ = geometry_.numSets();
    if (numSets_ == 0)
        fatal("cache ", name_, ": zero sets");
    lines_.resize(numSets_ * geometry_.assoc);
}

std::uint64_t
SetAssocCache::setIndex(Addr line_addr) const
{
    // Modulo placement supports non-power-of-two set counts (6 KB, 48 KB
    // caches in Table 1).
    return (line_addr / geometry_.lineSize) % numSets_;
}

CacheAccessResult
SetAssocCache::access(Addr addr, bool is_write, bool mark_prefetched)
{
    const Addr line_addr = addr / geometry_.lineSize;
    const std::uint64_t set = setIndex(addr);
    Line *const base = &lines_[set * geometry_.assoc];

    ++stats_.accesses;
    ++lruClock_;

    Line *victim = base;
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = lruClock_;
            line.dirty = line.dirty || is_write;
            const bool was_prefetched = line.prefetched;
            line.prefetched = false; // demand touch consumes the tag
            return {.hit = true, .hitPrefetched = was_prefetched,
                    .writeback = false, .victimAddr = 0};
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }

    // Miss: allocate over the LRU (or an invalid) way.
    ++stats_.misses;
    CacheAccessResult result;
    if (victim->valid) {
        ++stats_.evictions;
        if (victim->dirty) {
            ++stats_.writebacks;
            result.writeback = true;
            result.victimAddr = victim->tag * geometry_.lineSize;
        }
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = is_write;
    victim->prefetched = mark_prefetched;
    victim->lruStamp = lruClock_;
    return result;
}

void
SetAssocCache::install(Addr addr)
{
    const Addr line_addr = addr / geometry_.lineSize;
    const std::uint64_t set = setIndex(addr);
    Line *const base = &lines_[set * geometry_.assoc];
    ++lruClock_;

    Line *victim = base;
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = lruClock_;
            return;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = false;
    victim->prefetched = false;
    victim->lruStamp = lruClock_;
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
    const Addr line_addr = addr / cache_.geometry_.lineSize;
    const std::uint32_t assoc = cache_.geometry_.assoc;
    Line *const base = &cache_.lines_[cache_.setIndex(addr) * assoc];
    const std::uint64_t stamp = stamp_--;
    // Sets fill from way 0 up and never lose a line, so the first invalid
    // way ends the placed lines.
    for (std::uint32_t way = 0; way < assoc; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            line.valid = true;
            line.tag = line_addr;
            line.lruStamp = stamp;
            fullSets_ += way + 1 == assoc;
            break;
        }
        if (line.tag == line_addr)
            break; // shadowed by a newer install of the same line
    }
    return fullSets_ < cache_.numSets_;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr line_addr = addr / geometry_.lineSize;
    const std::uint64_t set = setIndex(addr);
    const Line *const base = &lines_[set * geometry_.assoc];
    for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
        if (base[way].valid && base[way].tag == line_addr)
            return true;
    }
    return false;
}

void
SetAssocCache::invalidateAll()
{
    for (auto &line : lines_)
        line = Line();
}

void
SetAssocCache::saveState(ckpt::Writer &w) const
{
    w.u64(lruClock_);
    ckpt::saveCounters(w, stats_);
    w.u32(static_cast<std::uint32_t>(lines_.size()));
    for (const Line &line : lines_) {
        w.u64(line.tag);
        w.u64(line.lruStamp);
        w.boolean(line.valid);
        w.boolean(line.dirty);
        w.boolean(line.prefetched);
    }
}

void
SetAssocCache::loadState(ckpt::Reader &r)
{
    lruClock_ = r.u64();
    ckpt::loadCounters(r, stats_);
    r.count(lines_.size(), "cache lines");
    for (Line &line : lines_) {
        line.tag = r.u64();
        line.lruStamp = r.u64();
        line.valid = r.boolean();
        line.dirty = r.boolean();
        line.prefetched = r.boolean();
    }
}

} // namespace smtflex
