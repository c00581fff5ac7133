/**
 * @file
 * Set-associative cache with true LRU replacement.
 *
 * Used for the private L1I/L1D/L2 caches of every core and for the shared
 * last-level cache. The tag array is real (not a miss-rate curve), so
 * capacity and conflict behaviour — including SMT threads sharing a private
 * cache and multiple cores sharing the LLC, both central to the paper —
 * emerge from the simulated address streams.
 */

#ifndef SMTFLEX_CACHE_CACHE_H
#define SMTFLEX_CACHE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"
#include "telemetry/registry.h"

namespace smtflex {

/** Geometry of one cache. Sizes need not be powers of two (the paper uses
 * 6 KB and 48 KB small-core caches); the set index uses modulo placement.
 * The line size must be a power of two. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineSize = kLineSize;

    std::uint64_t numLines() const { return sizeBytes / lineSize; }
    std::uint64_t numSets() const { return numLines() / assoc; }
};

/**
 * The set of a byte address, (addr / lineSize) % numSets, without a
 * division: the line number is a shift, and the modulo is a mask for a
 * power-of-two set count, else an exact multiply-high reduction. With
 * magic = floor(2^64 / numSets), q = (line * magic) >> 64 is floor(line /
 * numSets) or one less, so line - q * numSets lies in [0, 2 numSets) and
 * one conditional subtraction makes it exact for every 64-bit line.
 */
class SetIndex
{
  public:
    /** @p line_size a power of two of at least 2, @p num_sets > 0; else
     * fatal(). */
    SetIndex(std::uint32_t line_size, std::uint64_t num_sets);

    /** The line number of byte address @p addr. */
    std::uint64_t line(Addr addr) const { return addr >> lineShift_; }

    /** The set of line number @p line. */
    std::uint64_t setOfLine(std::uint64_t line) const
    {
        if (mask_ != kNoMask)
            return line & mask_;
        const auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(line) * magic_) >> 64);
        const std::uint64_t r = line - q * numSets_;
        return r >= numSets_ ? r - numSets_ : r;
    }

    /** The set of byte address @p addr. */
    std::uint64_t operator()(Addr addr) const
    {
        return setOfLine(line(addr));
    }

    /** The line-size shift: a line number's byte address is line << it. */
    unsigned lineShift() const { return lineShift_; }

  private:
    static constexpr std::uint64_t kNoMask = ~std::uint64_t{0};

    unsigned lineShift_;
    std::uint64_t numSets_;
    /** numSets - 1 for a power-of-two set count, else kNoMask. */
    std::uint64_t mask_;
    std::uint64_t magic_ = 0;
};

/** Aggregate statistics of one cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    /** The telemetry field list — single source of the metric names. */
    template <typename F>
    static void forEachCounter(F &&f)
    {
        f("accesses", &CacheStats::accesses);
        f("misses", &CacheStats::misses);
        f("evictions", &CacheStats::evictions);
        f("writebacks", &CacheStats::writebacks);
    }
};

/** Result of a single cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** The hit line was installed by a prefetch and is touched by demand
     * for the first time (tagged prefetching: the prefetcher re-arms). */
    bool hitPrefetched = false;
    /** True when a dirty victim was evicted (must be written back). */
    bool writeback = false;
    /** Line address of the dirty victim when writeback is set. */
    Addr victimAddr = 0;
};

/**
 * A write-back, write-allocate, true-LRU set-associative cache.
 */
class SetAssocCache : public telemetry::StatsProvider<CacheStats>
{
  public:
    SetAssocCache(std::string name, const CacheGeometry &geometry);

    /**
     * Access one line. On a miss the line is allocated (write-allocate) and
     * the LRU victim is evicted.
     *
     * @param addr byte address (any offset within the line).
     * @param is_write marks the line dirty.
     * @param mark_prefetched tag an allocated line as prefetched.
     */
    CacheAccessResult access(Addr addr, bool is_write,
                             bool mark_prefetched = false);

    /** Probe without updating state or statistics. */
    bool contains(Addr addr) const;

    /**
     * Functionally install a clean line without touching statistics
     * (functional warmup of sampled simulation: the line appears as if it
     * had been fetched earlier; any victim is dropped silently).
     */
    void install(Addr addr);

    /**
     * Functional warmup of an untouched cache (no access or install yet),
     * newest line first: offered the addresses of a run of @p installs
     * install() calls in reverse order, it leaves the state that run
     * leaves — by the LRU stack property, each set holds its assoc most
     * recently installed distinct lines, each stamped with the clock value
     * of its last install, and the clock reads @p installs. A line already
     * placed in its set (a newer install of it) and a line whose set is
     * full are skipped. Which way a line occupies may differ from
     * install(); no hit, victim choice or statistic depends on it.
     * Constructing it on a used cache fails with an error naming it.
     */
    class NewestFirstFill
    {
      public:
        NewestFirstFill(SetAssocCache &cache, std::uint64_t installs);

        /** Offer the next older install; false once every set is full
         * (no older line can be resident, the walk may stop). */
        bool place(Addr addr);

      private:
        SetAssocCache &cache_;
        std::uint64_t stamp_;
        std::uint64_t fullSets_ = 0;
    };

    /** Drop every line (loses dirty data; used by tests/resets). */
    void invalidateAll();

    const CacheGeometry &geometry() const { return geometry_; }
    const std::string &name() const { return name_; }

    /** Register this cache's counters under @p prefix (e.g. "llc"). */
    void registerMetrics(telemetry::MetricRegistry &registry,
                         const std::string &prefix) const
    {
        telemetry::attachCounters(registry, prefix, stats_);
    }

    /** Serialize the full mutable state (tag array, LRU clock, stats). */
    void saveState(ckpt::Writer &w) const;
    /** Restore state saved by an identically configured cache; throws
     * ckpt::CorruptSnapshot on any geometry mismatch. */
    void loadState(ckpt::Reader &r);

  private:
    /** The tag of an invalid way. No line number reaches it: line numbers
     * are addresses shifted right by at least one bit. */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
    /** Flag bits of bits_. */
    static constexpr std::uint8_t kDirty = 1;
    static constexpr std::uint8_t kPrefetched = 2;

    /** The first way of @p line's set in the flat arrays. */
    std::size_t setBase(std::uint64_t line) const
    {
        return static_cast<std::size_t>(index_.setOfLine(line)) *
            geometry_.assoc;
    }
    /** The way of the set at @p base holding @p line, or assoc. */
    std::uint32_t findWay(std::size_t base, std::uint64_t line) const;
    /** The replacement victim of the set at @p base: its last invalid
     * way, else its first way with the smallest LRU stamp. */
    std::uint32_t victimWay(std::size_t base) const;

    std::string name_;
    CacheGeometry geometry_;
    std::uint64_t numSets_;
    SetIndex index_;
    // The tag store as flat numSets_ x assoc row-major arrays: per way the
    // line number (kInvalidTag when invalid), the LRU stamp, and the
    // dirty/prefetched flags.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> bits_;
    std::uint64_t lruClock_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_CACHE_CACHE_H
