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

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serial.h"
#include "common/types.h"
#include "telemetry/registry.h"

namespace smtflex {

/** Geometry of one cache. Sizes need not be powers of two (the paper uses
 * 6 KB and 48 KB small-core caches); the set index uses modulo placement. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineSize = kLineSize;

    std::uint64_t numLines() const { return sizeBytes / lineSize; }
    std::uint64_t numSets() const { return numLines() / assoc; }
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
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    std::uint64_t setIndex(Addr line_addr) const;

    std::string name_;
    CacheGeometry geometry_;
    std::uint64_t numSets_;
    std::vector<Line> lines_; // numSets_ x assoc, row-major
    std::uint64_t lruClock_ = 0;
};

} // namespace smtflex

#endif // SMTFLEX_CACHE_CACHE_H
