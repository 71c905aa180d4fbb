/**
 * @file
 * Set-associative cache with LRU replacement and MOSI line states,
 * used for the private L1 and L2 of each simulated core
 * (paper Table 2: 32 KB L1I/L1D, 512 KB L2).
 */

#ifndef MNOC_SIM_CACHE_HH
#define MNOC_SIM_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/memop.hh"

namespace mnoc::sim {

/** MOSI state of a cached line (Invalid lines are simply absent). */
enum class LineState : std::uint8_t
{
    Shared,   ///< clean, possibly multiple copies
    Owned,    ///< dirty, responsible for writeback, sharers may exist
    Modified, ///< dirty, exclusive
};

/** True for states that must write back on eviction. */
inline bool
isDirty(LineState state)
{
    return state != LineState::Shared;
}

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t associativity = 4;

    std::uint32_t
    numSets() const
    {
        return sizeBytes / ((1u << lineShift) * associativity);
    }
};

/** A line evicted to make room for a fill. */
struct Eviction
{
    std::uint64_t line;
    LineState state;
};

/**
 * One level of private cache.  All operations are keyed by cache-line
 * index (addr >> lineShift).  The set count must be a power of two;
 * a line's set is its low index bits.  Replacement picks the set's
 * first invalid way, else its least recently used one.
 */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geometry);

    /**
     * Look up @p line and refresh its LRU position.
     * @return The line's state, or nullopt on miss.
     */
    std::optional<LineState> lookup(std::uint64_t line);

    /** Peek at a line's state without touching LRU. */
    std::optional<LineState> peek(std::uint64_t line) const;

    /**
     * Insert @p line with @p state, evicting the set's LRU entry when
     * the set is full.
     *
     * @return The evicted line, if any.
     */
    std::optional<Eviction> insert(std::uint64_t line, LineState state);

    /**
     * Change an existing line's state.
     * @return false when the line is not present.
     */
    bool setState(std::uint64_t line, LineState state);

    /** Drop @p line if present; @return its state if it was present. */
    std::optional<LineState> invalidate(std::uint64_t line);

    /** Number of resident lines (for tests). */
    std::size_t occupancy() const;

    const CacheGeometry &geometry() const { return geometry_; }

  private:
    /** Index of the way holding @p line in the set at @p base, or
     *  ways_ when absent. */
    std::uint32_t findWay(std::size_t base, std::uint64_t line) const;

    /** Index in sets_ of the set @p line maps to. */
    std::size_t
    setBase(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line & setMask_) * 2 * ways_;
    }

    CacheGeometry geometry_;
    std::uint32_t ways_;
    std::uint64_t setMask_ = 0; // numSets - 1, a power of two less one
    /**
     * Per set, ways_ tags and then ways_ stamps.  A tag is line + 1,
     * 0 when the way is invalid, so an 8-way set's tags fill one
     * 64-byte host cache line and its stamps the next.  A stamp is
     * the use counter at the way's last use shifted left by two, with
     * the line's state in the low two bits; 0 when invalid.
     */
    std::vector<std::uint64_t> sets_;
    std::uint64_t useCounter_ = 0;
};

} // namespace mnoc::sim

#endif // MNOC_SIM_CACHE_HH
