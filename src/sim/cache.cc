#include "sim/cache.hh"

#include "common/log.hh"

namespace mnoc::sim {

namespace {

inline LineState
stateOf(std::uint64_t stamp)
{
    return static_cast<LineState>(stamp & 3u);
}

inline std::uint64_t
withState(std::uint64_t stamp, LineState state)
{
    return (stamp & ~std::uint64_t(3)) | static_cast<std::uint64_t>(state);
}

} // namespace

Cache::Cache(const CacheGeometry &geometry)
    : geometry_(geometry), ways_(geometry.associativity)
{
    fatalIf(ways_ == 0, "associativity must be >= 1");
    fatalIf(geometry_.sizeBytes % ((1u << lineShift) * ways_) != 0,
            "cache size must be a whole number of sets");
    std::uint32_t sets = geometry_.numSets();
    fatalIf(sets == 0, "cache must have at least one set");
    fatalIf((sets & (sets - 1)) != 0,
            "cache set count must be a power of two");
    setMask_ = sets - 1;
    sets_.assign(static_cast<std::size_t>(sets) * 2 * ways_, 0);
}

std::uint32_t
Cache::findWay(std::size_t base, std::uint64_t line) const
{
    const std::uint64_t *tags = &sets_[base];
    for (std::uint32_t w = 0; w < ways_; ++w)
        if (tags[w] == line + 1)
            return w;
    return ways_;
}

std::optional<LineState>
Cache::lookup(std::uint64_t line)
{
    std::size_t base = setBase(line);
    std::uint32_t w = findWay(base, line);
    if (w == ways_)
        return std::nullopt;
    std::uint64_t &stamp = sets_[base + ways_ + w];
    stamp = withState(++useCounter_ << 2, stateOf(stamp));
    return stateOf(stamp);
}

std::optional<LineState>
Cache::peek(std::uint64_t line) const
{
    std::size_t base = setBase(line);
    std::uint32_t w = findWay(base, line);
    if (w == ways_)
        return std::nullopt;
    return stateOf(sets_[base + ways_ + w]);
}

std::optional<Eviction>
Cache::insert(std::uint64_t line, LineState state)
{
    std::size_t base = setBase(line);
    std::uint32_t w = findWay(base, line);
    std::optional<Eviction> evicted;
    if (w == ways_) {
        // Invalid ways carry stamp 0 and valid ones distinct positive
        // stamps, so the lowest stamp (first on ties) is the first
        // invalid way, else the least recently used.
        const std::uint64_t *stamps = &sets_[base + ways_];
        w = 0;
        for (std::uint32_t v = 1; v < ways_; ++v)
            if (stamps[v] < stamps[w])
                w = v;
        if (sets_[base + w] != 0)
            evicted = Eviction{sets_[base + w] - 1, stateOf(stamps[w])};
        sets_[base + w] = line + 1;
    }
    sets_[base + ways_ + w] = withState(++useCounter_ << 2, state);
    return evicted;
}

bool
Cache::setState(std::uint64_t line, LineState state)
{
    std::size_t base = setBase(line);
    std::uint32_t w = findWay(base, line);
    if (w == ways_)
        return false;
    std::uint64_t &stamp = sets_[base + ways_ + w];
    stamp = withState(stamp, state);
    return true;
}

std::optional<LineState>
Cache::invalidate(std::uint64_t line)
{
    std::size_t base = setBase(line);
    std::uint32_t w = findWay(base, line);
    if (w == ways_)
        return std::nullopt;
    LineState state = stateOf(sets_[base + ways_ + w]);
    sets_[base + w] = 0;
    sets_[base + ways_ + w] = 0;
    return state;
}

std::size_t
Cache::occupancy() const
{
    std::size_t count = 0;
    for (std::size_t base = 0; base < sets_.size(); base += 2 * ways_)
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (sets_[base + w] != 0)
                ++count;
    return count;
}

} // namespace mnoc::sim
