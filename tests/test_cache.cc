/**
 * @file
 * Tests of the set-associative cache with LRU replacement, including
 * a differential run against the entry-per-way cache it replaced.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"
#include "sim/cache.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

CacheGeometry
tiny()
{
    // 4 sets x 2 ways of 64B lines = 512 B.
    return CacheGeometry{512, 2};
}

TEST(Cache, GeometryDerivesSets)
{
    EXPECT_EQ(tiny().numSets(), 4u);
    EXPECT_EQ((CacheGeometry{32 * 1024, 4}).numSets(), 128u);
    EXPECT_EQ((CacheGeometry{512 * 1024, 8}).numSets(), 1024u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(tiny());
    EXPECT_FALSE(cache.lookup(100).has_value());
    EXPECT_FALSE(cache.insert(100, LineState::Shared).has_value());
    auto state = cache.lookup(100);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, LineState::Shared);
}

TEST(Cache, EvictsLruWithinSet)
{
    Cache cache(tiny());
    // Lines 0, 4, 8 all map to set 0 (4 sets); associativity 2.
    cache.insert(0, LineState::Shared);
    cache.insert(4, LineState::Modified);
    cache.lookup(0); // make line 4 the LRU
    auto evicted = cache.insert(8, LineState::Shared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 4u);
    EXPECT_EQ(evicted->state, LineState::Modified);
    EXPECT_TRUE(cache.lookup(0).has_value());
    EXPECT_FALSE(cache.lookup(4).has_value());
}

TEST(Cache, InsertRefreshesExistingLine)
{
    Cache cache(tiny());
    cache.insert(0, LineState::Shared);
    auto evicted = cache.insert(0, LineState::Modified);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(*cache.lookup(0), LineState::Modified);
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(Cache, SetStateAndInvalidate)
{
    Cache cache(tiny());
    cache.insert(3, LineState::Shared);
    EXPECT_TRUE(cache.setState(3, LineState::Owned));
    EXPECT_EQ(*cache.peek(3), LineState::Owned);
    EXPECT_FALSE(cache.setState(99, LineState::Owned));

    auto state = cache.invalidate(3);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(*state, LineState::Owned);
    EXPECT_FALSE(cache.invalidate(3).has_value());
    EXPECT_EQ(cache.occupancy(), 0u);
}

TEST(Cache, PeekDoesNotTouchLru)
{
    Cache cache(tiny());
    cache.insert(0, LineState::Shared);
    cache.insert(4, LineState::Shared);
    // Peek at 0 (no LRU update): 0 remains the LRU victim.
    cache.peek(0);
    auto evicted = cache.insert(8, LineState::Shared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->line, 0u);
}

TEST(Cache, DistinctSetsDoNotInterfere)
{
    Cache cache(tiny());
    for (std::uint64_t line = 0; line < 8; ++line)
        EXPECT_FALSE(cache.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(cache.occupancy(), 8u);
}

TEST(Cache, DirtyStateHelper)
{
    EXPECT_FALSE(isDirty(LineState::Shared));
    EXPECT_TRUE(isDirty(LineState::Owned));
    EXPECT_TRUE(isDirty(LineState::Modified));
}

TEST(Cache, RejectsMalformedGeometry)
{
    EXPECT_THROW(Cache(CacheGeometry{512, 0}), FatalError);
    EXPECT_THROW(Cache(CacheGeometry{100, 2}), FatalError);
}

TEST(Cache, RejectsNonPowerOfTwoSetCount)
{
    // Whole numbers of sets, but 3, 6 and 48 of them.
    EXPECT_THROW(Cache(CacheGeometry{3 * 64 * 2, 2}), FatalError);
    EXPECT_THROW(Cache(CacheGeometry{6 * 64 * 4, 4}), FatalError);
    EXPECT_THROW(Cache(CacheGeometry{48 * 64 * 8, 8}), FatalError);
    EXPECT_NO_THROW(Cache(CacheGeometry{64, 1}));      // one set
    EXPECT_NO_THROW(Cache(CacheGeometry{3 * 64, 3})); // 3 ways, 1 set
}

/**
 * The cache this one replaced: one {line, state, lastUse, valid}
 * entry per way, sets indexed by line % numSets, the victim the
 * set's first invalid way, else its least recently used one.
 */
class EntryCache
{
  public:
    explicit EntryCache(const CacheGeometry &geometry)
        : ways_(geometry.associativity), sets_(geometry.numSets()),
          entries_(static_cast<std::size_t>(sets_) * ways_)
    {}

    std::optional<LineState>
    lookup(std::uint64_t line)
    {
        Entry *e = find(line);
        if (e == nullptr)
            return std::nullopt;
        e->lastUse = ++useCounter_;
        return e->state;
    }

    std::optional<LineState>
    peek(std::uint64_t line)
    {
        Entry *e = find(line);
        return e ? std::optional<LineState>(e->state) : std::nullopt;
    }

    std::optional<Eviction>
    insert(std::uint64_t line, LineState state)
    {
        std::size_t base = (line % sets_) * ways_;
        Entry *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.valid && e.line == line) {
                e.state = state;
                e.lastUse = ++useCounter_;
                return std::nullopt;
            }
            bool better = victim == nullptr ||
                          (victim->valid &&
                           (!e.valid || e.lastUse < victim->lastUse));
            if (better)
                victim = &e;
        }
        std::optional<Eviction> evicted;
        if (victim->valid)
            evicted = Eviction{victim->line, victim->state};
        *victim = Entry{line, state, ++useCounter_, true};
        return evicted;
    }

    bool
    setState(std::uint64_t line, LineState state)
    {
        Entry *e = find(line);
        if (e == nullptr)
            return false;
        e->state = state;
        return true;
    }

    std::optional<LineState>
    invalidate(std::uint64_t line)
    {
        Entry *e = find(line);
        if (e == nullptr)
            return std::nullopt;
        e->valid = false;
        return e->state;
    }

    std::size_t
    occupancy() const
    {
        std::size_t count = 0;
        for (const Entry &e : entries_)
            count += e.valid ? 1 : 0;
        return count;
    }

  private:
    struct Entry
    {
        std::uint64_t line = 0;
        LineState state = LineState::Shared;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    Entry *
    find(std::uint64_t line)
    {
        std::size_t base = (line % sets_) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.valid && e.line == line)
                return &e;
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<Entry> entries_;
    std::uint64_t useCounter_ = 0;
};

/** One random op sequence through both caches; every return value
 *  and every evicted (line, state) must agree. */
void
runCacheDifferential(const CacheGeometry &geometry, std::uint64_t seed)
{
    Cache cache(geometry);
    EntryCache ref(geometry);
    Prng rng(seed);
    // Four lines per way and set, so sets overflow constantly; line 0
    // and lines far above 2^32 are in the pool.
    std::uint64_t lines = 4ULL * geometry.numSets() *
                          geometry.associativity;
    for (int op = 0; op < 200000; ++op) {
        std::uint64_t line = rng.below(lines);
        if (rng.below(8) == 0)
            line += 1ULL << 40;
        auto state = static_cast<LineState>(rng.below(3));
        switch (rng.below(6)) {
          case 0:
          case 1: {
            auto got = cache.insert(line, state);
            auto want = ref.insert(line, state);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (got) {
                EXPECT_EQ(got->line, want->line);
                EXPECT_EQ(got->state, want->state);
            }
            break;
          }
          case 2:
            ASSERT_EQ(cache.lookup(line), ref.lookup(line));
            break;
          case 3:
            ASSERT_EQ(cache.peek(line), ref.peek(line));
            break;
          case 4:
            ASSERT_EQ(cache.setState(line, state),
                      ref.setState(line, state));
            break;
          default:
            ASSERT_EQ(cache.invalidate(line), ref.invalidate(line));
            break;
        }
        if (op % 997 == 0) {
            ASSERT_EQ(cache.occupancy(), ref.occupancy());
        }
    }
    EXPECT_EQ(cache.occupancy(), ref.occupancy());
}

TEST(Cache, MatchesEntryCache)
{
    runCacheDifferential(CacheGeometry{512, 2}, 1);       // tiny
    runCacheDifferential(CacheGeometry{64, 1}, 2);        // one way
    runCacheDifferential(CacheGeometry{4 * 64, 4}, 3);    // one set
    runCacheDifferential(CacheGeometry{32 * 1024, 4}, 4); // L1
    runCacheDifferential(CacheGeometry{512 * 1024, 8}, 5); // L2
}

} // namespace
