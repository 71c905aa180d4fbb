/**
 * @file
 * Tests of the sharer set, the MOSI directory invariants, and the
 * flat directory against a map-based reference.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/log.hh"
#include "common/prng.hh"
#include "sim/directory.hh"
#include "sim/memop.hh"

namespace {

using namespace mnoc;
using namespace mnoc::sim;

TEST(SharerSet, AddRemoveContains)
{
    SharerSet set(256);
    EXPECT_TRUE(set.empty());
    set.add(0);
    set.add(63);
    set.add(64);
    set.add(255);
    EXPECT_EQ(set.count(), 4);
    EXPECT_TRUE(set.contains(63));
    EXPECT_TRUE(set.contains(64));
    EXPECT_FALSE(set.contains(1));
    set.remove(64);
    EXPECT_FALSE(set.contains(64));
    EXPECT_EQ(set.count(), 3);
}

TEST(SharerSet, MembersAscending)
{
    SharerSet set(200);
    set.add(150);
    set.add(3);
    set.add(64);
    auto members = set.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0], 3);
    EXPECT_EQ(members[1], 64);
    EXPECT_EQ(members[2], 150);
}

TEST(SharerSet, ClearAndIdempotentOps)
{
    SharerSet set(10);
    set.add(5);
    set.add(5); // idempotent
    EXPECT_EQ(set.count(), 1);
    set.remove(7); // not present: no-op
    EXPECT_EQ(set.count(), 1);
    set.clear();
    EXPECT_TRUE(set.empty());
}

TEST(SharerSet, RangeChecked)
{
    SharerSet set(8);
    EXPECT_THROW(set.add(8), PanicError);
    EXPECT_THROW(set.contains(-1), PanicError);
}

TEST(Directory, EntriesCreatedOnDemand)
{
    Directory dir(16);
    EXPECT_EQ(dir.numEntries(), 0u);
    EXPECT_FALSE(dir.find(42).has_value());
    DirEntry e = dir.entry(42);
    EXPECT_EQ(e.state(), DirState::Invalid);
    EXPECT_EQ(e.owner(), -1);
    EXPECT_TRUE(e.sharers().empty());
    EXPECT_EQ(dir.numEntries(), 1u);
    e.setState(DirState::Modified);
    e.setOwner(7);
    e.sharers().add(7);
    auto found = dir.find(42);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->state(), DirState::Modified);
    EXPECT_EQ(found->owner(), 7);
    EXPECT_EQ(found->sharers().members(), std::vector<int>{7});
    dir.entry(42); // existing line: no new entry
    EXPECT_EQ(dir.numEntries(), 1u);
}

TEST(Directory, PackedStateAndOwnerAreIndependent)
{
    Directory dir(4096);
    DirEntry e = dir.entry(5);
    e.setOwner(4095);
    e.setState(DirState::Owned);
    EXPECT_EQ(e.owner(), 4095);
    EXPECT_EQ(e.state(), DirState::Owned);
    e.setState(DirState::Shared);
    EXPECT_EQ(e.owner(), 4095);
    e.setOwner(-1);
    EXPECT_EQ(e.state(), DirState::Shared);
    EXPECT_EQ(e.owner(), -1);
}

TEST(Directory, AtPanicsOnAbsentLine)
{
    Directory dir(16);
    EXPECT_THROW(dir.at(9), PanicError);
    dir.entry(9).setState(DirState::Shared);
    EXPECT_EQ(dir.at(9).state(), DirState::Shared);
    EXPECT_THROW(dir.at(10), PanicError);
    EXPECT_EQ(dir.numEntries(), 1u); // at() never creates
}

TEST(Directory, InvariantChecksCatchCorruption)
{
    Directory dir(16);
    {
        DirEntry e = dir.entry(1);
        e.setState(DirState::Shared); // no sharers: invalid
        EXPECT_THROW(dir.checkInvariants(1), PanicError);
        e.sharers().add(3);
        e.setOwner(-1);
        EXPECT_NO_THROW(dir.checkInvariants(1));
    }
    {
        DirEntry e = dir.entry(2);
        e.setState(DirState::Modified);
        e.setOwner(5);
        e.sharers().add(5);
        EXPECT_NO_THROW(dir.checkInvariants(2));
        e.sharers().add(6); // extra sharer on a Modified line
        EXPECT_THROW(dir.checkInvariants(2), PanicError);
    }
    {
        DirEntry e = dir.entry(3);
        e.setState(DirState::Owned);
        e.setOwner(1);
        e.sharers().add(1);
        EXPECT_THROW(dir.checkInvariants(3), PanicError); // no sharer
        e.sharers().add(2);
        EXPECT_NO_THROW(dir.checkInvariants(3));
    }
    {
        DirEntry e = dir.entry(4);
        e.setState(DirState::Invalid);
        e.sharers().add(0);
        EXPECT_THROW(dir.checkInvariants(4), PanicError);
    }
}

/** The directory this one replaced: one ordered map entry per line,
 *  each with its own sharer set. */
struct MapDirectory
{
    struct Entry
    {
        DirState state = DirState::Invalid;
        int owner = -1;
        std::set<int> sharers;
    };
    std::map<std::uint64_t, Entry> lines;
};

template <class Entry>
void
expectSame(const MapDirectory::Entry &want, const Entry &got)
{
    EXPECT_EQ(got.state(), want.state);
    EXPECT_EQ(got.owner(), want.owner);
    std::vector<int> members(want.sharers.begin(), want.sharers.end());
    EXPECT_EQ(got.sharers().members(), members);
    EXPECT_EQ(got.sharers().count(), static_cast<int>(members.size()));
    EXPECT_EQ(got.sharers().empty(), members.empty());
}

/**
 * Drive the flat directory and the map directory with one random
 * sequence of entry/find/at and state, owner and sharer operations.
 * Three quarters of the lines share one home, so that home's table
 * grows many times over (it starts at 16 slots and doubles whenever
 * it passes three quarters full).
 */
void
runDirectoryDifferential(int num_cores, std::uint64_t seed)
{
    Directory dir(num_cores);
    MapDirectory ref;
    Prng rng(seed);
    const int hot_home = num_cores / 3;
    std::map<int, std::size_t> per_home;

    auto pick_line = [&]() {
        int home = rng.below(4) == 0
                       ? static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(num_cores)))
                       : hot_home;
        return lineOf(
            placedAddr(home, rng.below(3000) << lineShift));
    };

    for (int op = 0; op < 40000; ++op) {
        std::uint64_t line = pick_line();
        switch (rng.below(8)) {
          case 0: { // find
            auto got = dir.find(line);
            auto it = ref.lines.find(line);
            ASSERT_EQ(got.has_value(), it != ref.lines.end());
            if (got)
                expectSame(it->second, *got);
            break;
          }
          case 1: { // at on a present line, else a panic
            if (ref.lines.count(line) == 0) {
                EXPECT_THROW(dir.at(line), PanicError);
                break;
            }
            DirEntry e = dir.at(line);
            int core = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(num_cores)));
            e.sharers().remove(core);
            ref.lines[line].sharers.erase(core);
            break;
          }
          default: { // entry, then mutate
            bool fresh = ref.lines.count(line) == 0;
            MapDirectory::Entry &want = ref.lines[line];
            if (fresh)
                ++per_home[homeOf(line << lineShift, num_cores)];
            DirEntry e = dir.entry(line);
            expectSame(want, e);
            int core = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(num_cores)));
            switch (rng.below(6)) {
              case 0:
                e.sharers().add(core);
                want.sharers.insert(core);
                break;
              case 1:
                e.sharers().remove(core);
                want.sharers.erase(core);
                break;
              case 2:
                e.sharers().clear();
                want.sharers.clear();
                break;
              case 3: {
                auto state = static_cast<DirState>(rng.below(4));
                e.setState(state);
                want.state = state;
                break;
              }
              case 4:
                e.setOwner(core - 1);
                want.owner = core - 1;
                break;
              default:
                EXPECT_EQ(e.sharers().contains(core),
                          want.sharers.count(core) == 1);
                break;
            }
            break;
          }
        }
        ASSERT_EQ(dir.numEntries(), ref.lines.size());
    }

    // 49 lines already take a table through three doublings.
    EXPECT_GT(per_home[hot_home], 1000u);
    for (const auto &[line, want] : ref.lines) {
        auto got = dir.find(line);
        ASSERT_TRUE(got.has_value());
        expectSame(want, *got);
    }
}

TEST(Directory, MatchesMapDirectoryAt16Cores)
{
    runDirectoryDifferential(16, 1);
    runDirectoryDifferential(16, 2);
}

TEST(Directory, MatchesMapDirectoryAt4096Cores)
{
    // 64-word sharer rows.
    runDirectoryDifferential(4096, 3);
}

} // namespace
