#include "sim/directory.hh"

#include "sim/memop.hh"

namespace mnoc::sim {

namespace {

/** Slots of a table's first allocation (a power of two, >= 16). */
constexpr std::size_t kInitialSlots = 16;

/**
 * Home slot of @p line in a table of 2^(64 - shift) slots: a
 * Fibonacci hash picks an aligned run of 8 slots for each group of 8
 * consecutive lines, and the line's low bits its slot in the run, so
 * a kernel streaming through an array touches neighbouring slots.
 */
inline std::size_t
hashSlot(std::uint64_t line, int shift)
{
    auto run = static_cast<std::size_t>(
        ((line >> 3) * 0x9E3779B97F4A7C15ULL) >> (shift + 3));
    return (run << 3) | static_cast<std::size_t>(line & 7);
}

} // namespace

Directory::Directory(int num_cores)
    : numCores_(num_cores), words_(sharerWords(num_cores)),
      tables_(static_cast<std::size_t>(num_cores))
{
    fatalIf(num_cores < 1, "directory needs at least one core");
}

std::size_t
Directory::homeIndex(std::uint64_t line) const
{
    return static_cast<std::size_t>(homeOf(line << lineShift, numCores_));
}

std::size_t
Directory::probe(const Table &table, std::uint64_t line) const
{
    std::size_t mask = table.keys.size() - 1;
    std::size_t slot = hashSlot(line, table.shift);
    while (table.keys[slot] != 0 && table.keys[slot] != line + 1)
        slot = (slot + 1) & mask;
    return slot;
}

std::size_t
Directory::slotOf(const Table &table, std::uint64_t line) const
{
    if (table.size == 0)
        return kNotFound;
    std::size_t slot = probe(table, line);
    return table.keys[slot] == 0 ? kNotFound : slot;
}

void
Directory::grow(Table &table)
{
    std::size_t slots =
        table.keys.empty() ? kInitialSlots : 2 * table.keys.size();
    Table next;
    next.keys.assign(slots, 0);
    next.meta.assign(slots, 0);
    next.sharers.assign(slots * words_, 0);
    next.size = table.size;
    next.shift = 64 - __builtin_ctzll(slots);
    for (std::size_t from = 0; from < table.keys.size(); ++from) {
        std::uint64_t key = table.keys[from];
        if (key == 0)
            continue;
        std::size_t to = probe(next, key - 1);
        next.keys[to] = key;
        next.meta[to] = table.meta[from];
        for (std::size_t w = 0; w < words_; ++w)
            next.sharers[to * words_ + w] =
                table.sharers[from * words_ + w];
    }
    table = std::move(next);
}

DirEntry
Directory::view(Table &table, std::size_t slot)
{
    return {&table.meta[slot], &table.sharers[slot * words_],
            numCores_};
}

DirEntry
Directory::entry(std::uint64_t line)
{
    Table &table = tables_[homeIndex(line)];
    std::size_t slot = kNotFound;
    if (table.size > 0) {
        slot = probe(table, line);
        if (table.keys[slot] != 0)
            return view(table, slot);
    }
    // A fresh line: Invalid, no owner (owner+1 == 0), no sharers.
    // Tables stay at most three quarters full.
    if (4 * (table.size + 1) > 3 * table.keys.size()) {
        grow(table);
        slot = probe(table, line);
    }
    table.keys[slot] = line + 1;
    ++table.size;
    ++numEntries_;
    return view(table, slot);
}

DirEntry
Directory::at(std::uint64_t line)
{
    Table &table = tables_[homeIndex(line)];
    std::size_t slot = slotOf(table, line);
    panicIf(slot == kNotFound, "directory has no entry for the line");
    return view(table, slot);
}

std::optional<ConstDirEntry>
Directory::find(std::uint64_t line) const
{
    const Table &table = tables_[homeIndex(line)];
    std::size_t slot = slotOf(table, line);
    if (slot == kNotFound)
        return std::nullopt;
    return ConstDirEntry(&table.meta[slot],
                         &table.sharers[slot * words_], numCores_);
}

void
Directory::checkInvariants(std::uint64_t line) const
{
    auto e = find(line);
    if (!e)
        return;
    ConstSharerSpan sharers = e->sharers();
    switch (e->state()) {
      case DirState::Invalid:
        panicIf(!sharers.empty(), "Invalid line has sharers");
        break;
      case DirState::Shared:
        panicIf(sharers.empty(), "Shared line has no sharers");
        panicIf(e->owner() != -1, "Shared line has an owner");
        break;
      case DirState::Owned:
        panicIf(e->owner() < 0, "Owned line lacks an owner");
        panicIf(!sharers.contains(e->owner()),
                "owner missing from sharer set");
        panicIf(sharers.count() < 2,
                "Owned line should have other sharers");
        break;
      case DirState::Modified:
        panicIf(e->owner() < 0, "Modified line lacks an owner");
        panicIf(sharers.count() != 1 || !sharers.contains(e->owner()),
                "Modified line must have exactly the owner cached");
        break;
    }
}

} // namespace mnoc::sim
