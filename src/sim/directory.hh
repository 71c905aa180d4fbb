/**
 * @file
 * MOSI directory state, distributed across cores by the owner bits of
 * each address (paper Section 5.1 uses Graphite's directory-based MOSI
 * protocol).
 */

#ifndef MNOC_SIM_DIRECTORY_HH
#define MNOC_SIM_DIRECTORY_HH

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace mnoc::sim {

/** Number of 64-bit words a sharer bitset over @p num_cores needs. */
inline std::size_t
sharerWords(int num_cores)
{
    return (static_cast<std::size_t>(num_cores) + 63) / 64;
}

/**
 * Bitset over core indices, viewed in place over caller-owned words
 * (a directory slab row or a SharerSet).  @p Word is std::uint64_t
 * for a mutable view and const std::uint64_t for a read-only one.
 */
template <class Word>
class BasicSharerSpan
{
  public:
    BasicSharerSpan(Word *words, int num_cores)
        : words_(words), numCores_(num_cores)
    {}

    void
    add(int core) const
    {
        check(core);
        words_[core >> 6] |= 1ULL << (core & 63);
    }

    void
    remove(int core) const
    {
        check(core);
        words_[core >> 6] &= ~(1ULL << (core & 63));
    }

    bool
    contains(int core) const
    {
        check(core);
        return (words_[core >> 6] >> (core & 63)) & 1ULL;
    }

    int
    count() const
    {
        int total = 0;
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            total += __builtin_popcountll(words_[wi]);
        return total;
    }

    bool
    empty() const
    {
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            if (words_[wi] != 0)
                return false;
        return true;
    }

    void
    clear() const
    {
        for (std::size_t wi = 0; wi < numWords(); ++wi)
            words_[wi] = 0;
    }

    /** All set core indices, ascending. */
    std::vector<int>
    members() const
    {
        std::vector<int> out;
        for (std::size_t wi = 0; wi < numWords(); ++wi) {
            std::uint64_t w = words_[wi];
            while (w) {
                int bit = __builtin_ctzll(w);
                out.push_back(static_cast<int>(wi * 64) + bit);
                w &= w - 1;
            }
        }
        return out;
    }

  private:
    std::size_t numWords() const { return sharerWords(numCores_); }

    void
    check(int core) const
    {
        panicIf(core < 0 || core >= numCores_,
                "sharer core index out of range");
    }

    Word *words_;
    int numCores_;
};

using SharerSpan = BasicSharerSpan<std::uint64_t>;
using ConstSharerSpan = BasicSharerSpan<const std::uint64_t>;

/** Compact owning bitset over core indices. */
class SharerSet
{
  public:
    explicit SharerSet(int num_cores = 0)
        : numCores_(num_cores), words_(sharerWords(num_cores), 0)
    {}

    void add(int core) { span().add(core); }
    void remove(int core) { span().remove(core); }
    bool contains(int core) const { return view().contains(core); }
    int count() const { return view().count(); }
    bool empty() const { return view().empty(); }
    void clear() { span().clear(); }
    std::vector<int> members() const { return view().members(); }

  private:
    SharerSpan span() { return {words_.data(), numCores_}; }
    ConstSharerSpan view() const { return {words_.data(), numCores_}; }

    int numCores_;
    std::vector<std::uint64_t> words_;
};

/** Directory-visible state of a line. */
enum class DirState : std::uint8_t
{
    Invalid,  ///< no cached copies
    Shared,   ///< one or more clean copies, memory up to date
    Owned,    ///< dirty owner plus zero or more sharers
    Modified, ///< single dirty owner
};

/**
 * One line's directory entry, viewed in place in its home's table:
 * the packed {state, owner} word and the line's sharer row of the
 * slab.  @p Const selects a read-only view.  A view stays valid until
 * the next Directory::entry() that creates a line in the same home.
 */
template <bool Const>
class BasicDirEntry
{
    using Word = std::conditional_t<Const, const std::uint64_t,
                                    std::uint64_t>;
    using Meta = std::conditional_t<Const, const std::uint32_t,
                                    std::uint32_t>;

  public:
    BasicDirEntry(Meta *meta, Word *sharers, int num_cores)
        : meta_(meta), sharers_(sharers), numCores_(num_cores)
    {}

    DirState state() const { return static_cast<DirState>(*meta_ & 3u); }

    /** Owning core, or -1 when the line has no owner. */
    int owner() const { return static_cast<int>(*meta_ >> 2) - 1; }

    void
    setState(DirState state) const
    {
        *meta_ = (*meta_ & ~3u) | static_cast<std::uint32_t>(state);
    }

    void
    setOwner(int core) const
    {
        *meta_ = (static_cast<std::uint32_t>(core + 1) << 2) |
                 (*meta_ & 3u);
    }

    BasicSharerSpan<Word>
    sharers() const
    {
        return {sharers_, numCores_};
    }

  private:
    Meta *meta_;
    Word *sharers_;
    int numCores_;
};

using DirEntry = BasicDirEntry<false>;
using ConstDirEntry = BasicDirEntry<true>;

/**
 * The full distributed directory: one open-addressed table per home
 * (the owner field of the line's address), keyed by line index with
 * linear probing.  A slot holds the line's key, its packed {state,
 * owner} word, and its row of a sharer slab sized by the core count;
 * no line owns a heap allocation.  Lines are never erased: a line
 * whose copies are all gone stays, Invalid.
 *
 * The tables are lookup-only: no API iterates them, so their slot
 * order can never reach stats or serialization (any future traversal
 * must go through a sorted view).
 */
class Directory
{
  public:
    explicit Directory(int num_cores);

    /**
     * Fetch or create the entry for @p line.  Creating a line may
     * grow its home's table, which invalidates every view into that
     * home.
     */
    DirEntry entry(std::uint64_t line);

    /** Entry of a line that must already exist; panics otherwise.
     *  Never grows a table, so views held by the caller survive. */
    DirEntry at(std::uint64_t line);

    /** Entry lookup without creation (for tests/invariant checks). */
    std::optional<ConstDirEntry> find(std::uint64_t line) const;

    std::size_t numEntries() const { return numEntries_; }
    int numCores() const { return numCores_; }

    /**
     * Validate the entry invariants for @p line: owner consistency and
     * sharer-count agreement with the state.  Panics on violation.
     */
    void checkInvariants(std::uint64_t line) const;

  private:
    /** One home's table; capacity is zero or a power of two. */
    struct Table
    {
        std::vector<std::uint64_t> keys; ///< line + 1; 0 = empty
        std::vector<std::uint32_t> meta; ///< owner+1 << 2 | state
        std::vector<std::uint64_t> sharers; ///< words_ per slot
        std::size_t size = 0;
        int shift = 64; ///< 64 - log2(capacity)
    };

    static constexpr std::size_t kNotFound = ~std::size_t(0);

    /** Index of @p line's home in tables_. */
    std::size_t homeIndex(std::uint64_t line) const;

    /** Slot holding @p line, or the empty slot that would. */
    std::size_t probe(const Table &table, std::uint64_t line) const;
    /** Slot holding @p line, or kNotFound. */
    std::size_t slotOf(const Table &table, std::uint64_t line) const;
    /** Double @p table's capacity, rehashing every line. */
    void grow(Table &table);
    DirEntry view(Table &table, std::size_t slot);

    int numCores_;
    std::size_t words_;
    std::size_t numEntries_ = 0;
    std::vector<Table> tables_;
};

} // namespace mnoc::sim

#endif // MNOC_SIM_DIRECTORY_HH
