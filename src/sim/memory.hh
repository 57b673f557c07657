/**
 * @file
 * Sparse word-addressed backing store for the simulated physical memory.
 *
 * The Micron-class devices we model hold 2^28+ words per bank; tests and
 * kernels touch only a sliver of that, so the store is a page-granular
 * hash table: open addressing over a power-of-two array of (page
 * number, page) entries, probed linearly from a multiplicative hash
 * and kept at most half full. Unwritten words read as a deterministic
 * address-derived pattern, which lets functional tests detect
 * gather/scatter errors without initialising whole arrays.
 *
 * Every simulated CAS reads or writes one word, so a small
 * direct-mapped cache of page pointers (including "no such page"
 * answers) sits in front of the table. Pages are individually
 * allocated and never freed or moved, so a cached pointer stays valid
 * as the table grows; a write that creates a page overwrites the slot
 * its number maps to, which is the only slot that can hold a stale
 * "absent" for it. Reads update the cache, so one store is used by one
 * thread at a time (each memory system owns its store).
 */

#ifndef PVA_SIM_MEMORY_HH
#define PVA_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace pva
{

/** Sparse simulated memory, addressed in 32-bit words. */
class SparseMemory
{
  public:
    static constexpr unsigned kPageWords = 1024;
    /** Direct-mapped page-cache slots: page p caches in slot p % 64. */
    static constexpr unsigned kCacheSlots = 64;

    SparseMemory() = default;
    /** Moves take the pages and leave both page caches empty, so
     *  neither side keeps a pointer into pages it no longer owns. */
    SparseMemory(SparseMemory &&other) noexcept;
    SparseMemory &operator=(SparseMemory &&other) noexcept;

    /** Read the word at @p addr (word address). */
    Word
    read(WordAddr addr) const
    {
        const Page *page = findPage(addr / kPageWords);
        unsigned offset = static_cast<unsigned>(addr % kPageWords);
        if (page == nullptr || !page->isWritten(offset))
            return backgroundPattern(addr);
        return page->data[offset];
    }

    /** Write the word at @p addr (word address). */
    void
    write(WordAddr addr, Word value)
    {
        WordAddr page_no = addr / kPageWords;
        const Slot &slot = cache[page_no % kCacheSlots];
        Page *page = slot.pageNo == page_no && slot.page != nullptr
                         ? slot.page
                         : residentPage(page_no);
        unsigned offset = static_cast<unsigned>(addr % kPageWords);
        page->data[offset] = value;
        page->written[offset / 64] |= std::uint64_t{1} << (offset % 64);
    }

    /** The background pattern an unwritten word reads as. */
    static Word
    backgroundPattern(WordAddr addr)
    {
        // Cheap integer hash so distinct addresses yield distinct data.
        std::uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        return static_cast<Word>(z ^ (z >> 27));
    }

    /** Number of resident backing pages (for tests). */
    std::size_t residentPages() const { return resident; }

  private:
    /** Never a page number (page numbers are below 2^54). */
    static constexpr WordAddr kNoPage = ~WordAddr{0};

    /** One page. Allocated without zeroing: a data word is read only
     *  once its written bit is set, and only the bitset starts
     *  cleared. */
    struct Page
    {
        std::array<Word, kPageWords> data;
        std::array<std::uint64_t, kPageWords / 64> written;

        bool
        isWritten(unsigned offset) const
        {
            return (written[offset / 64] >> (offset % 64)) & 1;
        }
    };

    /** A cached lookup: page @p pageNo lives at @p page (nullptr:
     *  not resident). */
    struct Slot
    {
        WordAddr pageNo = kNoPage;
        Page *page = nullptr;
    };

    /** A page-table entry; pageNo == kNoPage marks it empty. */
    struct Entry
    {
        WordAddr pageNo = kNoPage;
        std::unique_ptr<Page> page;
    };

    /** Page @p page_no, or nullptr if never written (cached). */
    const Page *
    findPage(WordAddr page_no) const
    {
        Slot &slot = cache[page_no % kCacheSlots];
        if (slot.pageNo != page_no)
            fillSlot(slot, page_no);
        return slot.page;
    }

    void fillSlot(Slot &slot, WordAddr page_no) const;

    /** Page @p page_no, created on first use; caches it. */
    Page *residentPage(WordAddr page_no);

    /** Table index of @p page_no, or of the empty entry that ends its
     *  probe sequence. The table must not be empty. */
    std::size_t probe(WordAddr page_no) const;

    /** Double the table (first use: kInitialEntries). */
    void grow();

    void clearCache() { cache.fill(Slot{}); }

    static constexpr std::size_t kInitialEntries = 64;

    std::vector<Entry> table;   ///< Power-of-two size, or empty
    std::size_t resident = 0;   ///< Occupied entries
    mutable std::array<Slot, kCacheSlots> cache{};
};

} // namespace pva

#endif // PVA_SIM_MEMORY_HH
