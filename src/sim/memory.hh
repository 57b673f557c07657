/**
 * @file
 * Sparse word-addressed backing store for the simulated physical memory.
 *
 * The Micron-class devices we model hold 2^28+ words per bank; tests and
 * kernels touch only a sliver of that, so the store is a page-granular
 * hash map. Unwritten words read as a deterministic address-derived
 * pattern, which lets functional tests detect gather/scatter errors
 * without initialising whole arrays.
 *
 * Every simulated CAS reads or writes one word, so a small
 * direct-mapped cache of page pointers (including "no such page"
 * answers) sits in front of the map. Pages are individually allocated
 * and never freed, so a cached pointer stays valid as the map grows;
 * a write that creates a page overwrites the slot its number maps to,
 * which is the only slot that can hold a stale "absent" for it. Reads
 * update the cache, so one store is used by one thread at a time (each
 * memory system owns its store).
 */

#ifndef PVA_SIM_MEMORY_HH
#define PVA_SIM_MEMORY_HH

#include <array>
#include <memory>
#include <unordered_map>

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
        if (page == nullptr || !page->written[offset])
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
        page->written[offset] = true;
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
    std::size_t residentPages() const { return pages.size(); }

  private:
    /** Never a page number (page numbers are below 2^54). */
    static constexpr WordAddr kNoPage = ~WordAddr{0};

    struct Page
    {
        std::array<Word, kPageWords> data;
        std::array<bool, kPageWords> written;
    };

    /** A cached lookup: page @p pageNo lives at @p page (nullptr:
     *  not resident). */
    struct Slot
    {
        WordAddr pageNo = kNoPage;
        Page *page = nullptr;
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

    void clearCache() { cache.fill(Slot{}); }

    std::unordered_map<WordAddr, std::unique_ptr<Page>> pages;
    mutable std::array<Slot, kCacheSlots> cache{};
};

} // namespace pva

#endif // PVA_SIM_MEMORY_HH
