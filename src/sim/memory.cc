#include "sim/memory.hh"

#include <bit>
#include <utility>

namespace pva
{

SparseMemory::SparseMemory(SparseMemory &&other) noexcept
    : table(std::move(other.table)), resident(other.resident)
{
    other.table.clear();
    other.resident = 0;
    other.clearCache();
}

SparseMemory &
SparseMemory::operator=(SparseMemory &&other) noexcept
{
    if (this != &other) {
        table = std::move(other.table);
        resident = other.resident;
        other.table.clear();
        other.resident = 0;
        clearCache();
        other.clearCache();
    }
    return *this;
}

std::size_t
SparseMemory::probe(WordAddr page_no) const
{
    // Fibonacci hashing: the top log2(size) bits of the product spread
    // page numbers that differ only in high bits (aliasing strides).
    const std::size_t mask = table.size() - 1;
    const int shift = std::countl_zero(table.size()) + 1;
    std::size_t i = static_cast<std::size_t>(
        (page_no * 0x9e3779b97f4a7c15ULL) >> shift);
    while (table[i].pageNo != page_no && table[i].pageNo != kNoPage)
        i = (i + 1) & mask;
    return i;
}

void
SparseMemory::fillSlot(Slot &slot, WordAddr page_no) const
{
    slot.pageNo = page_no;
    slot.page = table.empty() ? nullptr : table[probe(page_no)].page.get();
}

void
SparseMemory::grow()
{
    std::vector<Entry> old = std::move(table);
    table = std::vector<Entry>(old.empty() ? kInitialEntries
                                           : 2 * old.size());
    for (Entry &e : old) {
        if (e.pageNo != kNoPage)
            table[probe(e.pageNo)] = std::move(e);
    }
}

SparseMemory::Page *
SparseMemory::residentPage(WordAddr page_no)
{
    std::size_t i = table.empty() ? 0 : probe(page_no);
    if (table.empty() || table[i].pageNo == kNoPage) {
        if (2 * (resident + 1) > table.size()) {
            grow();
            i = probe(page_no);
        }
        table[i].pageNo = page_no;
        table[i].page = std::make_unique_for_overwrite<Page>();
        table[i].page->written.fill(0);
        ++resident;
    }
    Page *page = table[i].page.get();
    cache[page_no % kCacheSlots] = Slot{page_no, page};
    return page;
}

} // namespace pva
