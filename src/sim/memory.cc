#include "sim/memory.hh"

namespace pva
{

SparseMemory::SparseMemory(SparseMemory &&other) noexcept
    : pages(std::move(other.pages))
{
    other.pages.clear();
    other.clearCache();
}

SparseMemory &
SparseMemory::operator=(SparseMemory &&other) noexcept
{
    if (this != &other) {
        pages = std::move(other.pages);
        other.pages.clear();
        clearCache();
        other.clearCache();
    }
    return *this;
}

void
SparseMemory::fillSlot(Slot &slot, WordAddr page_no) const
{
    auto it = pages.find(page_no);
    slot.pageNo = page_no;
    slot.page = it == pages.end() ? nullptr : it->second.get();
}

SparseMemory::Page *
SparseMemory::residentPage(WordAddr page_no)
{
    auto &page = pages[page_no];
    if (!page) {
        page = std::make_unique<Page>();
        page->written.fill(false);
    }
    cache[page_no % kCacheSlots] = Slot{page_no, page.get()};
    return page.get();
}

} // namespace pva
