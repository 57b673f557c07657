/**
 * @file
 * SparseMemory page-cache tests: the direct-mapped page-pointer cache
 * in front of the page map must be invisible — aliasing pages, cached
 * "no such page" answers, unwritten words of resident pages and moves
 * all read back exactly what an uncached map would. Pages are
 * allocated without zeroing and track written words in a bitset, so
 * the word-boundary offsets of that bitset are checked too.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sim/memory.hh"

namespace pva
{
namespace
{

/** Word distance between two pages that share a cache slot. */
constexpr WordAddr kAlias =
    WordAddr{SparseMemory::kPageWords} * SparseMemory::kCacheSlots;

Word
bg(WordAddr a)
{
    return SparseMemory::backgroundPattern(a);
}

TEST(SparseMemoryCache, PagesSharingASlotKeepTheirOwnData)
{
    SparseMemory mem;
    const WordAddr a = 5 * SparseMemory::kPageWords + 17;
    const WordAddr b = a + kAlias;
    const WordAddr c = a + 3 * kAlias;
    mem.write(a, 1);
    mem.write(b, 2); // evicts a's slot
    EXPECT_EQ(mem.read(a), 1u);
    EXPECT_EQ(mem.read(b), 2u);
    EXPECT_EQ(mem.read(c), bg(c)); // absent page in the same slot
    EXPECT_EQ(mem.read(a), 1u);
    mem.write(a, 3);
    EXPECT_EQ(mem.read(b), 2u);
    EXPECT_EQ(mem.read(a), 3u);
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(SparseMemoryCache, CachedAbsentPageSeesALaterWrite)
{
    SparseMemory mem;
    const WordAddr a = 9000;
    EXPECT_EQ(mem.read(a), bg(a)); // caches "no such page"
    EXPECT_EQ(mem.residentPages(), 0u);
    mem.write(a, 42);
    EXPECT_EQ(mem.read(a), 42u);
    EXPECT_EQ(mem.residentPages(), 1u);

    // The same through an aliasing page: the absent answer for a + kAlias
    // sits in the slot the write below must replace.
    EXPECT_EQ(mem.read(a + kAlias), bg(a + kAlias));
    mem.write(a + kAlias, 43);
    EXPECT_EQ(mem.read(a + kAlias), 43u);
    EXPECT_EQ(mem.read(a), 42u);
}

TEST(SparseMemoryCache, UnwrittenWordsOfResidentPagesReadTheBackground)
{
    SparseMemory mem;
    const WordAddr page = 77 * SparseMemory::kPageWords;
    mem.write(page + 1, 11);
    for (WordAddr off = 0; off < SparseMemory::kPageWords; ++off) {
        if (off == 1)
            EXPECT_EQ(mem.read(page + off), 11u);
        else
            EXPECT_EQ(mem.read(page + off), bg(page + off)) << off;
    }
}

TEST(SparseMemoryCache, WrittenBitsetBoundariesAndNeighbours)
{
    // Offsets at both ends of the page and of a bitset word; each
    // written word's unwritten neighbours must still read the
    // background, whatever the (unzeroed) page data holds.
    const WordAddr page = 31 * SparseMemory::kPageWords;
    const WordAddr offsets[] = {0, 63, 64, 1023};
    SparseMemory mem;
    for (WordAddr off : offsets)
        mem.write(page + off, static_cast<Word>(1000 + off));
    for (WordAddr off = 0; off < SparseMemory::kPageWords; ++off) {
        const bool written =
            off == 0 || off == 63 || off == 64 || off == 1023;
        EXPECT_EQ(mem.read(page + off),
                  written ? static_cast<Word>(1000 + off)
                          : bg(page + off))
            << off;
    }
    // Neighbouring pages stay absent.
    EXPECT_EQ(mem.read(page - 1), bg(page - 1));
    EXPECT_EQ(mem.read(page + SparseMemory::kPageWords),
              bg(page + SparseMemory::kPageWords));
    EXPECT_EQ(mem.residentPages(), 1u);

    // Overwriting keeps the bit set; a fresh page starts all unwritten.
    mem.write(page + 63, 5);
    EXPECT_EQ(mem.read(page + 63), 5u);
    EXPECT_EQ(mem.read(page + 62), bg(page + 62));
    const WordAddr next = page + 2 * SparseMemory::kPageWords;
    mem.write(next + 64, 6);
    EXPECT_EQ(mem.read(next + 63), bg(next + 63));
    EXPECT_EQ(mem.read(next + 64), 6u);
    EXPECT_EQ(mem.read(next + 65), bg(next + 65));
    EXPECT_EQ(mem.residentPages(), 2u);
}

TEST(SparseMemoryCache, RecycledPageMemoryReadsTheBackground)
{
    // A new page may be carved from memory a dead store filled with
    // data; only the page's own written bits decide what reads back.
    {
        SparseMemory old;
        for (WordAddr a = 0; a < 8 * SparseMemory::kPageWords; ++a)
            old.write(a, 0xdeadbeef);
    }
    SparseMemory mem;
    for (WordAddr p = 0; p < 8; ++p)
        mem.write(p * SparseMemory::kPageWords + 5, 1);
    for (WordAddr a = 0; a < 8 * SparseMemory::kPageWords; ++a) {
        if (a % SparseMemory::kPageWords == 5)
            EXPECT_EQ(mem.read(a), 1u) << a;
        else
            EXPECT_EQ(mem.read(a), bg(a)) << a;
    }
}

TEST(SparseMemoryCache, ManyPagesSurviveTableGrowth)
{
    // Page numbers that share low bits, high bits or both, written and
    // read back across several doublings of the page table, with
    // absent pages between them.
    SparseMemory mem;
    std::vector<WordAddr> addrs;
    for (WordAddr i = 0; i < 3000; ++i) {
        addrs.push_back(i * SparseMemory::kPageWords + i % 7);
        addrs.push_back((i << 40) + 3);
        addrs.push_back(((i * 977) << 20) + (i << 12) + 5);
    }
    for (std::size_t k = 0; k < addrs.size(); ++k) {
        mem.write(addrs[k], static_cast<Word>(k));
        EXPECT_EQ(mem.read(addrs[k]), static_cast<Word>(k));
    }
    for (std::size_t k = 0; k < addrs.size(); ++k)
        EXPECT_EQ(mem.read(addrs[k]), static_cast<Word>(k)) << k;
    const WordAddr absent = (WordAddr{1} << 50) + 17;
    EXPECT_EQ(mem.read(absent), bg(absent));
    std::set<WordAddr> pages;
    for (WordAddr a : addrs)
        pages.insert(a / SparseMemory::kPageWords);
    EXPECT_EQ(mem.residentPages(), pages.size());
}

TEST(SparseMemoryCache, MoveConstructLeavesNoStaleSlot)
{
    SparseMemory src;
    src.write(100, 7);
    EXPECT_EQ(src.read(100), 7u); // cached in src
    SparseMemory dst(std::move(src));
    EXPECT_EQ(dst.read(100), 7u);

    // The moved-from store owns no pages; its cache must not reach
    // into the pages dst now owns.
    EXPECT_EQ(src.read(100), bg(100)); // NOLINT(bugprone-use-after-move)
    src.write(100, 8);
    EXPECT_EQ(src.read(100), 8u);
    EXPECT_EQ(dst.read(100), 7u);
    EXPECT_EQ(src.residentPages(), 1u);
    EXPECT_EQ(dst.residentPages(), 1u);
}

TEST(SparseMemoryCache, MoveAssignLeavesNoStaleSlot)
{
    SparseMemory src;
    src.write(100, 7);
    EXPECT_EQ(src.read(100), 7u);

    SparseMemory dst;
    dst.write(100, 1);     // same slot as src's page, to be replaced
    dst.write(200000, 2);  // a page src does not have
    EXPECT_EQ(dst.read(100), 1u);
    EXPECT_EQ(dst.read(200000), 2u);

    dst = std::move(src);
    EXPECT_EQ(dst.read(100), 7u);
    EXPECT_EQ(dst.read(200000), bg(200000));
    EXPECT_EQ(dst.residentPages(), 1u);

    EXPECT_EQ(src.read(100), bg(100)); // NOLINT(bugprone-use-after-move)
    src.write(100, 9);
    EXPECT_EQ(src.read(100), 9u);
    EXPECT_EQ(dst.read(100), 7u);
}

} // anonymous namespace
} // namespace pva
