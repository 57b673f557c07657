/**
 * @file
 * SparseMemory page-cache tests: the direct-mapped page-pointer cache
 * in front of the page map must be invisible — aliasing pages, cached
 * "no such page" answers, unwritten words of resident pages and moves
 * all read back exactly what an uncached map would.
 */

#include <gtest/gtest.h>

#include <utility>

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
