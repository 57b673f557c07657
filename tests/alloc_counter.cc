#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> allocCount{0};
std::atomic<std::uint64_t> freeCount{0};

void
countedFree(void *p) noexcept
{
    if (p)
        freeCount.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

} // anonymous namespace

std::uint64_t
pva::test::allocations()
{
    return allocCount.load(std::memory_order_relaxed);
}

std::uint64_t
pva::test::deallocations()
{
    return freeCount.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
