/**
 * @file
 * A count of every global operator new and delete in the test binary,
 * for tests that assert a code path does not heap-allocate, or bound
 * the blocks it leaves live. The replacement operators live in
 * alloc_counter.cc; every other test pays only one relaxed increment
 * per allocation and per free.
 */

#ifndef PVA_TESTS_ALLOC_COUNTER_HH
#define PVA_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace pva::test
{

/** Global operator new / new[] calls so far. */
std::uint64_t allocations();

/** Global operator delete / delete[] calls on non-null pointers so
 *  far: allocations() - deallocations() blocks are live. */
std::uint64_t deallocations();

} // namespace pva::test

#endif // PVA_TESTS_ALLOC_COUNTER_HH
