/**
 * @file
 * A count of every global operator new in the test binary, for tests
 * that assert a code path does not heap-allocate. The replacement
 * operators live in alloc_counter.cc; every other test pays only one
 * relaxed increment per allocation.
 */

#ifndef PVA_TESTS_ALLOC_COUNTER_HH
#define PVA_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace pva::test
{

/** Global operator new / new[] calls so far. */
std::uint64_t allocations();

} // namespace pva::test

#endif // PVA_TESTS_ALLOC_COUNTER_HH
