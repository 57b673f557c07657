/**
 * @file
 * Seeded hostile variants of a valid input document, shared by the
 * configuration and loader fuzz tests.
 */

#ifndef PVA_TESTS_FUZZ_INPUT_HH
#define PVA_TESTS_FUZZ_INPUT_HH

#include <cstdint>
#include <string>

#include "sim/random.hh"

namespace pva
{

/** One seeded hostile variant of @p valid: a few flipped bytes, a
 *  truncation, a slice of the document spliced in elsewhere, or a run
 *  of digits that overflows any integer it lands in. */
inline std::string
mangle(Random &rng, const std::string &valid)
{
    std::string s = valid;
    switch (rng.below(4)) {
      case 0:
        for (unsigned n = 1 + rng.below(4); n > 0; --n)
            s[rng.below(s.size())] = static_cast<char>(rng.below(256));
        break;
      case 1:
        s.resize(rng.below(s.size()));
        break;
      case 2: {
        const std::size_t from = rng.below(s.size());
        const std::size_t len = rng.below(s.size() - from + 1);
        s.insert(rng.below(s.size() + 1), valid.substr(from, len));
        break;
      }
      case 3:
        s.insert(rng.below(s.size() + 1), std::string(24, '9'));
        break;
    }
    return s;
}

/** @p valid with a run of up to 4096 opened arrays or objects spliced
 *  in at a seeded position: nesting far past any legitimate document,
 *  which a recursive reader must refuse without exhausting its stack. */
inline std::string
nest(Random &rng, const std::string &valid)
{
    const char *opener = rng.below(2) ? "[" : "{\"k\": ";
    std::string run;
    for (std::uint64_t n = 1 + rng.below(4096); n > 0; --n)
        run += opener;
    std::string s = valid;
    s.insert(rng.below(s.size() + 1), run);
    return s;
}

} // namespace pva

#endif // PVA_TESTS_FUZZ_INPUT_HH
