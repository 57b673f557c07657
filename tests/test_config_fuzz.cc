/**
 * @file
 * Configuration fuzz smoke test: seeded random mutations of
 * SystemConfig (including hostile geometry shapes, zeroed resources,
 * inverted timing constraints, and out-of-range fault rates) must
 * either validate cleanly or fail with a structured SimError — never
 * an uncaught exception, assertion, or crash. Configs that survive
 * validation occasionally run a small bounded point to shake out
 * late (construction- or run-time) failures, which must also surface
 * as SimErrors.
 *
 * The loaders get the same treatment: seeded byte flips, truncations,
 * splices and overflowing digit runs in a valid repro capsule and a
 * valid fleet scenario must make loadCapsule and parseScenarioText
 * throw nothing but SimError.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/scenario.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/sweep.hh"
#include "kernels/sweep_journal.hh"
#include "sdram/geometry.hh"
#include "sim/random.hh"
#include "sim/sim_error.hh"

namespace pva
{
namespace
{

/** Adversarial value pools: boundary, zero, huge, and benign values. */
constexpr unsigned kUnsignedPool[] = {0,  1,  2,  3,   4,   5,
                                      8,  12, 16, 31,  32,  33,
                                      64, 97, 256, 4096};
constexpr double kRatePool[] = {-1.0, -0.001, 0.0, 0.0001, 0.5,
                                0.999, 1.0, 1.001, 2.0, 1e9};

unsigned
pickUnsigned(Random &rng)
{
    return kUnsignedPool[rng.below(std::size(kUnsignedPool))];
}

double
pickRate(Random &rng)
{
    return kRatePool[rng.below(std::size(kRatePool))];
}

/** Apply one random mutation (geometry rebuilds may throw the
 *  structured rejection straight from the Geometry constructor). */
void
mutate(Random &rng, SystemConfig &cfg)
{
    switch (rng.below(20)) {
      case 0:
        cfg.geometry = Geometry(pickUnsigned(rng), pickUnsigned(rng));
        break;
      case 1:
        cfg.geometry =
            Geometry(16, 1, pickUnsigned(rng) % 24,
                     pickUnsigned(rng) % 8, pickUnsigned(rng) % 24);
        break;
      case 2:
        cfg.timing.tRCD = pickUnsigned(rng);
        break;
      case 3:
        cfg.timing.tCL = pickUnsigned(rng);
        break;
      case 4:
        cfg.timing.tRP = pickUnsigned(rng);
        break;
      case 5:
        cfg.timing.tRAS = pickUnsigned(rng);
        break;
      case 6:
        cfg.timing.tRC = pickUnsigned(rng);
        break;
      case 7:
        cfg.timing.tWR = pickUnsigned(rng);
        break;
      case 8:
        cfg.timing.tREFI = pickUnsigned(rng);
        break;
      case 9:
        cfg.timing.tRFC = pickUnsigned(rng);
        break;
      case 10:
        cfg.bc.fifoEntries = pickUnsigned(rng);
        break;
      case 11:
        cfg.bc.vectorContexts = pickUnsigned(rng);
        break;
      case 12:
        cfg.bc.lineWords = pickUnsigned(rng);
        break;
      case 13:
        cfg.bc.transactions = pickUnsigned(rng);
        break;
      case 14:
        cfg.bc.fhcLatency = pickUnsigned(rng);
        break;
      case 15:
        cfg.maxOutstanding = pickUnsigned(rng);
        break;
      case 16:
        cfg.faults.seed = rng.next();
        break;
      case 17:
        cfg.faults.refreshStallRate = pickRate(rng);
        cfg.faults.bcStallRate = pickRate(rng);
        break;
      case 18:
        cfg.faults.dropTransferRate = pickRate(rng);
        cfg.faults.corruptFirstHitRate = pickRate(rng);
        break;
      case 19:
        cfg.bc.bypassEnabled = rng.below(2) != 0;
        cfg.optimisticLineReuse = rng.below(2) != 0;
        cfg.timingCheck = rng.below(2) != 0;
        break;
    }
}

TEST(ConfigFuzz, MutatedConfigsFailOnlyWithStructuredErrors)
{
    Random rng(0xc0ffee);
    unsigned validated = 0;
    unsigned rejected = 0;
    unsigned executed = 0;

    for (unsigned iter = 0; iter < 300; ++iter) {
        SystemConfig cfg;
        bool valid = false;
        try {
            const unsigned mutations =
                1 + static_cast<unsigned>(rng.below(4));
            for (unsigned m = 0; m < mutations; ++m)
                mutate(rng, cfg);
            cfg.validate();
            valid = true;
        } catch (const SimError &e) {
            // Structured rejection is the contract: a category, a
            // component, and a non-empty diagnostic.
            EXPECT_NE(e.what()[0], '\0');
            EXPECT_EQ(e.kind(), SimErrorKind::Config)
                << "iteration " << iter << ": " << e.what();
            ++rejected;
            continue;
        } catch (const std::exception &e) {
            FAIL() << "iteration " << iter
                   << ": non-SimError escaped: " << e.what();
        }
        ASSERT_TRUE(valid);
        ++validated;

        // Every 8th surviving config also has to *run* without
        // anything but a SimError escaping (fault injection and the
        // cycle watchdog make several kinds legitimate). Monster
        // geometries are skipped: thousands of bank controllers
        // stepping a bounded run is pure wall-clock with no new
        // coverage over the validation pass.
        if (validated % 8 != 0 || cfg.geometry.banks() > 64)
            continue;
        ++executed;
        SweepRequest req;
        req.kernel = KernelId::Copy;
        req.stride = 3;
        req.elements = 32;
        req.config = cfg;
        req.limits.maxCycles = 20000;
        try {
            runPoint(req);
        } catch (const SimError &e) {
            EXPECT_NE(e.what()[0], '\0');
        } catch (const std::exception &e) {
            FAIL() << "iteration " << iter
                   << ": non-SimError escaped runPoint: " << e.what();
        }
    }

    // The pools are adversarial enough that both outcomes must occur;
    // otherwise the fuzzer is not exercising anything.
    EXPECT_GT(validated, 10u);
    EXPECT_GT(rejected, 10u);
    EXPECT_GT(executed, 0u);
}

/** One seeded hostile variant of @p valid: a few flipped bytes, a
 *  truncation, a slice of the document spliced in elsewhere, or a run
 *  of digits that overflows any integer it lands in. */
std::string
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

/** Feed @p rounds mangled variants of @p valid to @p load; only
 *  SimError may escape. Returns how many variants were rejected. */
template <typename Load>
unsigned
fuzzLoader(std::uint64_t seed, const std::string &valid, unsigned rounds,
           Load load)
{
    Random rng(seed);
    unsigned rejected = 0;
    for (unsigned iter = 0; iter < rounds; ++iter) {
        const std::string text = mangle(rng, valid);
        try {
            load(text);
        } catch (const SimError &e) {
            EXPECT_NE(e.what()[0], '\0');
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iteration " << iter
                          << ": non-SimError escaped: " << e.what()
                          << "\ninput:\n" << text;
        }
    }
    return rejected;
}

TEST(ConfigFuzz, MangledCapsulesFailOnlyWithStructuredErrors)
{
    ReproCapsule capsule;
    capsule.request.kernel = KernelId::Vaxpy;
    capsule.request.stride = 19;
    capsule.request.config.backend = MemBackend::Salp;
    capsule.request.config.salpSubarrays = 8;
    capsule.request.config.faults.corruptFirstHitRate = 0.5;
    capsule.attempts = 2;
    capsule.error = "[corruption] checker.gather @ cycle 23: \"x\"";
    capsule.fingerprint = fingerprintRequest(capsule.request);
    std::ostringstream os;
    writeCapsule(os, capsule);

    const std::string path = testing::TempDir() + "fuzz_capsule.json";
    const unsigned rejected =
        fuzzLoader(0xca95c1e, os.str(), 400, [&](const std::string &t) {
            std::ofstream(path, std::ios::binary | std::ios::trunc) << t;
            loadCapsule(path);
        });
    std::remove(path.c_str());
    EXPECT_GT(rejected, 250u);
}

TEST(ConfigFuzz, MangledScenariosFailOnlyWithStructuredErrors)
{
    const std::string valid = R"({
  "kind": "fleet", "name": "fuzz", "system": "pva", "policy": "rr",
  "aging": 64, "clocking": "exhaustive", "check": true,
  "backend": "salp", "subarrays": 8, "refreshWindow": 0, "shards": 2,
  "seed": 9, "maxCycles": 100000, "perStreamStats": false,
  "shed": {"enabled": true, "deadline": 200, "watermark": 0.75},
  "tenants": [
    {"name": "web", "count": 2, "streamsPerTenant": 2,
     "regionStrideWords": 4096,
     "stream": {"mode": "open", "window": 4, "rate": 10.0,
                "requests": 16, "priority": 1, "queueCap": 8,
                "deadline": 0, "seed": 3,
                "pattern": {"regionBase": 0, "regionWords": 4096,
                            "minStride": 1, "maxStride": 8,
                            "minLength": 8, "maxLength": 8,
                            "readFraction": 0.5, "indirect": false}}}
  ]
})";
    fleet::parseScenarioText(valid); // the seed document is valid
    const unsigned rejected =
        fuzzLoader(0x5ce4a810, valid, 400, [](const std::string &t) {
            fleet::parseScenarioText(t);
        });
    EXPECT_GT(rejected, 100u);
}

} // anonymous namespace
} // namespace pva
