/**
 * @file
 * Loader fuzz test: seeded byte flips, truncations, splices, digit
 * runs and deep nesting (tests/fuzz_input.hh) applied to valid inputs
 * of the three text loaders that read files from outside the program —
 * json::parse (a capsule, a journal line, a fleet result and a trace
 * export), SweepJournal::load and the replay trace parser. Each variant
 * must load, or fail with a false return and a message, or with a
 * SimError; nothing else may escape. Seeds and budgets are fixed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_runner.hh"
#include "fuzz_input.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/sweep_journal.hh"
#include "kernels/trace_file.hh"
#include "sim/json.hh"
#include "sim/sim_error.hh"

namespace pva
{
namespace
{

/** Feed @p rounds hostile variants of @p valid to @p load, one in
 *  eight of them deeply nested. @p load returns false with a message
 *  to reject. Returns how many variants were rejected. */
template <typename Load>
unsigned
fuzz(std::uint64_t seed, const std::string &valid, unsigned rounds,
     Load load)
{
    Random rng(seed);
    unsigned rejected = 0;
    for (unsigned iter = 0; iter < rounds; ++iter) {
        const std::string text =
            rng.below(8) == 0 ? nest(rng, valid) : mangle(rng, valid);
        std::string error;
        try {
            if (!load(text, error)) {
                EXPECT_FALSE(error.empty()) << "iteration " << iter;
                ++rejected;
            }
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

std::string
capsuleText()
{
    ReproCapsule capsule;
    capsule.request.kernel = KernelId::Saxpy;
    capsule.request.stride = 7;
    capsule.request.config.backend = MemBackend::DeferredRefresh;
    capsule.error = "[corruption] \"x\"\\y\tz";
    capsule.fingerprint = fingerprintRequest(capsule.request);
    std::ostringstream os;
    writeCapsule(os, capsule);
    return os.str();
}

std::string
fleetText()
{
    fleet::FleetResult r;
    r.shards = 2;
    r.shedRate = 0.125;
    r.tenantResults.resize(2);
    r.tenantResults[0].name = "web0";
    r.tenantResults[1].name = "a\"b\\\tc1";
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

bool
parses(const std::string &text, std::string &error)
{
    json::Value doc;
    return json::parse(text, doc, error);
}

TEST(LoaderFuzz, JsonParseFailsOnlyWithAMessage)
{
    const std::string trace = R"({
"traceEvents": [
{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "pva"}},
{"name": "vcs", "ph": "C", "ts": 0, "pid": 1, "tid": 11, "args": {"value": 0}}
],
"displayTimeUnit": "ms",
"pvaTrace": {"schemaVersion": 1, "recorded": 2, "dropped": 0, "tracks": 1}
}
)";
    const std::string journalLine =
        R"({"index": 2, "system": "gathering", "kernel": "copy", )"
        R"("stride": 1, "alignment": 4, "cycles": 0, "mismatches": 3, )"
        R"("simTicks": 0, "cyclesSkipped": 0, "status": "failed", )"
        R"("attempts": 3, "error": "[corruption] \"q\" \\ \t\n"})";
    const std::vector<std::string> docs = {capsuleText(), journalLine,
                                           fleetText(), trace};
    std::string error;
    for (std::size_t d = 0; d < docs.size(); ++d) {
        ASSERT_TRUE(parses(docs[d], error)) << error;
        const unsigned rejected = fuzz(0x150f + d, docs[d], 1500, parses);
        EXPECT_GT(rejected, 750u) << "document " << d;
    }
}

TEST(LoaderFuzz, UnboundedNestingIsRefusedAtTheDepthLimit)
{
    std::string error;
    EXPECT_FALSE(parses(std::string(1 << 20, '['), error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
    std::string objects;
    for (int i = 0; i < 100000; ++i)
        objects += "{\"k\": ";
    EXPECT_FALSE(parses(objects, error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(LoaderFuzz, JournalLoadFailsOnlyWithSimError)
{
    const std::string path = testing::TempDir() + "fuzz_journal.jsonl";
    const std::uint64_t fp = 0xfeedfacecafebeefULL;
    std::remove(path.c_str());
    {
        SweepJournal journal(path, fp, 4);
        SweepPoint p{SystemKind::PvaSdram, KernelId::Copy, 3, 1, 900, 0};
        journal.append({0, p, ""});
        p.status = PointStatus::Retried;
        p.attempts = 2;
        journal.append({1, p, ""});
        SweepPoint f{SystemKind::CacheLine, KernelId::Swap, 8, 0, 0, 2};
        f.status = PointStatus::Failed;
        f.attempts = 3;
        journal.append({3, f, "[corruption] \"bad\"\\\tdata"});
    }
    std::ostringstream os;
    os << std::ifstream(path, std::ios::binary).rdbuf();
    const std::string valid = os.str();
    ASSERT_EQ(SweepJournal::load(path, fp, 4).records.size(), 3u);

    const unsigned rejected =
        fuzz(0x10ad, valid, 600, [&](const std::string &t, std::string &) {
            std::ofstream(path, std::ios::binary | std::ios::trunc) << t;
            SweepJournal::load(path, fp, 4);
            return true;
        });
    std::remove(path.c_str());
    EXPECT_GT(rejected, 300u);
}

TEST(LoaderFuzz, TraceParseFailsOnlyWithAMessage)
{
    const std::string valid = "# two phases\n"
                              "poke 4096 42\n"
                              "poke 4115 7\n"
                              "read 4096 19 32\n"
                              "write 8192 1 16 100\n"
                              "read 12288 3 24\n"
                              "barrier\n"
                              "read 8192 1 16\n"
                              "write 16384 8 32 7\n";
    auto load = [](const std::string &t, std::string &error) {
        std::istringstream in(t);
        TraceFile trace;
        return parseTrace(in, trace, error);
    };
    std::string error;
    ASSERT_TRUE(load(valid, error)) << error;
    const unsigned rejected = fuzz(0x7ace, valid, 1500, load);
    EXPECT_GT(rejected, 500u);
}

} // anonymous namespace
} // namespace pva
