/**
 * @file
 * Shared stream templates (traffic/stream.hh): streams stamped from one
 * StreamTemplate must behave exactly like streams built from their own
 * StreamConfig copies, streams built from same-shaped configs share
 * one, and a template validates and parses its trace once, however
 * many streams share it. emitInto, which fills a reused request in
 * place, must emit what emit does.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "fleet/fleet_runner.hh"
#include "sim/memory.hh"
#include "sim/sim_error.hh"
#include "traffic/stream.hh"

using namespace pva;

namespace
{

/** The fleet runner's per-stream seed mix (fleet/fleet_runner.hh). */
constexpr std::uint64_t kSeedStep = 0x9e3779b97f4a7c15ULL;
constexpr unsigned kLineWords = 32;

/** Everything a request carries except its stream id. */
struct Emitted
{
    std::uint64_t seqNo;
    Cycle arrival;
    WordAddr base;
    std::uint32_t stride;
    std::uint32_t length;
    bool isRead;
    VectorCommand::Mode mode;
    std::vector<WordAddr> indices;
    std::vector<Word> writeData;

    bool operator==(const Emitted &) const = default;
};

/** Every request @p src emits when each completes at once. */
std::vector<Emitted>
drain(StreamSource &src)
{
    std::vector<Emitted> out;
    for (Cycle now = 0; !src.exhausted() && now < 1000000; ++now) {
        while (src.arrivalReady(now)) {
            TrafficRequest r = src.emit(now);
            EXPECT_EQ(r.stream, src.id());
            out.push_back({r.seqNo, r.arrival, r.cmd.base, r.cmd.stride,
                           r.cmd.length, r.cmd.isRead, r.cmd.mode,
                           r.cmd.indices, r.writeData});
            src.onComplete();
        }
    }
    EXPECT_TRUE(src.exhausted());
    return out;
}

std::string
writeTrace(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::trunc)
        << "poke 4096 42\n"
           "poke 4115 7\n"
           "read 4096 19 32\n"
           "write 8192 1 16 100\n"
           "barrier\n"
           "read 8192 1 16\n"
           "write 16384 8 32 7\n";
    return path;
}

StreamConfig
patternConfig(ArrivalMode mode)
{
    StreamConfig c;
    c.mode = mode;
    c.requests = 24;
    c.requestsPerKilocycle = 50.0;
    c.seed = 11;
    c.pattern.regionBase = 1 << 20;
    c.pattern.regionWords = 1 << 12;
    c.pattern.maxStride = 16;
    c.pattern.minLength = 4;
    c.pattern.readFraction = 0.5;
    return c;
}

} // anonymous namespace

TEST(StreamTemplate, EmitIntoAReusedRequestMatchesEmit)
{
    StreamConfig indirect = patternConfig(ArrivalMode::ClosedLoop);
    indirect.pattern.mode = VectorCommand::Mode::Indirect;
    StreamConfig trace;
    trace.mode = ArrivalMode::Trace;
    trace.window = 2;
    trace.tracePath = writeTrace("template_emit_into.trace");

    // One request is reused for every stream, as a pooled queue slot
    // is: each emitInto lands on the index list and write data the
    // last one left, and on a stale transaction id and bit-reversal
    // fields, which it must all overwrite.
    TrafficRequest reused;
    for (const StreamConfig &c :
         {indirect, patternConfig(ArrivalMode::ClosedLoop),
          patternConfig(ArrivalMode::OpenLoop), trace}) {
        SCOPED_TRACE(static_cast<int>(c.mode));
        StreamSource byValue(c, 2, kLineWords);
        StreamSource inPlace(c, 2, kLineWords);
        const std::vector<Emitted> want = drain(byValue);
        std::vector<Emitted> got;
        for (Cycle now = 0; !inPlace.exhausted() && now < 1000000;
             ++now) {
            while (inPlace.arrivalReady(now)) {
                reused.cmd.txn = 7;
                reused.cmd.revBits = 3;
                reused.cmd.revOffset = 9;
                inPlace.emitInto(reused, now);
                EXPECT_EQ(reused.stream, 2u);
                EXPECT_EQ(reused.cmd.txn, 0u);
                EXPECT_EQ(reused.cmd.revBits, 0u);
                EXPECT_EQ(reused.cmd.revOffset, 0u);
                const VectorCommand &cmd = reused.cmd;
                got.push_back({reused.seqNo, reused.arrival, cmd.base,
                               cmd.stride, cmd.length, cmd.isRead,
                               cmd.mode, cmd.indices, reused.writeData});
                inPlace.onComplete();
            }
        }
        EXPECT_EQ(got, want);
    }
}

TEST(StreamTemplate, SharedTemplateMatchesPerStreamCopies)
{
    StreamConfig indirect = patternConfig(ArrivalMode::OpenLoop);
    indirect.pattern.mode = VectorCommand::Mode::Indirect;
    StreamConfig trace;
    trace.mode = ArrivalMode::Trace;
    trace.window = 2;
    trace.tracePath = writeTrace("template_copies.trace");

    for (const StreamConfig &base :
         {patternConfig(ArrivalMode::ClosedLoop),
          patternConfig(ArrivalMode::OpenLoop), indirect, trace}) {
        SCOPED_TRACE(static_cast<int>(base.mode));
        const auto tmpl =
            std::make_shared<const StreamTemplate>(base, kLineWords);
        std::vector<std::vector<Emitted>> sequences;
        for (unsigned k = 0; k < 4; ++k) {
            const std::uint64_t seed = base.seed + kSeedStep * (k + 1);
            const WordAddr region =
                base.pattern.regionBase + k * base.pattern.regionWords;
            StreamConfig copy = base;
            copy.seed = seed;
            copy.pattern.regionBase = region;

            StreamSource shared(tmpl, k, seed, region);
            StreamSource own(copy, k, kLineWords);
            EXPECT_EQ(shared.name(), "s" + std::to_string(k));
            EXPECT_EQ(shared.name(), own.name());
            EXPECT_EQ(shared.regionBase(), region);
            EXPECT_EQ(own.regionBase(), region);

            const std::vector<Emitted> got = drain(shared);
            EXPECT_EQ(got, drain(own));
            if (base.mode != ArrivalMode::Trace) {
                ASSERT_EQ(got.size(), base.requests);
                for (const Emitted &e : got) {
                    EXPECT_GE(e.base, region);
                    EXPECT_LT(e.base, region + base.pattern.regionWords);
                }
            }
            sequences.push_back(got);
        }
        // Seeds differ per stream, so pattern streams draw different
        // sequences; a trace replays the same ops in every stream.
        if (base.mode == ArrivalMode::Trace)
            EXPECT_EQ(sequences[0], sequences[1]);
        else
            EXPECT_NE(sequences[0], sequences[1]);
    }
}

TEST(StreamTemplate, NamedTemplateNamesEveryStream)
{
    StreamConfig c = patternConfig(ArrivalMode::ClosedLoop);
    c.name = "web";
    const auto tmpl = std::make_shared<const StreamTemplate>(c, kLineWords);
    EXPECT_EQ(StreamSource(tmpl, 3, 1, 0).name(), "web");
    EXPECT_EQ(StreamSource(c, 3, kLineWords).name(), "web");
}

TEST(StreamTemplate, SameShapedConfigsShareATemplate)
{
    // Streams built one after another from configs that differ only in
    // seed, region and default name share the previous one's template.
    StreamConfig c = patternConfig(ArrivalMode::OpenLoop);
    StreamSource a(c, 0, kLineWords);
    c.seed = 99;
    c.pattern.regionBase += 4096;
    c.name = "s1";
    StreamSource b(c, 1, kLineWords);
    EXPECT_EQ(&a.config(), &b.config());
    EXPECT_EQ(b.name(), "s1");
    EXPECT_EQ(b.regionBase(), c.pattern.regionBase);

    // Any other difference, or another line width, builds a new one.
    StreamConfig wider = c;
    wider.pattern.maxStride = 9;
    StreamSource d(wider, 2, kLineWords);
    EXPECT_NE(&b.config(), &d.config());
    EXPECT_EQ(d.config().pattern.maxStride, 9u);
    StreamSource e(wider, 3, 2 * kLineWords);
    EXPECT_NE(&d.config(), &e.config());
    StreamConfig named = wider;
    named.name = "web";
    StreamSource f(named, 4, 2 * kLineWords);
    EXPECT_NE(&e.config(), &f.config());
    EXPECT_EQ(f.name(), "web");
}

TEST(StreamTemplate, TraceIsParsedOncePerTemplate)
{
    StreamConfig c;
    c.mode = ArrivalMode::Trace;
    c.window = 2;
    c.tracePath = writeTrace("template_once.trace");
    const auto tmpl = std::make_shared<const StreamTemplate>(c, kLineWords);
    StreamSource first(tmpl, 0, 1, 0);
    const std::vector<Emitted> want = drain(first);
    ASSERT_EQ(want.size(), 4u);
    StreamSource own(c, 0, kLineWords);

    // With the file gone a new template cannot be built, and a stream
    // built from the same trace config gets a new one, but streams of
    // the existing template still build: it does not read the file.
    ASSERT_EQ(std::remove(c.tracePath.c_str()), 0);
    test::expectSimError([&] { StreamSource(c, 1, kLineWords); },
                         SimErrorKind::Config, "cannot open trace");
    StreamSource second(tmpl, 1, 2, 0);
    EXPECT_EQ(drain(second), want);

    SparseMemory mem;
    second.applyPokes(mem);
    EXPECT_EQ(mem.read(4096), 42u);
    EXPECT_EQ(mem.read(4115), 7u);
}

TEST(StreamTemplate, InvalidTemplateThrowsOneConfigError)
{
    StreamConfig bad = patternConfig(ArrivalMode::ClosedLoop);
    bad.window = 0;
    test::expectSimError([&] { StreamTemplate(bad, kLineWords); },
                         SimErrorKind::Config, "window must be nonzero");

    // A fleet builds one template per spec before any shard runs, so
    // the spec fails once as a configuration error, not once per
    // stream inside a retried shard.
    fleet::FleetConfig fc;
    fleet::TenantSpec spec;
    spec.name = "bad";
    spec.count = 4;
    spec.streamsPerTenant = 8;
    spec.stream = bad;
    fc.tenants.push_back(spec);
    fc.shards = 2;
    fc.jobs = 1;
    fc.retries = 3;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config,
                         "tenant spec 'bad': window must be nonzero");
}
