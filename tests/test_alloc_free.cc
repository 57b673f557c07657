/**
 * @file
 * Heap-allocation regression test for the saturated tick path.
 *
 * The hot-path engineering contract (docs/PERFORMANCE.md) is that the
 * steady-state tick loop performs no heap allocation: subcommand
 * FIFOs and vector-context queues live in capacity-preserving
 * RingDeques, staging lines come from the unit's line pool, and the
 * completion hand-off reuses drained buffers. This test warms a PVA
 * system with one full stride-16 run (pools, queues and latency
 * histograms grow to their steady-state capacity), then runs a second
 * full kernel on the same simulation clock and asserts the global
 * operator new count (alloc_counter.hh) did not move between the
 * start of the second run and its last completion.
 *
 * The fleet arbiter's service step is held to the same contract: once
 * its request pool, in-flight ring, heaps and stat windows reach their
 * steady-state size, admitting, granting and completing requests
 * reuses them.
 */

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "fleet/fleet_arbiter.hh"
#include "kernels/command_unit.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

TEST(AllocFree, SaturatedTickPathAllocatesNothingAfterWarmup)
{
    SystemConfig config;
    auto sys = makeSystem(SystemKind::PvaSdram, config);

    const KernelSpec &spec = kernelSpec(KernelId::Copy);
    WorkloadConfig wl;
    wl.stride = 16;
    wl.elements = 4096;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[0],
                                 spec.numStreams, 16, wl.elements);

    // One simulation clock for both passes: the device's resource
    // timers hold absolute cycles, so restarting the clock would give
    // the second pass artificial head-of-run waits (and larger
    // latency-histogram samples than warmup provisioned for).
    Simulation sim(ClockingMode::Event);
    sim.add(sys.get());

    // Warmup: one full run grows every pool, queue, scratch buffer
    // and stat histogram to its steady-state capacity.
    {
        KernelTrace warm = buildTrace(spec, wl, sys->memory());
        VectorCommandUnit vcu(*sys, warm);
        sim.runUntil([&] { return vcu.service(); }, 50000000);
        ASSERT_EQ(verifyTrace(warm, sys->memory()), 0u);
    }

    // Second pass, with construction — trace build, command unit —
    // outside the counted window. Only the clocked region must be
    // allocation-free.
    KernelTrace trace = buildTrace(spec, wl, sys->memory());
    VectorCommandUnit vcu(*sys, trace);

    std::uint64_t before = test::allocations();
    sim.runUntil([&] { return vcu.service(); }, 50000000);
    std::uint64_t after = test::allocations();

    EXPECT_EQ(after - before, 0u)
        << "the saturated tick path heap-allocated "
        << (after - before) << " times after warmup";
    EXPECT_EQ(verifyTrace(trace, sys->memory()), 0u);
}

TEST(AllocFree, FleetServiceStepAllocatesNothingAfterWarmup)
{
    SystemConfig config;
    auto sys = makeSystem(SystemKind::PvaSdram, config);

    // Four tenants of eight closed-loop streams, half of their
    // commands scatters, so the queues stay a few deep and every
    // pooled slot alternates between reads and writes.
    StreamConfig sc;
    sc.mode = ArrivalMode::ClosedLoop;
    sc.window = 4;
    sc.queueCapacity = 8;
    sc.requests = 600;
    sc.pattern.minStride = 1;
    sc.pattern.maxStride = 16;
    sc.pattern.minLength = 32;
    sc.pattern.maxLength = 32;
    sc.pattern.readFraction = 0.5;
    sc.pattern.regionWords = 4096;
    auto tmpl = std::make_shared<const StreamTemplate>(sc,
                                                       config.bc.lineWords);
    std::vector<std::unique_ptr<ServiceStats>> stats;
    std::vector<fleet::TenantSeat> seats(4);
    unsigned g = 0;
    for (fleet::TenantSeat &seat : seats) {
        for (unsigned k = 0; k < 8; ++k, ++g)
            seat.sources.emplace_back(tmpl, k, 1 + 7919ull * g,
                                      sc.pattern.regionWords * g);
        stats.push_back(std::make_unique<ServiceStats>(
            8, ServiceStats::Detail::AggregateOnly, "t"));
        seat.stats = stats.back().get();
    }
    ArbiterConfig acfg; // Fifo
    acfg.shed.enabled = true;
    acfg.shed.defaultDeadline = 100000; // expiry heap live, no sheds
    fleet::MessageBus bus;
    fleet::FleetArbiter arbiter(acfg, std::move(seats), bus);
    // A scatter's first touch of a functional-memory page allocates
    // it, by design; touch every stream's region up front.
    for (WordAddr a = 0; a < sc.pattern.regionWords * g; ++a)
        sys->memory().write(a, 0);

    Simulation sim(ClockingMode::Event);
    sim.add(sys.get());
    Cycle stopAt = 100000;
    // Built once, outside the counted window: the closure is too big
    // for std::function's inline buffer.
    const std::function<bool()> step = [&] {
        const bool done = arbiter.service(*sys, sim.now());
        if (!done)
            sim.requestWake(arbiter.nextWake(sim.now()));
        return done || sim.now() >= stopAt;
    };
    sim.runUntil(step); // warmup: about a third of the requests

    const std::uint64_t grantsBefore = arbiter.grants();
    const std::uint64_t before = test::allocations();
    stopAt = kNeverCycle;
    sim.runUntil(step);
    const std::uint64_t after = test::allocations();

    EXPECT_EQ(arbiter.grants(), 32u * 600u);
    EXPECT_GT(arbiter.grants() - grantsBefore, 32u * 300u);
    EXPECT_EQ(after - before, 0u)
        << "the fleet service step heap-allocated " << (after - before)
        << " times after warmup";
}

} // anonymous namespace
} // namespace pva
