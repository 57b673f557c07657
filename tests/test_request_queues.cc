/**
 * @file
 * RequestQueues tests: the pooled per-stream FIFOs behind every fleet
 * shard (fleet/request_queues.hh).
 *
 * The pool is held to a reference of one std::deque per stream under
 * seeded interleavings of pushes, grants (pop one head) and sheds (pop
 * heads while they are too old), across streams and at depth; its slot
 * count to the most requests ever queued at once; and a drained
 * 10^4-stream fleet to O(tenants) live heap blocks — a queue per
 * stream would leave one or more per stream that ever queued.
 */

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "fleet/fleet_arbiter.hh"
#include "fleet/request_queues.hh"
#include "kernels/sweep.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

using fleet::RequestQueues;

/** What the reference keeps of a queued request. */
struct Ref
{
    std::uint64_t seqNo;
    Cycle arrival;
    std::uint32_t words; ///< Write-data length
};

/** Fill a pooled slot the way emitInto does: every field. */
void
fill(TrafficRequest &req, unsigned stream, const Ref &r)
{
    req.stream = stream;
    req.seqNo = r.seqNo;
    req.arrival = r.arrival;
    req.cmd.length = r.words;
    req.cmd.isRead = r.words == 0;
    req.writeData.assign(r.words, static_cast<Word>(r.seqNo));
}

void
expectFront(const RequestQueues &q, unsigned s, const Ref &r)
{
    const TrafficRequest &f = q.front(s);
    EXPECT_EQ(f.stream, s);
    EXPECT_EQ(f.seqNo, r.seqNo);
    EXPECT_EQ(f.arrival, r.arrival);
    ASSERT_EQ(f.writeData.size(), r.words);
    for (Word w : f.writeData)
        EXPECT_EQ(w, static_cast<Word>(r.seqNo));
}

/**
 * Drive @p streams queues and their reference with @p ops seeded
 * operations, one per cycle: push (up to @p cap deep), grant one head,
 * or shed every head that waited more than @p budget cycles. Checks
 * every head and length after every operation, and that the pool never
 * holds more slots than the most requests queued at once. Returns that
 * peak.
 */
std::size_t
runAgainstReference(unsigned streams, std::size_t cap, unsigned ops,
                    Cycle budget, std::uint64_t seed)
{
    RequestQueues q(streams);
    std::vector<std::deque<Ref>> ref(streams);
    Random rng(seed);
    std::uint64_t seq = 0;
    std::size_t queued = 0, peak = 0;
    for (unsigned i = 0; i < ops; ++i) {
        const Cycle now = i;
        const unsigned s = static_cast<unsigned>(rng.below(streams));
        const std::uint64_t op = rng.below(10);
        if (op < 5) { // push
            if (ref[s].size() >= cap)
                continue;
            const Ref r{seq++, now,
                        static_cast<std::uint32_t>(rng.below(3) * 16)};
            fill(q.pushBack(s), s, r);
            ref[s].push_back(r);
            ++queued;
        } else if (op < 8) { // grant the head
            if (ref[s].empty())
                continue;
            q.popFront(s);
            ref[s].pop_front();
            --queued;
        } else { // shed every head waiting longer than the budget
            while (!ref[s].empty() &&
                   now - ref[s].front().arrival > budget) {
                EXPECT_EQ(q.front(s).arrival, ref[s].front().arrival);
                q.popFront(s);
                ref[s].pop_front();
                --queued;
            }
        }
        peak = std::max(peak, queued);
        EXPECT_EQ(q.size(s), ref[s].size());
        EXPECT_EQ(q.empty(s), ref[s].empty());
        if (!ref[s].empty())
            expectFront(q, s, ref[s].front());
        EXPECT_EQ(q.queuedRequests(), queued);
        EXPECT_EQ(q.poolSlots(), peak);
        if (::testing::Test::HasFailure())
            return peak;
    }
    // Drain everything in FIFO order, stream by stream.
    for (unsigned s = 0; s < streams; ++s) {
        while (!ref[s].empty()) {
            expectFront(q, s, ref[s].front());
            q.popFront(s);
            ref[s].pop_front();
        }
        EXPECT_TRUE(q.empty(s));
    }
    EXPECT_EQ(q.queuedRequests(), 0u);
    EXPECT_EQ(q.poolSlots(), peak);
    return peak;
}

TEST(RequestQueues, PerStreamFifoOrderUnderInterleavedPushGrantAndShed)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        runAgainstReference(16, 6, 20000, 40, seed);
    }
}

TEST(RequestQueues, DeepQueuesShedFromTheHeadWhileSlotsRecycle)
{
    // Three streams, 256 deep: long chains that sheds cut from the
    // head while pushes keep relinking the freed slots at the tails.
    const std::size_t peak = runAgainstReference(3, 256, 40000, 600, 11);
    EXPECT_GT(peak, 256u);

    // A freed slot comes back first, its write data's buffer intact.
    RequestQueues q(2);
    fill(q.pushBack(0), 0, Ref{0, 0, 32});
    fill(q.pushBack(0), 0, Ref{1, 1, 32});
    const Word *buffer = q.front(0).writeData.data();
    q.popFront(0);
    TrafficRequest &reused = q.pushBack(1);
    EXPECT_EQ(reused.writeData.data(), buffer);
    EXPECT_GE(reused.writeData.capacity(), 32u);
    fill(reused, 1, Ref{2, 2, 16});
    EXPECT_EQ(q.poolSlots(), 2u);
    EXPECT_EQ(q.front(0).seqNo, 1u);
    EXPECT_EQ(q.front(1).seqNo, 2u);
}

TEST(RequestQueues, PoolHighWaterIsTheMostRequestsQueuedAtOnce)
{
    // 10^5 streams, at most eight requests queued at any moment: the
    // pool holds eight slots, however many streams took turns.
    constexpr unsigned kStreams = 100000;
    RequestQueues q(kStreams);
    Random rng(3);
    std::deque<unsigned> order; // streams by push time
    for (unsigned i = 0; i < 4 * kStreams; ++i) {
        const unsigned s = static_cast<unsigned>(rng.below(kStreams));
        fill(q.pushBack(s), s, Ref{i, i, 0});
        order.push_back(s);
        if (order.size() == 8) {
            q.popFront(order.front());
            order.pop_front();
        }
    }
    EXPECT_EQ(q.poolSlots(), 8u);
    EXPECT_EQ(q.queuedRequests(), 7u);
}

/** A 10^4-stream, fleet-100k-shaped shard: 157 tenants of 64 open-loop
 *  streams, two requests each, half of them writes. */
struct SmallFleet
{
    static constexpr unsigned kTenants = 157;
    static constexpr unsigned kPerTenant = 64;

    std::vector<std::unique_ptr<ServiceStats>> stats;
    std::vector<fleet::TenantSeat> seats;

    explicit SmallFleet(unsigned line_words)
    {
        StreamConfig sc;
        sc.mode = ArrivalMode::OpenLoop;
        sc.requestsPerKilocycle = 0.003;
        sc.requests = 2;
        sc.queueCapacity = 4;
        sc.pattern.minStride = 1;
        sc.pattern.maxStride = 32;
        sc.pattern.minLength = 8;
        sc.pattern.maxLength = 32;
        sc.pattern.readFraction = 0.5;
        auto tmpl = std::make_shared<const StreamTemplate>(sc, line_words);
        unsigned g = 0;
        for (unsigned t = 0; t < kTenants; ++t) {
            fleet::TenantSeat seat;
            seat.name = csprintf("t%u", t);
            for (unsigned k = 0; k < kPerTenant; ++k, ++g)
                seat.sources.emplace_back(tmpl, k, 1 + 7919ull * g, 0);
            stats.push_back(std::make_unique<ServiceStats>(
                kPerTenant, ServiceStats::Detail::AggregateOnly,
                seat.name));
            seat.stats = stats.back().get();
            seats.push_back(std::move(seat));
        }
    }
};

TEST(RequestQueues, DrainedFleetLeavesLiveAllocationsPerTenantNotPerStream)
{
    SystemConfig config;
    auto sys = makeSystem(SystemKind::PvaSdram, config);
    SmallFleet f(config.bc.lineWords);
    ArbiterConfig acfg;
    acfg.shed.enabled = true;
    acfg.shed.defaultDeadline = 4000;
    fleet::MessageBus bus;
    Simulation sim(ClockingMode::Event);
    sim.add(sys.get());

    const std::uint64_t liveBefore =
        test::allocations() - test::deallocations();
    fleet::FleetArbiter arbiter(acfg, std::move(f.seats), bus);
    std::size_t maxQueued = 0;
    sim.runUntil([&] {
        const bool done = arbiter.service(*sys, sim.now());
        maxQueued = std::max(maxQueued,
                             arbiter.requestQueues().queuedRequests());
        if (!done)
            sim.requestWake(arbiter.nextWake(sim.now()));
        return done;
    });
    const std::uint64_t live =
        test::allocations() - test::deallocations() - liveBefore;

    const std::size_t streams = arbiter.streamCount();
    ASSERT_EQ(streams, SmallFleet::kTenants * SmallFleet::kPerTenant);
    std::uint64_t completed = 0;
    for (const auto &st : f.stats)
        completed += st->completedTotal() + st->shedTotal();
    EXPECT_EQ(completed, 2u * streams);

    const RequestQueues &q = arbiter.requestQueues();
    EXPECT_EQ(q.queuedRequests(), 0u);
    EXPECT_GE(q.poolSlots(), maxQueued);
    EXPECT_LT(q.poolSlots(), streams / 100)
        << "the pool grew with the stream count";
    // Each tenant keeps its index vectors, heaps and stat windows
    // (about 22 blocks), the arbiter and memory system a fixed number
    // more. A queue per stream would add one or two per stream.
    EXPECT_LE(live, 32u * SmallFleet::kTenants)
        << live << " blocks live for " << streams << " streams";
}

} // anonymous namespace
} // namespace pva
