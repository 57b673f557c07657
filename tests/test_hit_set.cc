/**
 * @file
 * Hit-set dispatch tests: the front end drives only the bank
 * controllers holding an element of a command, so its hit list
 * (hitBanks()) must be exactly the set of controllers whose own
 * FirstHit logic finds a share — checked against direct
 * BankController::observeVecCommand calls over strides 1-64, every
 * length, every base bank, interleave 1/2/4 and the Indirect and
 * BitReversal modes. A full PvaUnit run must still count every
 * broadcast at every controller and keep per-controller hit counts.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/firsthit.hh"
#include "core/pva_unit.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

constexpr unsigned kBanks = 16;
constexpr unsigned kLineWords = 32;

/** A full set of standalone controllers over one geometry, deep enough
 *  to take many observed commands without ticking. */
class ControllerBank
{
  public:
    explicit ControllerBank(unsigned interleave)
        : geo(kBanks, interleave), pla(geo.bankBits(), cfg().plaVariant)
    {
        for (unsigned b = 0; b < kBanks; ++b) {
            devs.push_back(std::make_unique<SdramDevice>(
                csprintf("dev%u", b), b, geo, timing, mem));
            bcs.push_back(std::make_unique<BankController>(
                csprintf("bc%u", b), b, geo, cfg(), *devs.back(), pla));
        }
    }

    static BcConfig
    cfg()
    {
        BcConfig c;
        c.fifoEntries = 1024;
        c.lineWords = kLineWords;
        return c;
    }

    /** Banks whose controller took a nonzero share of @p cmd. */
    std::vector<unsigned>
    observedHits(const VectorCommand &cmd)
    {
        std::vector<unsigned> hits;
        for (unsigned b = 0; b < kBanks; ++b) {
            BankController &bc = *bcs[b];
            bc.observeVecCommand(0, cmd);
            // Complete straight after the broadcast iff expected == 0.
            if (!bc.txnComplete(cmd.txn))
                hits.push_back(b);
            bc.releaseTxn(cmd.txn);
        }
        return hits;
    }

    Geometry geo;
    SdramTiming timing{};
    SparseMemory mem;
    FirstHitPla pla;
    std::vector<std::unique_ptr<SdramDevice>> devs;
    std::vector<std::unique_ptr<BankController>> bcs;
};

std::vector<unsigned>
frontEndHits(const VectorCommand &cmd, const Geometry &geo)
{
    std::vector<std::uint8_t> mark;
    std::vector<unsigned> hits;
    hitBanks(cmd, geo, mark, hits);
    return hits;
}

class HitSet : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HitSet, StrideCommandsMatchEveryControllersFirstHit)
{
    const unsigned interleave = GetParam();
    const unsigned n = interleave == 1 ? 0 : interleave == 2 ? 1 : 2;
    for (std::uint32_t stride = 1; stride <= 64; ++stride) {
        // Fresh controllers per stride keep the FIFOs below capacity.
        ControllerBank cb(interleave);
        for (std::uint32_t len = 1; len <= kLineWords; ++len) {
            for (unsigned b0 = 0; b0 < kBanks; ++b0) {
                VectorCommand cmd;
                // Bank b0, and a block offset that varies with it.
                cmd.base = ((WordAddr{40 + b0} * kBanks + b0) << n) +
                           (b0 & (interleave - 1));
                cmd.stride = stride;
                cmd.length = len;
                cmd.isRead = (len + b0) % 2 == 0;
                ASSERT_EQ(cb.geo.bankOf(cmd.base), b0);
                ASSERT_EQ(frontEndHits(cmd, cb.geo), cb.observedHits(cmd))
                    << "N=" << interleave << " S=" << stride
                    << " L=" << len << " base bank " << b0;
            }
        }
    }
}

TEST_P(HitSet, IndirectAndBitReversalMatchEveryControllersMask)
{
    const unsigned interleave = GetParam();
    ControllerBank cb(interleave);
    Random rng(0x5eed + interleave);
    for (unsigned trial = 0; trial < 200; ++trial) {
        VectorCommand ind;
        ind.mode = VectorCommand::Mode::Indirect;
        ind.base = rng.below(1u << 20);
        ind.length = static_cast<std::uint32_t>(rng.range(1, kLineWords));
        // Narrow offset ranges make some banks miss.
        std::uint64_t span = trial % 2 ? 64 : 4096;
        for (std::uint32_t i = 0; i < ind.length; ++i)
            ind.indices.push_back(rng.below(span));
        EXPECT_EQ(frontEndHits(ind, cb.geo), cb.observedHits(ind))
            << "indirect trial " << trial;

        VectorCommand rev;
        rev.mode = VectorCommand::Mode::BitReversal;
        rev.base = rng.below(1u << 20);
        rev.revBits = static_cast<unsigned>(rng.range(1, 10));
        rev.revOffset = rng.below(1u << rev.revBits);
        rev.length = static_cast<std::uint32_t>(rng.range(1, kLineWords));
        rev.isRead = false;
        EXPECT_EQ(frontEndHits(rev, cb.geo), cb.observedHits(rev))
            << "bit-reversal trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Interleave, HitSet, ::testing::Values(1u, 2u, 4u));

TEST(HitSetDispatch, EveryBroadcastIsCountedAtEveryController)
{
    PvaUnit sys("pva", PvaConfig{});
    Simulation sim;
    sim.add(&sys);
    const Geometry &geo = sys.config().geometry;

    std::vector<Word> payload(kLineWords, 0x1234);
    std::map<unsigned, std::uint64_t> want_hits;
    std::uint64_t broadcasts = 0;
    std::size_t completed = 0;
    Random rng(99);
    for (unsigned batch = 0; batch < 12; ++batch) {
        // A full batch fills transaction slots 0..7 in order.
        for (std::uint8_t id = 0; id < 8; ++id) {
            VectorCommand cmd;
            cmd.base = rng.below(1u << 16);
            cmd.stride = static_cast<std::uint32_t>(rng.range(1, 64));
            cmd.length = static_cast<std::uint32_t>(rng.range(1, kLineWords));
            cmd.isRead = rng.below(2) == 0;
            if (batch % 3 == 2) {
                cmd.mode = VectorCommand::Mode::Indirect;
                for (std::uint32_t i = 0; i < cmd.length; ++i)
                    cmd.indices.push_back(rng.below(48));
            }
            ASSERT_TRUE(sys.trySubmit(cmd, broadcasts,
                                      cmd.isRead ? nullptr : &payload));
            std::vector<unsigned> hits = frontEndHits(cmd, geo);
            EXPECT_EQ(sys.txnHitBanks(id), hits);
            for (unsigned b : hits)
                ++want_hits[b];
            ++broadcasts;
        }
        sim.runUntil(
            [&] {
                completed += sys.drainCompletions().size();
                return !sys.busy();
            },
            1000000);
    }
    EXPECT_EQ(completed, broadcasts);

    for (unsigned b = 0; b < geo.banks(); ++b) {
        const BankController &bc = sys.bankController(b);
        EXPECT_EQ(bc.statCommandsSeen.value(), broadcasts) << "bc" << b;
        EXPECT_EQ(bc.statCommandsHit.value(), want_hits[b]) << "bc" << b;
    }
}

} // anonymous namespace
} // namespace pva
