/**
 * @file
 * Subcommand-generation latency (sections 3.1 / 5.3).
 *
 * The paper's claim: the PVA generates per-bank subcommands in 2 cycles
 * for power-of-two strides and at most 5 cycles for other strides
 * (the Command Vector Memory System needs 15). This bench broadcasts a
 * single command at a quiet bank controller and counts cycles until the
 * first SDRAM operation issues, for every stride 1..32, with and
 * without the section 5.2.3 bypass paths.
 */

#include <cstdio>

#include "core/bank_controller.hh"
#include "sdram/device.hh"
#include "sim/memory.hh"

namespace
{

using namespace pva;

/** Cycles from broadcast to the first SDRAM command at bank 0. */
unsigned
latencyFor(std::uint32_t stride, bool bypass)
{
    Geometry geo;
    SdramTiming timing;
    SparseMemory mem;
    SdramDevice dev("dev", 0, geo, timing, mem);
    BcConfig cfg;
    cfg.bypassEnabled = bypass;
    FirstHitPla pla(geo.bankBits(), cfg.plaVariant);
    BankController bc("bc", 0, geo, cfg, dev, pla);

    VectorCommand cmd;
    cmd.base = 0; // bank 0 holds element 0: always a hit
    cmd.stride = stride;
    cmd.length = 32;
    cmd.isRead = true;

    const Cycle start = 100;
    for (Cycle t = 0; t < start; ++t)
        bc.tick(t);
    bc.observeVecCommand(start, cmd);
    for (Cycle t = start; t < start + 64; ++t) {
        bc.tick(t);
        if (dev.statActivates.value() + dev.statReads.value() > 0)
            return static_cast<unsigned>(t - start);
    }
    return 0;
}

} // anonymous namespace

int
main()
{
    std::printf("Subcommand generation latency (cycles from broadcast "
                "to first SDRAM op)\n");
    std::printf("%-8s %10s %12s\n", "stride", "bypassed", "no-bypass");
    unsigned worst_pow2 = 0, worst_other = 0;
    for (std::uint32_t s = 1; s <= 32; ++s) {
        unsigned with_bp = latencyFor(s, true);
        unsigned no_bp = latencyFor(s, false);
        std::printf("%-8u %10u %12u\n", s, with_bp, no_bp);
        if (isPowerOfTwo(s))
            worst_pow2 = std::max(worst_pow2, no_bp);
        else
            worst_other = std::max(worst_other, no_bp);
    }
    std::printf("\nWorst case power-of-two strides: %u cycles "
                "(paper: 2)\n", worst_pow2);
    std::printf("Worst case other strides:        %u cycles "
                "(paper: at most 5; CVMS: 15)\n", worst_other);
    return 0;
}
