/**
 * @file
 * Deterministic fault injection for robustness evaluation.
 *
 * A FaultPlan describes which asynchronous disturbances to inject and
 * at what per-event rates; it travels inside SystemConfig so every
 * harness (tools, benches, the sweep executor) can enable it uniformly.
 * Injection decisions are drawn from splitmix64 streams (sim/random.hh)
 * derived from the plan seed and a per-component stream id, so a run is
 * bit-reproducible for a given seed regardless of wall-clock timing or
 * sweep worker count.
 *
 * The four fault classes model real SDRAM-system disturbances:
 *
 *  - refresh stalls: a device spontaneously refreshes (all internal
 *    banks precharge, device busy for tRFC) outside the tREFI schedule;
 *  - bank-controller stalls: a BC's scheduler loses a cycle (arbitration
 *    or clock-domain delay), delaying its responses;
 *  - dropped transfers: a read word returning from the device is lost
 *    before reaching the staging unit (the BC must detect the hole and
 *    retry the missing sub-vector elements);
 *  - corrupted FirstHit results: the FirstHit predictor yields a wrong
 *    sub-vector, which must be caught by the TimingChecker's shadow
 *    gather model rather than silently producing a wrong line.
 */

#ifndef PVA_SIM_FAULT_HH
#define PVA_SIM_FAULT_HH

#include <cstdint>

#include "sim/random.hh"

namespace pva
{

/** What to inject, and how often. All rates are probabilities in
 *  [0, 1] per opportunity (cycle or event; see each field). */
struct FaultPlan
{
    /** Base seed; every component derives its own stream from it. */
    std::uint64_t seed = 0x5eed;
    /** Per device-cycle probability of a spontaneous refresh stall. */
    double refreshStallRate = 0.0;
    /** Per BC-cycle probability of the scheduler losing the cycle. */
    double bcStallRate = 0.0;
    /** Per read-return probability the word is dropped before staging. */
    double dropTransferRate = 0.0;
    /** Per sub-vector probability the FirstHit result is corrupted. */
    double corruptFirstHitRate = 0.0;

    bool operator==(const FaultPlan &) const = default;

    /** Any injection enabled at all? */
    bool
    enabled() const
    {
        return refreshStallRate > 0.0 || bcStallRate > 0.0 ||
               dropTransferRate > 0.0 || corruptFirstHitRate > 0.0;
    }
};

/**
 * One component's private injection decision stream.
 *
 * Each injecting component owns one FaultInjector constructed with the
 * shared plan and a unique stream id; decisions are then drawn in the
 * component's own deterministic simulation order.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan_, std::uint64_t stream)
        : plan(plan_),
          rng(plan_.seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)))
    {
    }

    bool refreshStall() { return roll(plan.refreshStallRate); }
    bool bcStall() { return roll(plan.bcStallRate); }
    bool dropTransfer() { return roll(plan.dropTransferRate); }
    bool corruptFirstHit() { return roll(plan.corruptFirstHitRate); }

  private:
    bool
    roll(double rate)
    {
        if (rate <= 0.0)
            return false;
        if (rate >= 1.0) {
            rng.next(); // keep the stream position rate-independent
            return true;
        }
        // Compare against rate * 2^64, saturating to avoid the
        // undefined float-to-integer conversion at the top of range.
        double scaled = rate * 18446744073709551616.0; // 2^64
        std::uint64_t threshold =
            scaled >= 18446744073709549568.0 // largest double < 2^64
                ? ~0ULL
                : static_cast<std::uint64_t>(scaled);
        return rng.next() < threshold;
    }

    FaultPlan plan;
    Random rng;
};

} // namespace pva

#endif // PVA_SIM_FAULT_HH
