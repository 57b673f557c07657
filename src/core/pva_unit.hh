/**
 * @file
 * The Parallel Vector Access unit: bank controllers + vector bus + the
 * memory-controller front end of section 5.2.6.
 *
 * Read transaction lifecycle:
 *   VEC_READ broadcast (1 request cycle) -> every BC gathers its
 *   sub-vector into its staging unit -> wired-OR transaction-complete
 *   line deasserts -> front end issues STAGE_READ -> 16 data cycles
 *   return the 128-byte line (2 words per cycle) -> completion.
 *
 * Write transaction lifecycle:
 *   STAGE_WRITE (1 request cycle) -> 16 data cycles push the line into
 *   the BCs' write staging -> VEC_WRITE broadcast -> BCs scatter ->
 *   transaction-complete deasserts when all data is committed to SDRAM
 *   -> completion.
 *
 * The same unit instantiated over SramDevice banks is the paper's
 * "parallel vector access SRAM" comparison system.
 *
 * Hit-set dispatch (docs/PERFORMANCE.md): each transaction's hit banks
 * — the controllers holding at least one of its elements — are computed
 * once at trySubmit. Only those controllers take the write line, the
 * broadcast, the completion poll, the collect and the release; the
 * others' FirstHit predictors would decide "no hit" and do nothing, so
 * the front end only credits their commandsSeen snoop count.
 *
 * Batched bank-controller ticking: the front end caches each BC's wake
 * cycle (the Component::nextWakeAfter contract) and skips ticking
 * controllers that are provably quiescent until then. Saturated vector
 * workloads concentrate on few banks at a time, so most of the M
 * controllers are skippable on most cycles. Every external input to a
 * BC — a VEC_READ/VEC_WRITE broadcast or a STAGE_WRITE line delivery to
 * a hit bank — resets that BC's cached wake to the current cycle,
 * preserving cycle-exactness by the same argument as the event
 * clocking core. cfg.batchTicking = false restores the
 * tick-every-BC-every-cycle reference behaviour.
 */

#ifndef PVA_CORE_PVA_UNIT_HH
#define PVA_CORE_PVA_UNIT_HH

#include <memory>
#include <vector>

#include "bus/vector_bus.hh"
#include "core/bank_controller.hh"
#include "core/memory_system.hh"
#include "core/pla.hh"
#include "core/system_config.hh"
#include "sdram/device.hh"
#include "sdram/geometry.hh"
#include "sim/pool.hh"

namespace pva
{

class TimingChecker;

/** The PVA unit as a complete memory system. */
class PvaUnit : public MemorySystem
{
  public:
    PvaUnit(std::string name, const PvaConfig &config);
    ~PvaUnit() override;

    bool trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                   const std::vector<Word> *write_data) override;
    void drainCompletionsInto(std::vector<Completion> &out) override;
    void recycleLine(std::vector<Word> &&line) override;
    bool busy() const override;
    std::size_t inFlight() const override { return activeTxns; }
    SparseMemory &memory() override { return backing; }
    StatSet &stats() override { return statSet; }

    /** Final so the Simulation's typed dispatch is a direct call. */
    void tick(Cycle now) final;

    /**
     * Wake contract: earliest of the txn state machine's timed
     * transitions (readyAt), the vector bus freeing for a queued
     * request, and every bank controller's cached wake; now + 1
     * whenever the last tick changed state; kNeverCycle when fully
     * drained.
     */
    Cycle nextWakeAfter(Cycle now) const final;

    /**
     * Top-of-cycle hook: brings the per-cycle occupancy stats current
     * (front end and BCs) for any cycles not yet accounted — spans
     * skipped by event clocking and, per BC, by batched ticking; state
     * was frozen over those cycles, so the credit is exact — and
     * stamps the acceptedAt reference cycle trySubmit uses, keeping
     * submission timestamps identical to the exhaustive stepper's.
     */
    void onCycleBegin(Cycle now) final;

    /** Direct access for white-box tests. */
    BankController &bankController(unsigned i) { return *bcs[i]; }
    /** Hit banks of the command in transaction slot @p id (ascending;
     *  meaningful while the slot is not Free). */
    const std::vector<unsigned> &
    txnHitBanks(std::uint8_t id) const
    {
        return txns[id].hitBanks;
    }
    const PvaConfig &config() const { return cfg; }
    VectorBus &bus() { return vectorBus; }

  private:
    enum class TxnState
    {
        Free,
        QueuedRead,     ///< Waiting for a bus cycle to broadcast VEC_READ
        Gathering,      ///< BCs collecting; waiting on complete line
        StagePending,   ///< Complete; waiting for the bus for STAGE_READ
        Staging,        ///< Data cycles in progress
        QueuedWrite,    ///< Waiting for the bus to start STAGE_WRITE
        WriteData,      ///< Write data cycles in progress
        VecWritePending, ///< Data sent; waiting to broadcast VEC_WRITE
        Scattering,     ///< BCs writing to SDRAM
    };

    struct Txn
    {
        TxnState state = TxnState::Free;
        VectorCommand cmd;
        std::uint64_t tag = 0;
        std::vector<Word> writeData;
        Cycle readyAt = 0;   ///< Next state-transition time where timed
        Cycle acceptedAt = 0; ///< For the latency distributions
        /** Banks holding an element of cmd, ascending (hitBanks()):
         *  the only BCs the front end drives for this transaction. */
        std::vector<unsigned> hitBanks;
    };

    /**
     * All BCs finished transaction @p id (the wired-OR line)? Only the
     * hit banks can hold the line asserted. Scans from the per-txn
     * resume index into the hit list: a BC's completion is monotone
     * between broadcast and release, so controllers already seen
     * complete are never re-polled.
     */
    bool allBcsComplete(std::uint8_t id);

    /** Broadcast VEC_READ/VEC_WRITE of transaction @p id: credit every
     *  BC's snoop, wake and drive the hit banks. */
    void broadcast(std::uint8_t id, Cycle now);

    /** Trace track for transaction slot @p id (0 when untraced). */
    std::uint32_t
    txnTrack(std::uint8_t id) const
    {
        return id < txnTracks.size() ? txnTracks[id] : 0;
    }

    /** Take a recycled line buffer from the pool (or an empty one). */
    std::vector<Word>
    takeLine()
    {
        if (linePool.empty())
            return {};
        std::vector<Word> line = std::move(linePool.back());
        linePool.pop_back();
        return line;
    }

    void finishRead(std::uint8_t id, Cycle now);
    void finishWrite(std::uint8_t id, Cycle now);

    PvaConfig cfg;
    SparseMemory backing;
    VectorBus vectorBus;
    std::vector<std::unique_ptr<BankDevice>> devices;
    FirstHitPla pla; ///< One read-only table shared by every BC
    std::vector<std::unique_ptr<BankController>> bcs;
    /** Redundant protocol/data checker (present iff cfg.timingCheck). */
    std::unique_ptr<TimingChecker> checker;

    std::vector<Txn> txns;
    RingDeque<std::uint8_t> submitOrder; ///< FIFO of queued commands
    std::vector<Completion> completions;
    /** Recycled read-line buffers (recycleLine() -> finishRead()). */
    std::vector<std::vector<Word>> linePool;

    /** Cached per-BC wake cycle (see file comment); maintained in both
     *  batching modes, consulted by the tick loop only when batching. */
    std::vector<Cycle> bcWake;
    /** min(bcWake) as of the end of the last tick, which leaves every
     *  cached wake after that cycle; nextWakeAfter folds this instead
     *  of rescanning. */
    Cycle bcWakeMin = 0;
    /** Per-txn position in hitBanks of the first BC not yet seen
     *  complete. */
    std::vector<unsigned> bcScanFrom;
    /** hitBanks() scratch, all zero between submissions. */
    std::vector<std::uint8_t> hitMark;
    std::size_t activeTxns = 0; ///< Txn slots not Free

    StatSet statSet;
    Scalar statReads;
    Scalar statWrites;
    Scalar statCtxOccupancy;  ///< Sum over ticks of in-flight txns
    Scalar statCtxFullCycles; ///< Ticks with no free transaction slot
    Cycle lastTickCycle = 0;
    Cycle lastProcessedTick = 0; ///< Last cycle tick() actually ran
    bool tickedYet = false;
    bool tickActivity = false; ///< Did the last tick change state?

    /** Per-transaction-slot trace tracks; empty when untraced. */
    std::vector<std::uint32_t> txnTracks;
    /** Last in-flight count traced (counter emitted on change only). */
    std::size_t traceLastActive = SIZE_MAX;
    Distribution statReadLatency{4};  ///< Submit-to-data, 4-cycle buckets
    Distribution statWriteLatency{4}; ///< Submit-to-commit
};

} // namespace pva

#endif // PVA_CORE_PVA_UNIT_HH
