/**
 * @file
 * Per-stream request FIFOs over one shared, recycled slot pool.
 *
 * A fleet shard models 10^4-10^6 streams but holds only a handful of
 * queued requests at any moment (the paper's PVA likewise keeps state
 * for in-flight vector commands only, never per requester). So the
 * requests live in one pool of slots, and each stream keeps just the
 * head, tail and length of its FIFO as 32-bit indices into that pool —
 * 12 bytes per stream, in three flat arrays.
 *
 * Slots are chained: a queued slot links to the next slot of its
 * stream's FIFO, a free slot to the next free one. popFront() puts the
 * slot on the free list without destroying it, and pushBack() takes the
 * most recently freed slot first, so each slot's heap members (the
 * command's index list, the write data) keep their capacity and a
 * steady state touches the allocator only until the pool reaches the
 * most requests ever queued at once.
 */

#ifndef PVA_FLEET_REQUEST_QUEUES_HH
#define PVA_FLEET_REQUEST_QUEUES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "traffic/stream.hh"

namespace pva::fleet
{

/** Per-stream FIFOs sharing one slot pool (see file comment). */
class RequestQueues
{
  public:
    /** @p streams empty FIFOs; no slot is allocated until a push. */
    explicit RequestQueues(std::size_t streams)
        : headSlot(streams), tailSlot(streams), length(streams)
    {
    }

    bool empty(std::size_t s) const { return length[s] == 0; }
    std::size_t size(std::size_t s) const { return length[s]; }

    /** Oldest request of stream @p s (requires !empty(s)). */
    const TrafficRequest &
    front(std::size_t s) const
    {
        return slots[headSlot[s]].req;
    }

    /**
     * Append a slot to stream @p s's FIFO and return its request. The
     * caller must overwrite every field it relies on: the slot holds
     * whatever its previous occupant left, by design (its vectors keep
     * their capacity). The reference is valid until the next pushBack.
     */
    TrafficRequest &
    pushBack(std::size_t s)
    {
        std::uint32_t i = freeSlot;
        if (i != kNil) {
            freeSlot = slots[i].next;
        } else {
            i = static_cast<std::uint32_t>(slots.size());
            slots.emplace_back();
        }
        if (length[s] == 0)
            headSlot[s] = i;
        else
            slots[tailSlot[s]].next = i;
        tailSlot[s] = i;
        ++length[s];
        ++queued;
        return slots[i].req;
    }

    /** Retire stream @p s's oldest request; its slot goes back to the
     *  pool (requires !empty(s)). */
    void
    popFront(std::size_t s)
    {
        const std::uint32_t i = headSlot[s];
        headSlot[s] = slots[i].next;
        --length[s];
        --queued;
        slots[i].next = freeSlot;
        freeSlot = i;
    }

    /** Requests queued now, over all streams. */
    std::size_t queuedRequests() const { return queued; }
    /** Slots allocated so far: the most requests ever queued at once. */
    std::size_t poolSlots() const { return slots.size(); }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Slot
    {
        TrafficRequest req;
        std::uint32_t next = kNil; ///< FIFO successor (stale at a tail),
                                   ///  or the next free slot
    };

    std::vector<Slot> slots;
    std::uint32_t freeSlot = kNil;
    std::size_t queued = 0;

    /** @name Per-stream FIFOs (head/tail meaningful when length > 0) @{ */
    std::vector<std::uint32_t> headSlot;
    std::vector<std::uint32_t> tailSlot;
    std::vector<std::uint32_t> length;
    /** @} */
};

} // namespace pva::fleet

#endif // PVA_FLEET_REQUEST_QUEUES_HH
