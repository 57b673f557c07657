/**
 * @file
 * Capacity-preserving pooled containers for the simulator hot path.
 *
 * The busy-system tick path (docs/PERFORMANCE.md) is required to
 * perform zero heap allocations after warmup: every queue the bank
 * controllers and the PVA front end touch per cycle must reuse its
 * storage instead of cycling it through the allocator the way
 * std::deque block churn or std::vector move-from does.
 *
 * RingDeque<T> is the building block: a circular buffer over a flat
 * slot array whose elements are constructed once and then *reused in
 * place*. pushBack() hands back a reference to the next slot (whose
 * heap members — std::vector fields and the like — keep their
 * capacity from earlier occupancies); popFront() and eraseAt() retire
 * slots without destroying them. Erasure shuffles elements with
 * std::swap rather than move-assignment, so vector capacities rotate
 * around the ring instead of being freed. Capacity grows by powers of
 * two from one slot and never shrinks; a workload's steady state
 * therefore touches the allocator only until its high-water mark is
 * reached, and an empty ring that was never pushed holds no heap
 * memory.
 *
 * TagRing<T> is the keyed counterpart: values filed under tags that
 * are issued in order and retired in any order, in a flat ring rather
 * than a hash map's node per key.
 */

#ifndef PVA_SIM_POOL_HH
#define PVA_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pva
{

/** Bounded-growth circular deque with slot reuse (see file comment). */
template <typename T>
class RingDeque
{
  public:
    explicit RingDeque(std::size_t capacity = 0) { reserve(capacity); }

    /** Grow the slot array to at least @p capacity (never shrinks). */
    void
    reserve(std::size_t capacity)
    {
        if (capacity > slots.size())
            grow(capacity);
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }

    /** Element at logical position @p i (0 = oldest). */
    T &operator[](std::size_t i) { return slots[wrap(head + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots[wrap(head + i)];
    }

    /**
     * Append one element and return the reused slot. The caller must
     * overwrite every field it relies on: the slot holds whatever a
     * previous occupant left behind (by design — its heap members keep
     * their capacity).
     */
    T &
    pushBack()
    {
        if (count == slots.size())
            grow(slots.size() ? slots.size() * 2 : 1);
        T &slot = slots[wrap(head + count)];
        ++count;
        return slot;
    }

    /** Retire the oldest element. Its slot (and any heap capacity its
     *  members hold) stays in the ring for reuse. */
    void
    popFront()
    {
        head = wrap(head + 1);
        --count;
    }

    /** Retire the newest element (undo a pushBack); the slot stays. */
    void popBack() { --count; }

    /**
     * Remove the element at logical position @p i by swapping it step
     * by step to the back, then shrinking. O(size) swaps, but the ring
     * is small (FIFO depth, vector-context window) and swapping — not
     * moving — keeps every slot's heap capacity alive.
     */
    void
    eraseAt(std::size_t i)
    {
        for (std::size_t j = i; j + 1 < count; ++j)
            std::swap((*this)[j], (*this)[j + 1]);
        --count;
    }

    /** Drop all elements; slots and their capacities stay. */
    void clear() { count = 0; head = 0; }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i & (slots.size() - 1);
    }

    /** Re-seat the live elements into a larger power-of-two array.
     *  Growth moves elements (capacities travel with them); retired
     *  slots' capacity is dropped, which is fine — growth only happens
     *  on the way up to the steady-state high-water mark. */
    void
    grow(std::size_t at_least)
    {
        std::size_t cap = 1;
        while (cap < at_least)
            cap *= 2;
        std::vector<T> bigger(cap);
        for (std::size_t i = 0; i < count; ++i)
            std::swap(bigger[i], (*this)[i]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

/**
 * Values keyed by tags issued in order (0, 1, 2, ...) and retired in
 * any order. The live tags lie in [oldest, next); slot tag & (size - 1)
 * of a power-of-two array holds tag's value. Retiring the oldest tag
 * advances past every retired tag behind it, so the array spans from
 * the oldest live tag to the newest and grows (doubling, re-seating
 * that span) only when a new tag would not fit. A steady state that
 * keeps a bounded number of tags in flight therefore allocates
 * nothing.
 */
template <typename T>
class TagRing
{
  public:
    /** The tag the next push() files its value under. */
    std::uint64_t nextTag() const { return next; }
    /** No tag is live. */
    bool empty() const { return oldest == next; }
    std::size_t capacity() const { return slots.size(); }

    /** File @p value under nextTag(), then advance it. */
    void
    push(const T &value)
    {
        if (next - oldest == slots.size())
            grow();
        Slot &slot = slots[wrap(next)];
        slot.value = value;
        slot.live = true;
        ++next;
    }

    /** The value of live tag @p tag, or nullptr if @p tag is not live
     *  (never issued, or already retired). */
    T *
    find(std::uint64_t tag)
    {
        if (tag < oldest || tag >= next)
            return nullptr;
        Slot &slot = slots[wrap(tag)];
        return slot.live ? &slot.value : nullptr;
    }

    /** Retire live tag @p tag (see find()). */
    void
    erase(std::uint64_t tag)
    {
        slots[wrap(tag)].live = false;
        while (oldest < next && !slots[wrap(oldest)].live)
            ++oldest;
    }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    std::size_t
    wrap(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(tag) & (slots.size() - 1);
    }

    void
    grow()
    {
        std::vector<Slot> bigger(slots.empty() ? 8 : 2 * slots.size());
        for (std::uint64_t tag = oldest; tag < next; ++tag)
            bigger[static_cast<std::size_t>(tag) & (bigger.size() - 1)] =
                slots[wrap(tag)];
        slots.swap(bigger);
    }

    std::vector<Slot> slots;
    std::uint64_t oldest = 0;
    std::uint64_t next = 0;
};

} // namespace pva

#endif // PVA_SIM_POOL_HH
