/**
 * @file
 * RingDeque tests: growth from empty through 1, 2, 4 and 8 slots
 * across a wrap, eraseAt/popBack/clear, and slot reuse keeping the
 * heap capacity of an element's members. TagRing tests: out-of-order
 * retirement against a std::map, growth while an old tag stays live,
 * and a steady state that never grows.
 */

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <vector>

#include "sim/random.hh"

#include "sim/pool.hh"

namespace pva
{
namespace
{

/** The ring's contents, oldest first. */
std::vector<int>
contents(const RingDeque<int> &q)
{
    std::vector<int> out;
    for (std::size_t i = 0; i < q.size(); ++i)
        out.push_back(q[i]);
    return out;
}

TEST(RingDeque, GrowsOneTwoFourEightAcrossAWrapInFifoOrder)
{
    RingDeque<int> q;
    std::deque<int> ref;
    int next = 0;
    auto push = [&] {
        q.pushBack() = next;
        ref.push_back(next++);
    };
    auto pop = [&] {
        ASSERT_EQ(q.front(), ref.front());
        q.popFront();
        ref.pop_front();
    };

    EXPECT_EQ(q.capacity(), 0u); // no slots until the first push
    push(); // first growth: one slot
    EXPECT_EQ(q.capacity(), 1u);
    pop();
    push(); // reuses the single slot
    EXPECT_EQ(q.capacity(), 1u);
    push(); // 2 slots
    EXPECT_EQ(q.capacity(), 2u);
    pop();
    push(); // head at slot 1, tail wrapped to slot 0
    EXPECT_EQ(q.capacity(), 2u);
    push(); // grows while wrapped: 4 slots
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_EQ(contents(q), std::vector<int>(ref.begin(), ref.end()));
    pop();
    pop();
    push();
    push();
    push(); // wrapped again in 4 slots
    EXPECT_EQ(q.capacity(), 4u);
    push(); // grows while wrapped: 8 slots
    EXPECT_EQ(q.capacity(), 8u);
    EXPECT_EQ(contents(q), std::vector<int>(ref.begin(), ref.end()));

    // Churn well past the capacity so head and tail wrap many times.
    for (int round = 0; round < 40; ++round) {
        push();
        pop();
        ASSERT_EQ(contents(q), std::vector<int>(ref.begin(), ref.end()));
    }
    EXPECT_EQ(q.capacity(), 8u);
    while (!ref.empty())
        pop();
    EXPECT_TRUE(q.empty());
}

TEST(RingDeque, ReserveRoundsUpToAPowerOfTwo)
{
    RingDeque<int> q(3);
    EXPECT_EQ(q.capacity(), 4u);
    q.reserve(2); // never shrinks
    EXPECT_EQ(q.capacity(), 4u);
    q.reserve(5);
    EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingDeque, EraseAtKeepsTheOrderOfTheRest)
{
    RingDeque<int> q(4);
    // Wrap first: head at slot 2.
    q.pushBack() = -1;
    q.pushBack() = -2;
    q.popFront();
    q.popFront();
    for (int v : {10, 11, 12, 13})
        q.pushBack() = v;
    q.eraseAt(1);
    EXPECT_EQ(contents(q), (std::vector<int>{10, 12, 13}));
    q.eraseAt(0);
    EXPECT_EQ(contents(q), (std::vector<int>{12, 13}));
    q.eraseAt(1);
    EXPECT_EQ(contents(q), (std::vector<int>{12}));
    q.eraseAt(0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(RingDeque, PopBackUndoesTheNewestPush)
{
    RingDeque<int> q;
    for (int v : {1, 2, 3})
        q.pushBack() = v;
    q.popBack();
    EXPECT_EQ(contents(q), (std::vector<int>{1, 2}));
    q.pushBack() = 4;
    EXPECT_EQ(contents(q), (std::vector<int>{1, 2, 4}));
    q.popBack();
    q.popBack();
    q.popBack();
    EXPECT_TRUE(q.empty());
}

TEST(RingDeque, ClearEmptiesButKeepsTheSlots)
{
    RingDeque<int> q;
    for (int v = 0; v < 5; ++v)
        q.pushBack() = v;
    q.popFront();
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 8u);
    q.pushBack() = 7;
    EXPECT_EQ(contents(q), (std::vector<int>{7}));
    EXPECT_EQ(q.capacity(), 8u);
}

TEST(RingDeque, ReusedSlotKeepsItsCapacity)
{
    RingDeque<std::vector<int>> q(2);
    std::vector<int> &first = q.pushBack();
    first.assign(100, 1);
    const int *storage = first.data();
    q.popFront();
    // Slot 1, then back to slot 0: the retired vector is handed out
    // again with its buffer intact.
    q.pushBack().clear();
    q.popFront();
    std::vector<int> &again = q.pushBack();
    EXPECT_GE(again.capacity(), 100u);
    EXPECT_EQ(again.data(), storage);

    // popBack retires the slot the same way.
    q.popBack();
    EXPECT_EQ(q.pushBack().data(), storage);

    // eraseAt swaps: the buffer moves to the retired tail slot, so the
    // next push gets it back.
    q.pushBack().assign(3, 2);
    q.eraseAt(0);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front(), std::vector<int>(3, 2));
    EXPECT_EQ(q.pushBack().data(), storage);
}

TEST(TagRing, RetiresOutOfOrderLikeAMap)
{
    TagRing<std::uint64_t> ring;
    std::map<std::uint64_t, std::uint64_t> ref; // live tag -> value
    Random rng(5);
    for (int i = 0; i < 20000; ++i) {
        if (ref.size() < 12 && (ref.empty() || rng.below(2) == 0)) {
            const std::uint64_t tag = ring.nextTag();
            ring.push(tag * 3 + 1);
            ref[tag] = tag * 3 + 1;
        } else {
            // Retire a random live tag, not necessarily the oldest.
            auto it = ref.begin();
            std::advance(it, rng.below(ref.size()));
            ASSERT_NE(ring.find(it->first), nullptr);
            EXPECT_EQ(*ring.find(it->first), it->second);
            ring.erase(it->first);
            EXPECT_EQ(ring.find(it->first), nullptr);
            ref.erase(it);
        }
        EXPECT_EQ(ring.empty(), ref.empty());
    }
    for (const auto &[tag, value] : ref) {
        ASSERT_NE(ring.find(tag), nullptr);
        EXPECT_EQ(*ring.find(tag), value);
    }
    EXPECT_EQ(ring.find(ring.nextTag()), nullptr); // not yet issued
}

TEST(TagRing, GrowsAroundALongLivedTagAndKeepsEveryValue)
{
    TagRing<int> ring;
    ring.push(-1); // tag 0 stays live throughout
    // Tags 1..99 retire right away, but the span from tag 0 to the
    // newest tag keeps growing, so the ring re-seats it 8 -> 128.
    for (int i = 1; i < 100; ++i) {
        ring.push(i);
        if (i % 2 == 1)
            ring.erase(static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(ring.capacity(), 128u);
    ASSERT_NE(ring.find(0), nullptr);
    EXPECT_EQ(*ring.find(0), -1);
    for (int i = 1; i < 100; ++i) {
        int *v = ring.find(static_cast<std::uint64_t>(i));
        if (i % 2 == 1) {
            EXPECT_EQ(v, nullptr) << i;
        } else {
            ASSERT_NE(v, nullptr) << i;
            EXPECT_EQ(*v, i);
        }
    }
    // Retiring tag 0 skips every retired tag behind it.
    ring.erase(0);
    EXPECT_EQ(ring.find(0), nullptr);
    for (std::uint64_t t = 2; t < 100; t += 2)
        ring.erase(t);
    EXPECT_TRUE(ring.empty());
}

TEST(TagRing, SteadyStateNeverGrows)
{
    // At most four tags in flight, retired in rotating order: the
    // ring stops growing once it covers the widest span they reach.
    TagRing<int> ring;
    std::deque<std::uint64_t> live;
    std::size_t warm = 0;
    for (int i = 0; i < 10000; ++i) {
        if (i == 100)
            warm = ring.capacity();
        live.push_back(ring.nextTag());
        ring.push(i);
        if (live.size() == 4) {
            const std::size_t k = static_cast<std::size_t>(i) % 4;
            ring.erase(live[k]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        }
    }
    EXPECT_LE(warm, 16u);
    EXPECT_EQ(ring.capacity(), warm);
}

} // anonymous namespace
} // namespace pva
