/**
 * @file
 * Unit and property tests for the open-addressed FlatMap that backs the
 * policy hot tables, plus the shared roundUpPow2 helper it sizes itself
 * with. Registered with TEST_PREFIX flatmap. so `ctest -R flatmap`
 * selects the whole suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/flat_map.h"

namespace hq {
namespace {

TEST(FlatMap, EmptyOnConstruction)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_FALSE(map.erase(42));
}

TEST(FlatMap, InsertFindEraseRoundTrip)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_TRUE(map.insertOrAssign(0x1000, 7));
    EXPECT_FALSE(map.insertOrAssign(0x1000, 8)); // overwrite, not insert
    ASSERT_NE(map.find(0x1000), nullptr);
    EXPECT_EQ(*map.find(0x1000), 8u);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.erase(0x1000));
    EXPECT_EQ(map.find(0x1000), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap, SubscriptDefaultConstructsAndAccumulates)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    EXPECT_EQ(map[5], 0u);
    map[5] += 3;
    map[5] += 4;
    EXPECT_EQ(map[5], 7u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GrowsPastInitialCapacityAndKeepsEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    const std::size_t initial = map.capacity();
    for (std::uint64_t i = 0; i < 10000; ++i)
        map.insertOrAssign(i * 16, i); // aligned-address-like keys
    EXPECT_GT(map.capacity(), initial);
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const std::uint64_t *value = map.find(i * 16);
        ASSERT_NE(value, nullptr) << "key " << i * 16;
        EXPECT_EQ(*value, i);
    }
}

TEST(FlatMap, ClearResetsButStaysUsable)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map.insertOrAssign(i, i);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(50), nullptr);
    map.insertOrAssign(1, 2);
    EXPECT_EQ(*map.find(1), 2u);
}

TEST(FlatMap, ReserveAvoidsRehashDuringFill)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    map.reserve(5000);
    const std::size_t reserved = map.capacity();
    for (std::uint64_t i = 0; i < 5000; ++i)
        map.insertOrAssign(i, i);
    EXPECT_EQ(map.capacity(), reserved);
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 500; ++i)
        map.insertOrAssign(i, i * 2);
    std::unordered_map<std::uint64_t, std::uint64_t> seen;
    map.forEach([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_EQ(seen.count(key), 0u) << "visited twice";
        seen[key] = value;
    });
    EXPECT_EQ(seen.size(), 500u);
    for (const auto &[key, value] : seen)
        EXPECT_EQ(value, key * 2);
}

/** Hash forcing every key into the same home bucket. */
struct CollidingHash
{
    std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMap, BackwardShiftEraseKeepsChainReachable)
{
    // All keys share one probe chain; erasing from the middle must
    // re-pack it (no tombstones) without losing any survivor.
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> map;
    for (std::uint64_t i = 0; i < 8; ++i)
        map.insertOrAssign(i, i + 100);

    EXPECT_TRUE(map.erase(3));
    EXPECT_TRUE(map.erase(0));
    EXPECT_TRUE(map.erase(7));
    EXPECT_EQ(map.size(), 5u);
    for (std::uint64_t i : {1u, 2u, 4u, 5u, 6u}) {
        const std::uint64_t *value = map.find(i);
        ASSERT_NE(value, nullptr) << "key " << i << " lost by erase";
        EXPECT_EQ(*value, i + 100);
    }
    for (std::uint64_t i : {0u, 3u, 7u})
        EXPECT_EQ(map.find(i), nullptr);

    // Chain survives further churn on the packed layout.
    map.insertOrAssign(3, 203);
    EXPECT_EQ(*map.find(3), 203u);
    EXPECT_EQ(*map.find(6), 106u);
}

TEST(FlatMap, WrappingChainEraseAcrossArrayBoundary)
{
    // With a colliding hash the chain starts at slot 0; deleting and
    // reinserting enough keys exercises the (probe - home) & mask
    // distance arithmetic when the chain wraps the array end.
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> map;
    for (std::uint64_t round = 0; round < 50; ++round) {
        for (std::uint64_t i = 0; i < 10; ++i)
            map.insertOrAssign(i, round * 100 + i);
        for (std::uint64_t i = 0; i < 10; i += 2)
            EXPECT_TRUE(map.erase(i));
        for (std::uint64_t i = 1; i < 10; i += 2) {
            ASSERT_NE(map.find(i), nullptr);
            EXPECT_EQ(*map.find(i), round * 100 + i);
        }
        for (std::uint64_t i = 1; i < 10; i += 2)
            EXPECT_TRUE(map.erase(i));
        EXPECT_TRUE(map.empty());
    }
}

TEST(FlatMap, PropertyMatchesUnorderedMapUnderRandomChurn)
{
    // Model-based property test: a long random sequence of insert /
    // overwrite / erase / lookup must leave FlatMap and
    // std::unordered_map in agreement at every step.
    std::mt19937_64 rng(0xC0FFEE);
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> model;

    // Small key space so collisions-in-time (reuse after erase) happen.
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 511);
    std::uniform_int_distribution<int> op_dist(0, 99);

    for (int step = 0; step < 100000; ++step) {
        const std::uint64_t key = key_dist(rng) * 8; // aligned-ish keys
        const int op = op_dist(rng);
        if (op < 45) {
            const std::uint64_t value = rng();
            EXPECT_EQ(map.insertOrAssign(key, value),
                      model.insert_or_assign(key, value).second);
        } else if (op < 70) {
            EXPECT_EQ(map.erase(key), model.erase(key) > 0);
        } else {
            const std::uint64_t *value = map.find(key);
            auto it = model.find(key);
            if (it == model.end()) {
                EXPECT_EQ(value, nullptr);
            } else {
                ASSERT_NE(value, nullptr);
                EXPECT_EQ(*value, it->second);
            }
        }
        ASSERT_EQ(map.size(), model.size());
    }

    // Final full sweep both directions.
    for (const auto &[key, value] : model) {
        ASSERT_NE(map.find(key), nullptr);
        EXPECT_EQ(*map.find(key), value);
    }
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t key, std::uint64_t value) {
        auto it = model.find(key);
        ASSERT_NE(it, model.end());
        EXPECT_EQ(it->second, value);
        ++visited;
    });
    EXPECT_EQ(visited, model.size());
}

TEST(FlatMap, CopyIsIndependent)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 64; ++i)
        map.insertOrAssign(i, i);
    FlatMap<std::uint64_t, std::uint64_t> copy = map;
    copy.erase(5);
    copy.insertOrAssign(100, 100);
    EXPECT_NE(map.find(5), nullptr);   // original untouched
    EXPECT_EQ(map.find(100), nullptr);
    EXPECT_EQ(copy.find(5), nullptr);
    EXPECT_EQ(map.size(), 64u);
    EXPECT_EQ(copy.size(), 64u);
}

TEST(FlatMap, PrefetchIsPureHint)
{
    // prefetch() must not change observable state — not on hits, not on
    // misses, not on an empty map.
    FlatMap<std::uint64_t, std::uint64_t> map;
    map.prefetch(7);
    EXPECT_TRUE(map.empty());
    map.insertOrAssign(7, 70);
    map.prefetch(7);   // hit
    map.prefetch(8);   // miss
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 70u);
    EXPECT_EQ(map.find(8), nullptr);
}

TEST(MixHash64, SpreadsAlignedKeysAcrossLowBits)
{
    // Shadow-store keys are 8/16-byte aligned; an identity hash would
    // leave the low bits (the bucket index) striding. The mixed hash
    // must populate many distinct low-bit patterns.
    std::unordered_map<std::uint64_t, int> buckets;
    for (std::uint64_t i = 0; i < 1024; ++i)
        ++buckets[mixHash64(0x7f0000000000ULL + i * 16) & 1023];
    EXPECT_GT(buckets.size(), 600u); // ~1 - 1/e of 1024 for a good mix
}

TEST(RoundUpPow2, SmallValues)
{
    EXPECT_EQ(roundUpPow2(0), 1u);
    EXPECT_EQ(roundUpPow2(1), 1u);
    EXPECT_EQ(roundUpPow2(2), 2u);
    EXPECT_EQ(roundUpPow2(3), 4u);
    EXPECT_EQ(roundUpPow2(1000), 1024u);
    EXPECT_EQ(roundUpPow2(1024), 1024u);
    EXPECT_EQ(roundUpPow2(1025), 2048u);
}

TEST(RoundUpPow2, HugeValuesClampInsteadOfOverflowing)
{
    // The seed version looped forever past the top power of two; the
    // shared helper clamps to the largest representable power instead.
    constexpr std::size_t top =
        std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
    EXPECT_EQ(roundUpPow2(top), top);
    EXPECT_EQ(roundUpPow2(top + 1), top);
    EXPECT_EQ(roundUpPow2(~std::size_t{0}), top);
}

} // namespace
} // namespace hq
