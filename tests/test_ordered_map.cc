/**
 * @file
 * Differential tests for the ordered shadow store (common/ordered_map.h)
 * and the policy tables built on it.
 *
 * The map runs against std::map over seeded random point, range and copy
 * operations, with small leaves so splits, merges and leaf release
 * happen constantly, and with keys next to the top of the key space.
 * Each of PointerIntegrityContext, MemorySafetyContext and
 * MemoryTaggingContext then runs against a std::map reference model of
 * its rules, written as plain full scans, over seeded random message
 * streams that include overlapping COPY/MOVE ranges and ranges at the
 * top of the address space; verdicts, entryCount() and lookups must
 * agree after every message. IfcContext, DataFlowContext and
 * EventCountContext run the same way, and each is cloned mid-stream:
 * the clone takes over the stream, and the parent must keep the table
 * it had when it was cloned.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/ordered_map.h"
#include "common/rng.h"
#include "policy/data_flow.h"
#include "policy/ifc.h"
#include "policy/memory_safety.h"
#include "policy/memory_tagging.h"
#include "policy/misc_policies.h"
#include "policy/pointer_integrity.h"

namespace hq {
namespace {

constexpr std::uint64_t kTop = ~std::uint64_t{0};

/** Key from a small low window, a window at the top of the key space,
 *  or anywhere. */
std::uint64_t
randomKey(Rng &rng)
{
    const std::uint64_t pick = rng.nextBelow(10);
    if (pick < 6)
        return rng.nextBelow(600);
    if (pick < 9)
        return kTop - rng.nextBelow(80);
    return rng.next();
}

template <typename Map>
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Map &map)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    map.forRange(0, kTop, [&](std::uint64_t key, std::uint64_t value) {
        out.emplace_back(key, value);
    });
    return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const std::map<std::uint64_t, std::uint64_t> &model)
{
    return {model.begin(), model.end()};
}

template <std::size_t Cap>
void
runMapDifferential(std::uint64_t seed)
{
    using Map = OrderedMap<std::uint64_t, std::uint64_t, Cap>;
    Rng rng(seed);
    Map map;
    std::map<std::uint64_t, std::uint64_t> model;

    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                          << step);
        const std::uint64_t op = rng.nextBelow(100);
        const std::uint64_t key = randomKey(rng);
        if (op < 40) {
            const std::uint64_t value = rng.next();
            ASSERT_EQ(map.insertOrAssign(key, value),
                      model.insert_or_assign(key, value).second);
        } else if (op < 60) {
            ASSERT_EQ(map.erase(key), model.erase(key) > 0);
        } else if (op < 70) {
            const std::uint64_t *value = map.find(key);
            const auto it = model.find(key);
            if (it == model.end()) {
                ASSERT_EQ(value, nullptr);
            } else {
                ASSERT_NE(value, nullptr);
                ASSERT_EQ(*value, it->second);
            }
        } else if (op < 78) {
            // Mostly short ranges; sometimes one running to the top, and
            // sometimes an empty (last < first) one.
            const std::uint64_t last =
                rng.chance(0.2) ? kTop
                                : key + rng.nextBelow(3 * Cap);
            std::size_t expected = 0;
            if (!(last < key)) {
                auto it = model.lower_bound(key);
                while (it != model.end() && it->first <= last) {
                    it = model.erase(it);
                    ++expected;
                }
            }
            ASSERT_EQ(map.eraseRange(key, last), expected);
        } else if (op < 86) {
            const std::uint64_t last =
                rng.chance(0.1) ? kTop : key + rng.nextBelow(4 * Cap);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> seen,
                expected;
            map.forRange(key, last, [&](std::uint64_t k, std::uint64_t v) {
                seen.emplace_back(k, v);
            });
            if (!(last < key)) {
                for (auto it = model.lower_bound(key);
                     it != model.end() && it->first <= last; ++it)
                    expected.emplace_back(it->first, it->second);
            }
            ASSERT_EQ(seen, expected);
        } else if (op < 93) {
            const auto lower = map.lowerBound(key);
            const auto it = model.lower_bound(key);
            ASSERT_EQ(lower.has_value(), it != model.end());
            if (lower) {
                ASSERT_EQ(lower->key, it->first);
                ASSERT_EQ(lower->value, it->second);
            }
            const auto floor = map.floor(key);
            auto up = model.upper_bound(key);
            ASSERT_EQ(floor.has_value(), up != model.begin());
            if (floor) {
                --up;
                ASSERT_EQ(floor->key, up->first);
                ASSERT_EQ(floor->value, up->second);
            }
        } else if (op < 95) {
            // Copies are deep: mutate the copy, the original must not move,
            // then carry on with either one.
            Map copy = map;
            ASSERT_EQ(contents(copy), contents(model));
            copy.insertOrAssign(key, 1);
            copy.eraseRange(0, key);
            ASSERT_EQ(contents(map), contents(model));
            if (rng.chance(0.5)) {
                copy = map;
                map = copy;
            }
        } else if (op < 96) {
            ASSERT_EQ(map.eraseRange(0, kTop), model.size());
            model.clear();
        } else {
            ASSERT_EQ(contents(map), contents(model));
        }
        ASSERT_EQ(map.size(), model.size());
    }
    ASSERT_EQ(contents(map), contents(model));
}

TEST(OrderedMap, MatchesStdMapWithTinyLeaves)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        runMapDifferential<4>(seed);
}

TEST(OrderedMap, MatchesStdMapWithDefaultLeaves)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runMapDifferential<32>(seed);
}

TEST(OrderedMap, EmptyMapAnswersNothing)
{
    OrderedMap<std::uint64_t, std::uint64_t> map;
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_FALSE(map.erase(0));
    EXPECT_FALSE(map.lowerBound(0));
    EXPECT_FALSE(map.floor(kTop));
    EXPECT_EQ(map.eraseRange(0, kTop), 0u);
    map.forRange(0, kTop, [](std::uint64_t, std::uint64_t) { FAIL(); });
}

TEST(OrderedMap, SequentialFillThenRangeEraseReleasesLeaves)
{
    // Ascending and descending fills split at opposite leaf ends; a
    // range erase across many leaves must release the emptied ones and
    // leave both boundary leaves ordered.
    OrderedMap<std::uint64_t, std::uint64_t, 4> map;
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.insertOrAssign(1000 + i, i);
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.insertOrAssign(999 - i, i);
    ASSERT_EQ(map.size(), 2000u);
    EXPECT_EQ(map.eraseRange(250, 1749), 1500u);
    EXPECT_EQ(map.size(), 500u);
    std::uint64_t previous = 0;
    std::size_t seen = 0;
    map.forRange(0, kTop, [&](std::uint64_t key, std::uint64_t) {
        if (seen++ > 0) {
            EXPECT_LT(previous, key);
        }
        previous = key;
        EXPECT_TRUE(key < 250 || key > 1749);
    });
    EXPECT_EQ(seen, 500u);
    EXPECT_EQ(map.floor(1000)->key, 249u);
    EXPECT_EQ(map.lowerBound(1000)->key, 1750u);
}

TEST(OrderedMap, TopOfKeySpaceIsOrdinary)
{
    OrderedMap<std::uint64_t, std::uint64_t, 4> map;
    map.insertOrAssign(kTop, 1);
    map.insertOrAssign(kTop - 1, 2);
    map.insertOrAssign(0, 3);
    EXPECT_EQ(map.floor(kTop)->key, kTop);
    EXPECT_EQ(map.lowerBound(kTop - 1)->key, kTop - 1);
    EXPECT_EQ(map.lowerBound(1)->key, kTop - 1);
    std::size_t seen = 0;
    map.forRange(kTop - 1, kTop, [&](std::uint64_t, std::uint64_t) {
        ++seen;
    });
    EXPECT_EQ(seen, 2u);
    EXPECT_EQ(map.eraseRange(kTop, kTop), 1u);
    EXPECT_EQ(map.size(), 2u);
}

// ---------------------------------------------------------------------
// Policy tables against reference models
// ---------------------------------------------------------------------

/** Address from a small window near 0x1000 (any alignment) or from the
 *  top of the address space. */
Addr
randomAddr(Rng &rng)
{
    return rng.chance(0.75) ? 0x1000 + rng.nextBelow(256)
                            : kTop - rng.nextBelow(256);
}

/** Mostly small sizes; sometimes zero, sometimes wrap-sized. */
std::uint64_t
randomSize(Rng &rng)
{
    const std::uint64_t pick = rng.nextBelow(20);
    if (pick == 0)
        return 0;
    if (pick == 1)
        return kTop - rng.nextBelow(512);
    return 1 + rng.nextBelow(96);
}

/** True when a lies inside [base, base + size), clamped at the top. */
bool
inRange(Addr a, Addr base, std::uint64_t size)
{
    return a >= base && a - base < size;
}

/** True when [base, base + size) runs past the top of the address space. */
bool
wraps(Addr base, std::uint64_t size)
{
    return size != 0 && size - 1 > kTop - base;
}

/** Pointer-integrity rules over a std::map, by full scans. */
struct PointerModel
{
    std::map<Addr, std::uint64_t> pointers;
    std::uint64_t pending = 0;
    std::size_t peak = 0;

    void notePeak() { peak = std::max(peak, pointers.size()); }

    bool
    handle(const Message &m)
    {
        switch (m.op) {
          case Opcode::BlockSize:
            pending = m.arg0;
            return true;
          case Opcode::PointerDefine:
            pointers[m.arg0] = m.arg1;
            notePeak();
            return true;
          case Opcode::PointerCheck:
          case Opcode::PointerCheckInvalidate: {
            const auto it = pointers.find(m.arg0);
            if (it == pointers.end() || it->second != m.arg1)
                return false;
            if (m.op == Opcode::PointerCheckInvalidate)
                pointers.erase(it);
            return true;
          }
          case Opcode::PointerInvalidate:
            pointers.erase(m.arg0);
            return true;
          case Opcode::PointerBlockCopy:
          case Opcode::PointerBlockMove: {
            const std::uint64_t size = pending;
            pending = 0;
            if (size == 0)
                return true;
            if (wraps(m.arg0, size) || wraps(m.arg1, size))
                return false;
            std::vector<std::pair<Addr, std::uint64_t>> moved;
            for (const auto &[addr, value] : pointers) {
                if (inRange(addr, m.arg0, size))
                    moved.emplace_back(m.arg1 + (addr - m.arg0), value);
            }
            for (auto it = pointers.begin(); it != pointers.end();) {
                const bool stale =
                    inRange(it->first, m.arg1, size) ||
                    (m.op == Opcode::PointerBlockMove &&
                     inRange(it->first, m.arg0, size));
                it = stale ? pointers.erase(it) : std::next(it);
            }
            for (const auto &[addr, value] : moved)
                pointers[addr] = value;
            notePeak();
            return true;
          }
          case Opcode::PointerBlockInvalidate:
            for (auto it = pointers.begin(); it != pointers.end();) {
                it = inRange(it->first, m.arg0, m.arg1) ? pointers.erase(it)
                                                       : std::next(it);
            }
            return true;
          default:
            return true;
        }
    }
};

TEST(PolicyDifferential, PointerIntegrityMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        PointerIntegrityContext ctx(1);
        PointerModel model;
        std::vector<Addr> probes;
        for (int step = 0; step < 3000; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                              << step);
            const Addr a = randomAddr(rng);
            const Addr b = randomAddr(rng);
            // Values from a tiny set so checks sometimes match.
            const std::uint64_t value = rng.nextBelow(3);
            std::vector<Message> messages;
            const std::uint64_t pick = rng.nextBelow(100);
            if (pick < 35) {
                messages.emplace_back(Opcode::PointerDefine, a, value);
            } else if (pick < 55) {
                messages.emplace_back(Opcode::PointerCheck, a, value);
            } else if (pick < 65) {
                messages.emplace_back(Opcode::PointerCheckInvalidate, a,
                                      value);
            } else if (pick < 72) {
                messages.emplace_back(Opcode::PointerInvalidate, a, 0);
            } else if (pick < 88) {
                messages.emplace_back(Opcode::BlockSize, randomSize(rng), 0);
                messages.emplace_back(rng.chance(0.5)
                                          ? Opcode::PointerBlockCopy
                                          : Opcode::PointerBlockMove,
                                      a, b);
            } else {
                messages.emplace_back(Opcode::PointerBlockInvalidate, a,
                                      randomSize(rng));
            }
            for (const Message &m : messages) {
                ASSERT_EQ(ctx.handleMessage(m).isOk(), model.handle(m))
                    << m.toString();
            }
            ASSERT_EQ(ctx.entryCount(), model.pointers.size());
            ASSERT_EQ(ctx.maxEntryCount(), model.peak);
            probes.assign({a, b, a + 1, b + 8});
            for (const auto &entry : model.pointers)
                probes.push_back(entry.first);
            for (Addr probe : probes) {
                std::uint64_t got = 0;
                const auto it = model.pointers.find(probe);
                ASSERT_EQ(ctx.lookup(probe, got), it != model.pointers.end());
                if (it != model.pointers.end()) {
                    ASSERT_EQ(got, it->second);
                }
            }
        }
    }
}

/** Memory-safety rules over a std::map, by full scans. Non-empty live
 *  allocations are disjoint; zero-size ones contain nothing but still
 *  block a later allocation that would cover their base. */
struct AllocationModel
{
    std::map<Addr, std::uint64_t> allocations;
    std::uint64_t pending = 0;

    bool
    containing(Addr address, Addr &base_out) const
    {
        for (const auto &[base, size] : allocations) {
            if (inRange(address, base, size)) {
                base_out = base;
                return true;
            }
        }
        return false;
    }

    bool
    overlaps(Addr base, std::uint64_t size) const
    {
        const Addr last = base + (size - 1);
        for (const auto &[a, s] : allocations) {
            if (s == 0 ? base < a && a <= last
                       : a <= last && base <= a + (s - 1))
                return true;
        }
        return false;
    }

    bool
    place(Addr base, std::uint64_t size)
    {
        if (size != 0 && (wraps(base, size) || overlaps(base, size)))
            return false;
        allocations[base] = size;
        return true;
    }

    bool
    handle(const Message &m)
    {
        switch (m.op) {
          case Opcode::BlockSize:
            pending = m.arg0;
            return true;
          case Opcode::AllocCreate:
            return place(m.arg0, m.arg1);
          case Opcode::AllocCheck: {
            Addr base;
            return containing(m.arg0, base);
          }
          case Opcode::AllocCheckBase: {
            Addr b1, b2;
            return containing(m.arg0, b1) && containing(m.arg1, b2) &&
                   b1 == b2;
          }
          case Opcode::AllocExtend: {
            const std::uint64_t size = pending;
            pending = 0;
            return allocations.erase(m.arg0) > 0 && place(m.arg1, size);
          }
          case Opcode::AllocDestroy:
            return allocations.erase(m.arg0) > 0;
          case Opcode::AllocDestroyAll: {
            std::size_t erased = 0;
            for (auto it = allocations.begin(); it != allocations.end();) {
                if (inRange(it->first, m.arg0, m.arg1)) {
                    it = allocations.erase(it);
                    ++erased;
                } else {
                    ++it;
                }
            }
            return erased > 0;
          }
          default:
            return true;
        }
    }
};

TEST(PolicyDifferential, MemorySafetyMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        MemorySafetyContext ctx(1);
        AllocationModel model;
        std::vector<Addr> probes;
        for (int step = 0; step < 3000; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                              << step);
            const Addr a = randomAddr(rng);
            const Addr b = randomAddr(rng);
            // Operate on live bases often, so destroys and extends hit.
            const Addr live =
                model.allocations.empty() || rng.chance(0.3)
                    ? a
                    : std::next(model.allocations.begin(),
                                static_cast<long>(rng.nextBelow(
                                    model.allocations.size())))
                          ->first;
            std::vector<Message> messages;
            const std::uint64_t pick = rng.nextBelow(100);
            if (pick < 30) {
                messages.emplace_back(Opcode::AllocCreate, a,
                                      randomSize(rng) % 64);
            } else if (pick < 35) {
                messages.emplace_back(Opcode::AllocCreate, a, randomSize(rng));
            } else if (pick < 55) {
                messages.emplace_back(Opcode::AllocCheck, a, 0);
            } else if (pick < 62) {
                messages.emplace_back(Opcode::AllocCheckBase, a, b);
            } else if (pick < 72) {
                messages.emplace_back(Opcode::BlockSize, randomSize(rng), 0);
                messages.emplace_back(Opcode::AllocExtend, live, b);
            } else if (pick < 88) {
                messages.emplace_back(Opcode::AllocDestroy, live, 0);
            } else {
                messages.emplace_back(Opcode::AllocDestroyAll, a,
                                      randomSize(rng));
            }
            for (const Message &m : messages) {
                ASSERT_EQ(ctx.handleMessage(m).isOk(), model.handle(m))
                    << m.toString();
            }
            ASSERT_EQ(ctx.entryCount(), model.allocations.size());
            probes.assign({a, b, a - 1, b + 1});
            for (const auto &[base, size] : model.allocations) {
                probes.push_back(base);
                probes.push_back(base + size - 1);
                probes.push_back(base + size);
            }
            for (Addr probe : probes) {
                Addr base;
                ASSERT_EQ(ctx.isLive(probe), model.containing(probe, base))
                    << std::hex << probe;
            }
        }
    }
}

/** Memory-tagging rules over a std::map: an address takes the tag of
 *  the region with the nearest base at or below it, when that region
 *  (which must not wrap) covers it. */
struct TagModel
{
    std::map<Addr, std::pair<std::uint64_t, int>> regions;

    int
    tagOf(Addr address) const
    {
        auto it = regions.upper_bound(address);
        if (it == regions.begin())
            return -1;
        --it;
        const auto [size, tag] = it->second;
        if (wraps(it->first, size) || !inRange(address, it->first, size))
            return -1;
        return tag;
    }

    bool
    handle(const Message &m)
    {
        switch (m.op) {
          case Opcode::TagSet: {
            const std::uint64_t size = m.arg1 >> 8;
            if (size == 0)
                regions.erase(m.arg0);
            else
                regions[m.arg0] = {size, static_cast<int>(m.arg1 & 0xFF)};
            return true;
          }
          case Opcode::TagCheck: {
            const int tag = tagOf(m.arg0);
            return tag >= 0 && tag == static_cast<int>(m.arg1 & 0xFF);
          }
          default:
            return true;
        }
    }
};

TEST(PolicyDifferential, MemoryTaggingMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        MemoryTaggingContext ctx(1);
        TagModel model;
        std::vector<Addr> probes;
        for (int step = 0; step < 3000; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                              << step);
            const Addr a = randomAddr(rng);
            const std::uint64_t tag = rng.nextBelow(4);
            Message m;
            if (rng.chance(0.4)) {
                // Extents are 56-bit; the top window makes them wrap.
                const std::uint64_t size = randomSize(rng) & 0x00FFFFFFFFFFFFFF;
                m = Message(Opcode::TagSet, a, (size << 8) | tag);
            } else {
                m = Message(Opcode::TagCheck, a, tag);
            }
            ASSERT_EQ(ctx.handleMessage(m).isOk(), model.handle(m))
                << m.toString();
            ASSERT_EQ(ctx.entryCount(), model.regions.size());
            // The table only grows between size-0 retags, so probe the
            // edges of a sample of regions rather than of all of them.
            probes.assign({a, a + 1, a - 1});
            for (int i = 0; i < 16 && !model.regions.empty(); ++i) {
                const auto &[base, region] = *std::next(
                    model.regions.begin(),
                    static_cast<long>(rng.nextBelow(model.regions.size())));
                probes.push_back(base);
                probes.push_back(base + region.first - 1);
                probes.push_back(base + region.first);
            }
            for (Addr probe : probes) {
                ASSERT_EQ(ctx.tagOf(probe), model.tagOf(probe))
                    << std::hex << probe;
            }
        }
    }
}

/**
 * Drive Context and Model with one seeded stream of next(rng) messages
 * and compare them after every message with model.expectMatches(). At
 * the midpoint the context is cloned for a child: the clone takes over
 * the stream (its model told so by model.cloned()), and the parent,
 * which sees no more messages, must keep matching a copy of the model
 * taken at the clone.
 */
template <typename Context, typename Model, typename Next>
void
runContextDifferential(Next &&next)
{
    constexpr int kSteps = 3000;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        std::unique_ptr<PolicyContext> active = std::make_unique<Context>(1);
        Model model;
        std::unique_ptr<PolicyContext> parent;
        Model parent_model;
        for (int step = 0; step < kSteps; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                              << step);
            if (step == kSteps / 2) {
                parent = std::move(active);
                parent_model = model;
                active = parent->cloneForChild(2);
                model.cloned();
            }
            const Message m = next(rng);
            ASSERT_EQ(active->handleMessage(m).isOk(), model.handle(m))
                << m.toString();
            ASSERT_NO_FATAL_FAILURE(
                model.expectMatches(static_cast<const Context &>(*active), m));
            // The parent cannot change, so a sparser check suffices.
            if (parent && (step % 64 == 0 || step == kSteps - 1)) {
                ASSERT_NO_FATAL_FAILURE(parent_model.expectMatches(
                    static_cast<const Context &>(*parent), m));
            }
        }
    }
}

/** FNV-1a over the (key, value) pairs in key order: the recipe of
 *  IfcContext::tableFingerprint(), over the model's table. */
std::uint64_t
fingerprintOf(const std::map<std::uint64_t, std::uint64_t> &table)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (i * 8)) & 0xFF;
            hash *= 0x100000001b3ull;
        }
    };
    for (const auto &[key, value] : table) {
        mix(key);
        mix(value);
    }
    return hash;
}

/** Addresses worth probing after message m: its operands, a neighbour
 *  of each, and every key the model holds. With entryCount() equal,
 *  matching on every model key means the two tables are identical. */
std::vector<Addr>
probesAfter(const Message &m, const std::map<std::uint64_t, std::uint64_t> &table)
{
    std::vector<Addr> probes{m.arg0, m.arg1, m.arg0 + 8, m.arg1 + 8};
    for (const auto &entry : table)
        probes.push_back(entry.first);
    return probes;
}

/** IFC label rules over a std::map: PUBLIC (0) is stored as no entry,
 *  a join ORs the source's label into the destination, and a check
 *  fails when the flowing label meets the forbidden set. */
struct LabelModel
{
    std::map<Addr, std::uint64_t> labels;
    std::uint64_t violations = 0;

    /** A child inherits the labels but counts its own violations. */
    void cloned() { violations = 0; }

    std::uint64_t
    labelOf(Addr address) const
    {
        const auto it = labels.find(address);
        return it == labels.end() ? label::kPublic : it->second;
    }

    bool
    handle(const Message &m)
    {
        switch (m.op) {
          case Opcode::LabelDef:
            if (m.arg1 == label::kPublic)
                labels.erase(m.arg0);
            else
                labels[m.arg0] = m.arg1;
            return true;
          case Opcode::LabelJoin:
            if (labelOf(m.arg0) != label::kPublic)
                labels[m.arg1] |= labelOf(m.arg0);
            return true;
          case Opcode::LabelCheck:
            if ((labelOf(m.arg0) & m.arg1) == 0)
                return true;
            ++violations;
            return false;
          default:
            return true;
        }
    }

    void
    expectMatches(const IfcContext &ctx, const Message &m) const
    {
        ASSERT_EQ(ctx.entryCount(), labels.size());
        ASSERT_EQ(ctx.violationCount(), violations);
        ASSERT_EQ(ctx.tableFingerprint(), fingerprintOf(labels));
        for (Addr probe : probesAfter(m, labels))
            ASSERT_EQ(ctx.labelOf(probe), labelOf(probe)) << std::hex << probe;
    }
};

TEST(PolicyDifferential, IfcMatchesReferenceModel)
{
    runContextDifferential<IfcContext, LabelModel>([](Rng &rng) {
        const Addr a = randomAddr(rng);
        const Addr b = randomAddr(rng);
        // Labels and forbidden sets from the low facets, so checks hit
        // and a quarter of the definitions declassify to PUBLIC.
        const std::uint64_t facets = rng.nextBelow(4);
        const std::uint64_t pick = rng.nextBelow(100);
        if (pick < 35)
            return Message(Opcode::LabelDef, a, facets);
        if (pick < 65)
            return Message(Opcode::LabelJoin, a, b);
        if (pick < 95)
            return Message(Opcode::LabelCheck, a, facets);
        return Message(Opcode::PointerDefine, a, b); // another policy's
    });
}

/** DFI rules over a std::map: a write records its writer id clamped to
 *  the 64 a read's allowed mask can name, and a read passes when the
 *  last writer (0 for unwritten memory) is in its mask. */
struct WriterModel
{
    std::map<Addr, std::uint64_t> writers;
    std::uint64_t violations = 0;

    /** A child inherits the writers but counts its own violations. */
    void cloned() { violations = 0; }

    std::uint64_t
    lastWriter(Addr address) const
    {
        const auto it = writers.find(address);
        return it == writers.end() ? DataFlowContext::kInitialWriter
                                   : it->second;
    }

    bool
    handle(const Message &m)
    {
        switch (m.op) {
          case Opcode::DfiWrite:
            writers[m.arg0] = m.arg1 % 64;
            return true;
          case Opcode::DfiRead:
            if ((m.arg1 >> lastWriter(m.arg0)) & 1)
                return true;
            ++violations;
            return false;
          default:
            return true;
        }
    }

    void
    expectMatches(const DataFlowContext &ctx, const Message &m) const
    {
        ASSERT_EQ(ctx.entryCount(), writers.size());
        ASSERT_EQ(ctx.violationCount(), violations);
        for (Addr probe : probesAfter(m, writers)) {
            ASSERT_EQ(ctx.lastWriter(probe), lastWriter(probe))
                << std::hex << probe;
        }
    }
};

TEST(PolicyDifferential, DataFlowMatchesReferenceModel)
{
    runContextDifferential<DataFlowContext, WriterModel>([](Rng &rng) {
        const Addr a = randomAddr(rng);
        const std::uint64_t pick = rng.nextBelow(100);
        if (pick < 45) {
            // Mostly dense small ids; sometimes one past 63 (or any
            // 64-bit id), which the clamp must fold.
            const std::uint64_t writer =
                rng.chance(0.8) ? rng.nextBelow(6)
                                : (rng.chance(0.5) ? 64 + rng.nextBelow(6)
                                                   : rng.next());
            return Message(Opcode::DfiWrite, a, writer);
        }
        if (pick < 95) {
            const std::uint64_t allowed =
                rng.chance(0.7) ? rng.nextBelow(64) : rng.next();
            return Message(Opcode::DfiRead, a, allowed);
        }
        return Message(Opcode::LabelDef, a, 1); // another policy's
    });
}

/** Event-count rules over a std::map: every EVENT-COUNT adds its delta
 *  (mod 2^64), and the first one for an id creates its counter even
 *  when the delta is 0. */
struct CounterModel
{
    std::map<std::uint64_t, std::uint64_t> counters;

    /** A child inherits every counter. */
    void cloned() {}

    std::uint64_t
    counter(std::uint64_t id) const
    {
        const auto it = counters.find(id);
        return it == counters.end() ? 0 : it->second;
    }

    bool
    handle(const Message &m)
    {
        if (m.op == Opcode::EventCount)
            counters[m.arg0] += m.arg1;
        return true;
    }

    void
    expectMatches(const EventCountContext &ctx, const Message &m) const
    {
        ASSERT_EQ(ctx.entryCount(), counters.size());
        for (std::uint64_t probe : probesAfter(m, counters))
            ASSERT_EQ(ctx.counter(probe), counter(probe)) << std::hex << probe;
    }
};

TEST(PolicyDifferential, EventCountMatchesReferenceModel)
{
    runContextDifferential<EventCountContext, CounterModel>([](Rng &rng) {
        const std::uint64_t id = randomAddr(rng);
        if (rng.nextBelow(100) < 90) {
            const std::uint64_t delta =
                rng.chance(0.9) ? rng.nextBelow(4) : rng.next();
            return Message(Opcode::EventCount, id, delta);
        }
        return Message(Opcode::Heartbeat, id, 0); // another policy's
    });
}

} // namespace
} // namespace hq
