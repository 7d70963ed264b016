/**
 * @file
 * Property-based tests: randomized operation sequences checked against
 * independent reference models, and structural invariants verified on
 * randomly generated inputs. Parameterized over seeds/capacities with
 * INSTANTIATE_TEST_SUITE_P.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cfi/design.h"
#include "common/ordered_map.h"
#include "common/rng.h"
#include "faultinject/fault.h"
#include "ipc/spsc_ring.h"
#include "ipc/xproc_ring.h"
#include "telemetry/lag.h"
#include "ir/builder.h"
#include "ir/cfg.h"
#include "ir/dominators.h"
#include "ir/verify.h"
#include "policy/memory_safety.h"
#include "policy/pointer_integrity.h"
#include "runtime/vm.h"
#include "workloads/spec_generator.h"
#include "workloads/spec_profiles.h"

namespace hq {
namespace {

using namespace ir;

/** Copying receive through the ring's one receive path: peek up to
 *  max_count slots, copy them out, consume them. */
std::size_t
popUpTo(SpscRing &ring, Message *out, std::size_t max_count)
{
    RecvSpan span;
    if (!ring.peekSpan(span))
        return 0;
    const std::size_t n = std::min(max_count, span.total());
    for (std::size_t i = 0; i < n; ++i)
        out[i] = span.slot(i);
    ring.consume(n);
    return n;
}

// ---------------------------------------------------------------------
// SPSC ring vs. deque reference model
// ---------------------------------------------------------------------

class RingModelProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(RingModelProperty, MatchesDequeReference)
{
    const auto [capacity, seed] = GetParam();
    SpscRing ring(capacity);
    std::deque<std::uint64_t> model;
    Rng rng(seed);

    for (int step = 0; step < 20000; ++step) {
        if (rng.chance(0.55)) {
            const std::uint64_t value = rng.next();
            const bool pushed =
                ring.tryPush(Message(Opcode::EventCount, value));
            const bool model_fits = model.size() < ring.capacity();
            ASSERT_EQ(pushed, model_fits) << "step " << step;
            if (pushed)
                model.push_back(value);
        } else {
            Message out;
            const bool popped = popUpTo(ring, &out, 1) == 1;
            ASSERT_EQ(popped, !model.empty()) << "step " << step;
            if (popped) {
                ASSERT_EQ(out.arg0, model.front());
                model.pop_front();
            }
        }
        ASSERT_EQ(ring.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitySeedSweep, RingModelProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 64, 1024),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// SPSC ring randomized *batch* transfers vs. deque reference
// ---------------------------------------------------------------------

class RingBatchProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(RingBatchProperty, BatchTransfersMatchDequeReference)
{
    const auto [capacity, seed] = GetParam();
    SpscRing ring(capacity);
    std::deque<std::uint64_t> model;
    Rng rng(seed);

    Message scratch[64];
    for (int step = 0; step < 8000; ++step) {
        if (rng.chance(0.55)) {
            const std::size_t count =
                static_cast<std::size_t>(rng.nextInRange(1, 64));
            for (std::size_t i = 0; i < count; ++i)
                scratch[i] = Message(Opcode::EventCount, rng.next());
            // All or nothing: a run either fits whole or is refused.
            const bool pushed = ring.tryPushAll(scratch, count);
            const std::size_t room = ring.capacity() - model.size();
            ASSERT_EQ(pushed, count <= room) << "step " << step;
            for (std::size_t i = 0; pushed && i < count; ++i)
                model.push_back(scratch[i].arg0);
        } else {
            const std::size_t count =
                static_cast<std::size_t>(rng.nextInRange(1, 64));
            const std::size_t popped = popUpTo(ring, scratch, count);
            ASSERT_EQ(popped, std::min(count, model.size()))
                << "step " << step;
            for (std::size_t i = 0; i < popped; ++i) {
                ASSERT_EQ(scratch[i].arg0, model.front());
                model.pop_front();
            }
        }
        ASSERT_EQ(ring.size(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitySeedSweep, RingBatchProperty,
    ::testing::Combine(::testing::Values<std::size_t>(8, 64, 256),
                       ::testing::Values(5, 6)));

// ---------------------------------------------------------------------
// Ring capacity edges, with the fault-injection path engaged
// ---------------------------------------------------------------------

TEST(RingCapacityEdges, ExactCapacityThenOverflowWithInjectionArmed)
{
    faultinject::disarmAll();
    // Armed but never firing (after_n beyond reach): every push runs the
    // pushWithFaults cold path, so the capacity math is exercised under
    // injection exactly as a chaos run would.
    faultinject::FaultPlan::instance().arm(
        faultinject::Site::RingStall, 1.0, /*after_n=*/1u << 30);
    ASSERT_TRUE(faultinject::armed());

    SpscRing ring(6); // rounds up to 8
    ASSERT_EQ(ring.capacity(), 8u);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, i)))
            << "push " << i << " of exactly capacity";
    EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 8)))
        << "capacity+1 must fail";
    EXPECT_EQ(ring.size(), 8u);

    // Drain one, push one: the ring must keep working at the wrap edge.
    Message out;
    for (int round = 0; round < 32; ++round) {
        ASSERT_EQ(popUpTo(ring, &out, 1), 1u);
        ASSERT_EQ(out.arg0, static_cast<std::uint64_t>(round));
        ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, 8 + round)));
        EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 999)));
    }
    faultinject::disarmAll();
}

TEST(RingCapacityEdges, SingleInjectedStallAtFullBoundaryRecovers)
{
    faultinject::disarmAll();
    SpscRing ring(4);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, i)));

    // One stall fires on the push into the last free slot: the caller
    // sees transient back-pressure, retries, and the slot is filled —
    // the stall must not corrupt the cursor math at the boundary.
    faultinject::FaultPlan::instance().arm(faultinject::Site::RingStall,
                                           1.0, /*after_n=*/0,
                                           /*max_fires=*/1);
    EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 3)));
    ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, 3)));
    EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 4)))
        << "ring is genuinely full now";
    EXPECT_EQ(ring.size(), 4u);

    Message out;
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(popUpTo(ring, &out, 1), 1u);
        EXPECT_EQ(out.arg0, static_cast<std::uint64_t>(i));
    }
    EXPECT_TRUE(ring.empty());
    faultinject::disarmAll();
}

TEST(RingCapacityEdges, XprocSendTimesOutFailClosedWhenFullPastCapacity)
{
    faultinject::disarmAll();
    XprocChannel channel(8);
    channel.setSendTimeout(std::chrono::milliseconds(50));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::EventCount, i)).isOk());
    // capacity+1 with no consumer: bounded wait, then explicit failure.
    const Status status = channel.send(Message(Opcode::EventCount, 8));
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::Unavailable);
    // The overflow send must not have scribbled over queued messages.
    Message out;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(channel.tryRecv(out));
        EXPECT_EQ(out.arg0, static_cast<std::uint64_t>(i));
    }
    EXPECT_FALSE(channel.tryRecv(out));
}

// ---------------------------------------------------------------------
// Cross-process ring producer/consumer soak (the TSan target)
// ---------------------------------------------------------------------

class XprocSoakProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(XprocSoakProperty, ConcurrentProducerConsumerPreservesOrder)
{
    // Threads stand in for the two processes (the mapping is
    // MAP_SHARED either way); TSan sees every cross-cursor access.
    constexpr std::uint64_t kMessages = 20000;
    XprocChannel channel(64); // small: constant wrap + full/empty races
    channel.setSendTimeout(std::chrono::seconds(10));

    Rng rng(GetParam());
    const std::uint64_t burst_mod = 1 + rng.nextBelow(7);
    std::atomic<bool> failed{false};

    std::thread producer([&channel, &failed] {
        for (std::uint64_t i = 0; i < kMessages; ++i) {
            if (!channel.send(Message(Opcode::EventCount, i)).isOk()) {
                failed.store(true);
                return;
            }
        }
    });

    std::uint64_t expected = 0;
    Message batch[32];
    while (expected < kMessages && !failed.load()) {
        const std::size_t max_count =
            1 + static_cast<std::size_t>(expected % burst_mod) % 32;
        const std::size_t n = channel.tryRecvBatch(batch, max_count);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(batch[i].arg0, expected)
                << "out-of-order or corrupted message";
            ++expected;
        }
        if (n == 0)
            std::this_thread::yield();
    }
    producer.join();
    ASSERT_FALSE(failed.load()) << "producer send failed";
    EXPECT_EQ(expected, kMessages);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, XprocSoakProperty,
                         ::testing::Values(71, 72, 73));

// ---------------------------------------------------------------------
// OrderedMap vs. std::map reference, multi-threaded
// ---------------------------------------------------------------------

class OrderedMapProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OrderedMapProperty, RandomizedChurnMatchesStdMapAcrossThreads)
{
    // N independent maps churned from N threads: catches any hidden
    // shared state in the implementation (TSan) while each thread
    // verifies against its own reference model. Small leaves make
    // splits, merges and leaf release happen constantly.
    constexpr int kThreads = 4;
    const int base_seed = GetParam();
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};

    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t, base_seed, &failures] {
            Rng rng(base_seed * 100 + t);
            OrderedMap<std::uint64_t, std::uint64_t, 8> map;
            std::map<std::uint64_t, std::uint64_t> model;
            for (int step = 0; step < 30000; ++step) {
                // 8-byte-aligned keys, the shape of policy addresses.
                const std::uint64_t key = 0x1000 + 8 * rng.nextBelow(512);
                const std::uint64_t dice = rng.nextBelow(100);
                if (dice < 40) {
                    const std::uint64_t value = rng.next();
                    const bool added = map.insertOrAssign(key, value);
                    if (added != (model.count(key) == 0)) {
                        ++failures;
                        return;
                    }
                    model[key] = value;
                } else if (dice < 70) {
                    const std::uint64_t *found = map.find(key);
                    const auto it = model.find(key);
                    const bool match =
                        (found == nullptr) == (it == model.end()) &&
                        (found == nullptr || *found == it->second);
                    if (!match) {
                        ++failures;
                        return;
                    }
                } else if (dice < 97) {
                    if (map.erase(key) != (model.erase(key) > 0)) {
                        ++failures;
                        return;
                    }
                } else {
                    const std::uint64_t last = key + 8 * rng.nextBelow(16);
                    const std::size_t erased = map.eraseRange(key, last);
                    const auto first_it = model.lower_bound(key);
                    const auto last_it = model.upper_bound(last);
                    if (erased != static_cast<std::size_t>(
                                      std::distance(first_it, last_it))) {
                        ++failures;
                        return;
                    }
                    model.erase(first_it, last_it);
                }
                if (map.size() != model.size()) {
                    ++failures;
                    return;
                }
            }
            std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
            map.forRange(0, ~std::uint64_t{0},
                         [&entries](std::uint64_t key, std::uint64_t value) {
                             entries.emplace_back(key, value);
                         });
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>
                expected(model.begin(), model.end());
            if (entries != expected)
                ++failures;
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, OrderedMapProperty,
                         ::testing::Values(3, 9));

TEST(OrderedMapConcurrency, ConcurrentReadersShareOneMapSafely)
{
    OrderedMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kEntries = 4096;
    for (std::uint64_t i = 0; i < kEntries; ++i)
        map.insertOrAssign(0x1000 + 8 * i, i * i);

    // Read-only sharing is part of the container's contract (tests read
    // policy tables while the verifier runs); TSan verifies no writes
    // hide in the point- or range-lookup paths.
    constexpr int kThreads = 4;
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
        readers.emplace_back([t, &map, &failures] {
            Rng rng(1000 + t);
            for (int step = 0; step < 50000; ++step) {
                const std::uint64_t i = rng.nextBelow(kEntries + 64);
                const Addr address = 0x1000 + 8 * i;
                const std::uint64_t *found = map.find(address);
                const bool expect_hit = i < kEntries;
                const auto below = map.floor(address);
                if ((found != nullptr) != expect_hit ||
                    (found != nullptr && *found != i * i) ||
                    !below.has_value() ||
                    below->key != 0x1000 + 8 * std::min(i, kEntries - 1)) {
                    ++failures;
                    return;
                }
            }
        });
    }
    for (auto &reader : readers)
        reader.join();
    EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------
// Lag sidecar: wrap-around and envelope matching under disturbance
// ---------------------------------------------------------------------

TEST(LagSidecarProperty, WrapAroundKeepsEnvelopeMatchingExact)
{
    // Capacity far below the message count: the envelope ring wraps
    // dozens of times and must keep matching by sequence, not position.
    telemetry::LagSidecar sidecar(8);
    std::uint64_t enqueue_ns = 0;
    for (std::uint64_t seq = 0; seq < 200; ++seq) {
        ASSERT_TRUE(sidecar.stamp(seq, seq * 1000 + 1));
        ASSERT_TRUE(sidecar.consumeUpTo(seq, enqueue_ns)) << "seq " << seq;
        EXPECT_EQ(enqueue_ns, seq * 1000 + 1);
    }
    EXPECT_EQ(sidecar.pending(), 0u);
}

TEST(LagSidecarProperty, StaleAndMissingEnvelopesDegradeSafely)
{
    telemetry::LagSidecar sidecar(8);
    // Stamp seqs 0..4, then ask for seq 6 (whose envelope was never
    // stamped, as if telemetry had been off for that send): the stale
    // envelopes are discarded and the lookup reports "no sample" —
    // never a wrong sample.
    for (std::uint64_t seq = 0; seq < 5; ++seq)
        ASSERT_TRUE(sidecar.stamp(seq, seq * 1000 + 1));
    std::uint64_t enqueue_ns = 0;
    EXPECT_FALSE(sidecar.consumeUpTo(6, enqueue_ns));
    EXPECT_EQ(sidecar.pending(), 0u) << "stale envelopes must be drained";

    // The stream then recovers: a fresh stamp for seq 7 matches.
    ASSERT_TRUE(sidecar.stamp(7, 7777));
    ASSERT_TRUE(sidecar.consumeUpTo(7, enqueue_ns));
    EXPECT_EQ(enqueue_ns, 7777u);

    // A full sidecar drops the newest stamp instead of blocking or
    // overwriting history.
    for (std::uint64_t seq = 100; seq < 100 + 8; ++seq)
        ASSERT_TRUE(sidecar.stamp(seq, seq));
    EXPECT_FALSE(sidecar.stamp(200, 200));
    EXPECT_EQ(sidecar.pending(), 8u);
}

TEST(LagSidecarProperty, CorruptedStreamRoundTripStaysConsistent)
{
    // A fault-injected channel can drop or duplicate *messages* while
    // the sidecar keeps stamping every send. Whatever the verifier asks
    // for, the sidecar must answer exactly-or-not-at-all.
    faultinject::disarmAll();
    telemetry::LagSidecar sidecar(16);
    Rng rng(42);
    std::uint64_t consumer_index = 0;
    std::uint64_t enqueue_ns = 0;
    for (std::uint64_t seq = 0; seq < 500; ++seq) {
        sidecar.stamp(seq, seq * 10 + 3);
        if (rng.chance(0.1))
            continue; // message dropped in flight: envelope goes stale
        consumer_index = seq;
        if (sidecar.consumeUpTo(consumer_index, enqueue_ns)) {
            EXPECT_EQ(enqueue_ns, consumer_index * 10 + 3)
                << "a matched envelope must never carry another's stamp";
        }
    }
    // Re-querying an already-consumed index must not resurrect data.
    EXPECT_FALSE(sidecar.consumeUpTo(consumer_index, enqueue_ns));
}

// ---------------------------------------------------------------------
// Pointer-integrity policy vs. reference map model
// ---------------------------------------------------------------------

class PointerPolicyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PointerPolicyProperty, MatchesReferenceShadowMap)
{
    Rng rng(GetParam());
    PointerIntegrityContext ctx(1);
    std::map<Addr, std::uint64_t> model;

    auto randAddr = [&] { return 0x1000 + 8 * rng.nextBelow(64); };

    for (int step = 0; step < 30000; ++step) {
        const std::uint64_t dice = rng.nextBelow(100);
        if (dice < 35) { // define
            const Addr p = randAddr();
            const std::uint64_t v = rng.nextBelow(16);
            ASSERT_TRUE(ctx.handleMessage(
                Message(Opcode::PointerDefine, p, v)));
            model[p] = v;
        } else if (dice < 70) { // check
            const Addr p = randAddr();
            const std::uint64_t v = rng.nextBelow(16);
            const bool expect_ok =
                model.count(p) > 0 && model[p] == v;
            const Status status =
                ctx.handleMessage(Message(Opcode::PointerCheck, p, v));
            ASSERT_EQ(status.isOk(), expect_ok) << "step " << step;
        } else if (dice < 80) { // invalidate
            const Addr p = randAddr();
            ctx.handleMessage(Message(Opcode::PointerInvalidate, p));
            model.erase(p);
        } else if (dice < 90) { // block invalidate
            const Addr base = randAddr();
            const std::uint64_t size = 8 * rng.nextInRange(1, 8);
            ctx.handleMessage(
                Message(Opcode::PointerBlockInvalidate, base, size));
            for (auto it = model.lower_bound(base);
                 it != model.end() && it->first < base + size;)
                it = model.erase(it);
        } else { // block copy
            const Addr src = randAddr();
            const Addr dst = randAddr();
            const std::uint64_t size = 8 * rng.nextInRange(1, 8);
            ctx.handleMessage(Message(Opcode::BlockSize, size));
            ctx.handleMessage(
                Message(Opcode::PointerBlockCopy, src, dst));
            std::map<Addr, std::uint64_t> moved;
            for (auto it = model.lower_bound(src);
                 it != model.end() && it->first < src + size; ++it)
                moved[dst + (it->first - src)] = it->second;
            for (auto it = model.lower_bound(dst);
                 it != model.end() && it->first < dst + size;)
                it = model.erase(it);
            for (const auto &[a, v] : moved)
                model[a] = v;
        }
        ASSERT_EQ(ctx.entryCount(), model.size()) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, PointerPolicyProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------
// Memory-safety policy vs. reference interval model
// ---------------------------------------------------------------------

class MemoryPolicyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MemoryPolicyProperty, MatchesReferenceIntervalMap)
{
    Rng rng(GetParam());
    MemorySafetyContext ctx(1);
    std::map<Addr, std::uint64_t> model; // base -> size

    auto overlaps = [&](Addr base, std::uint64_t size) {
        for (const auto &[b, s] : model)
            if (base < b + s && b < base + size)
                return true;
        return false;
    };
    auto containing = [&](Addr a) -> std::optional<Addr> {
        for (const auto &[b, s] : model)
            if (a >= b && a < b + s)
                return b;
        return std::nullopt;
    };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t dice = rng.nextBelow(100);
        if (dice < 35) { // create
            const Addr base = 0x1000 + 16 * rng.nextBelow(128);
            const std::uint64_t size = 16 * rng.nextInRange(1, 4);
            const bool expect_ok = !overlaps(base, size);
            const Status status = ctx.handleMessage(
                Message(Opcode::AllocCreate, base, size));
            ASSERT_EQ(status.isOk(), expect_ok) << "step " << step;
            if (expect_ok)
                model[base] = size;
        } else if (dice < 70) { // check
            const Addr a = 0x1000 + rng.nextBelow(16 * 140);
            const Status status =
                ctx.handleMessage(Message(Opcode::AllocCheck, a));
            ASSERT_EQ(status.isOk(), containing(a).has_value())
                << "step " << step;
        } else if (dice < 85) { // destroy
            const Addr base = 0x1000 + 16 * rng.nextBelow(128);
            const bool expect_ok = model.count(base) > 0;
            const Status status =
                ctx.handleMessage(Message(Opcode::AllocDestroy, base));
            ASSERT_EQ(status.isOk(), expect_ok) << "step " << step;
            model.erase(base);
        } else { // check-base
            const Addr a1 = 0x1000 + rng.nextBelow(16 * 140);
            const Addr a2 = 0x1000 + rng.nextBelow(16 * 140);
            const auto c1 = containing(a1);
            const auto c2 = containing(a2);
            const bool expect_ok = c1 && c2 && *c1 == *c2;
            const Status status = ctx.handleMessage(
                Message(Opcode::AllocCheckBase, a1, a2));
            ASSERT_EQ(status.isOk(), expect_ok) << "step " << step;
        }
        ASSERT_EQ(ctx.entryCount(), model.size());
    }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, MemoryPolicyProperty,
                         ::testing::Values(7, 17, 27));

// ---------------------------------------------------------------------
// Dominator-tree invariants on random CFGs
// ---------------------------------------------------------------------

/** Build a random function CFG with `blocks` blocks. */
Module
randomCfg(int seed, int num_blocks)
{
    Rng rng(seed);
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f", 1);
    for (int b = 1; b < num_blocks; ++b)
        builder.newBlock();
    for (int b = 0; b < num_blocks; ++b) {
        builder.setBlock(b);
        const std::uint64_t kind = rng.nextBelow(10);
        if (kind < 2 || b == num_blocks - 1) {
            builder.ret();
        } else if (kind < 6) {
            builder.br(
                static_cast<int>(rng.nextInRange(0, num_blocks - 1)));
        } else {
            builder.condBr(
                builder.param(0),
                static_cast<int>(rng.nextInRange(0, num_blocks - 1)),
                static_cast<int>(rng.nextInRange(0, num_blocks - 1)));
        }
    }
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

/** Reference dominance: a dominates b iff removing a unreaches b. */
bool
refDominates(const Cfg &cfg, int a, int b)
{
    if (a == b)
        return true;
    std::set<int> visited{a}; // treat a as a wall
    std::vector<int> work{0};
    if (a == 0)
        return cfg.reachable(b); // entry dominates everything reachable
    visited.insert(0);
    while (!work.empty()) {
        const int node = work.back();
        work.pop_back();
        if (node == b)
            return false;
        for (int succ : cfg.successors(node)) {
            if (!visited.count(succ)) {
                visited.insert(succ);
                work.push_back(succ);
            }
        }
    }
    return cfg.reachable(b);
}

class DominatorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DominatorProperty, MatchesReachabilityDefinition)
{
    const int num_blocks = 8;
    Module module = randomCfg(GetParam(), num_blocks);
    ASSERT_TRUE(verifyModule(module).isOk());
    const Cfg cfg(module.functions[0]);
    const DominatorTree dom(cfg);

    for (int a = 0; a < num_blocks; ++a) {
        for (int b = 0; b < num_blocks; ++b) {
            if (!cfg.reachable(a) || !cfg.reachable(b))
                continue;
            EXPECT_EQ(dom.dominates(a, b), refDominates(cfg, a, b))
                << "seed " << GetParam() << " a=" << a << " b=" << b;
        }
    }

    // idom is a dominator of its node and distinct from it.
    for (int b = 1; b < num_blocks; ++b) {
        if (!cfg.reachable(b))
            continue;
        const int idom = dom.idom(b);
        ASSERT_GE(idom, 0);
        EXPECT_NE(idom, b);
        EXPECT_TRUE(dom.dominates(idom, b));
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCfgs, DominatorProperty,
                         ::testing::Range(100, 140));

// ---------------------------------------------------------------------
// VM determinism and design-independence of output
// ---------------------------------------------------------------------

// The profile name is a std::string, not a const char *: gtest prints a
// pointer parameter by address, which would put a load-address-dependent
// value into the test's listed name.
class ChecksumProperty
    : public ::testing::TestWithParam<std::tuple<std::string, CfiDesign>>
{
};

TEST_P(ChecksumProperty, InstrumentationPreservesOutput)
{
    const auto [name, design] = GetParam();
    const SpecProfile &profile = specProfile(name);

    ir::Module baseline = buildSpecModule(profile, 0.02);
    VmConfig base_config;
    Vm base_vm(baseline, base_config, nullptr);
    const RunResult base = base_vm.run();
    ASSERT_EQ(base.exit, ExitKind::Ok);

    ir::Module instrumented = buildSpecModule(profile, 0.02);
    ASSERT_TRUE(instrumentModule(instrumented, design).isOk());
    VmConfig config = makeVmConfig(design);
    config.hq_messages = false; // run without a channel: pure semantics
    config.stop_on_inline_violation = false;
    Vm vm(instrumented, config, nullptr);
    const RunResult result = vm.run();
    ASSERT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.return_value, base.return_value);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndDesigns, ChecksumProperty,
    ::testing::Combine(
        ::testing::Values(std::string("bzip2"), std::string("mcf"),
                          std::string("astar"), std::string("leela_r"),
                          std::string("hmmer")),
        ::testing::Values(CfiDesign::Baseline, CfiDesign::HqSfeStk,
                          CfiDesign::HqRetPtr, CfiDesign::ClangCfi,
                          CfiDesign::Ccfi, CfiDesign::Cpi)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               designInfo(std::get<1>(info.param)).name.substr(0, 2) +
               std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

} // namespace
} // namespace hq
