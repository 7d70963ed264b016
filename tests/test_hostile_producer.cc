/**
 * @file
 * Hostile-producer tests for the cross-process channel.
 *
 * A monitored process that holds an XprocChannel mapping can write
 * every byte of it, not only append. These tests write what such a
 * child could: seeded and boundary values into the ring's producer and
 * consumer cursors, garbage into its slots, and an out-of-range tail
 * into the lag sidecar behind it. The receive side must never lend a
 * slot outside the slot array, must always return, and must kill the
 * pid with exactly one CorruptMsg whenever the producer cursor is out
 * of range; a poked consumer cursor must change nothing, since the
 * consumer never reads its own cursor back. ctest gives each case a
 * 30 s timeout, so an unbounded walk fails instead of stalling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "ipc/spsc_ring.h"
#include "ipc/xproc_ring.h"
#include "kernel/kernel.h"
#include "policy/pointer_integrity.h"
#include "telemetry/event_log.h"
#include "telemetry/lag.h"
#include "telemetry/telemetry.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

constexpr Pid kPid = 7;
constexpr std::size_t kCapacity = 64;
/// Clean messages sent and verified before the producer turns hostile:
/// more than a ring's worth, so both cursors have wrapped and every
/// small boundary value is a regression.
constexpr std::uint64_t kWarmUp = kCapacity + 3;

/** An XprocChannel that checks every span a peek lends. */
class WatchedChannel : public XprocChannel
{
  public:
    WatchedChannel() : XprocChannel(kCapacity) {}

    SpscRing::SharedCursors *
    cursors() const
    {
        return static_cast<SpscRing::SharedCursors *>(sharedMapping());
    }

    Message *
    slots() const
    {
        return reinterpret_cast<Message *>(cursors() + 1);
    }

    telemetry::LagSidecarRegion *
    lagRegion() const
    {
        const std::size_t offset =
            (SpscRing::regionBytes(kCapacity) + 63) & ~std::size_t{63};
        return reinterpret_cast<telemetry::LagSidecarRegion *>(
            static_cast<unsigned char *>(sharedMapping()) + offset);
    }

    PeekResult
    tryPeekSpan(RecvSpan &out) override
    {
        const PeekResult peeked = XprocChannel::tryPeekSpan(out);
        for (const RecvSpan::Segment &seg : out.seg) {
            if (seg.count == 0)
                continue;
            if (seg.data < slots() ||
                seg.data + seg.count > slots() + kCapacity)
                ++escapes;
        }
        ++peeks;
        return peeked;
    }

    int peeks = 0;
    int escapes = 0; //!< lent segments reaching outside the slot array
};

/** Kernel, verifier and a watched channel for one monitored pid. */
struct Rig
{
    KernelModule kernel;
    WatchedChannel channel;
    std::unique_ptr<Verifier> verifier;

    explicit Rig(WireFormat format)
    {
        Verifier::Config config;
        config.num_shards = 1;
        verifier = std::make_unique<Verifier>(
            kernel, std::make_shared<PointerIntegrityPolicy>(), config);
        kernel.enableProcess(kPid);
        EXPECT_TRUE(channel.negotiateFormat(format));
        verifier->attachChannel(&channel, kPid);
    }

    /** Send and verify count clean messages, one at a time (no
     *  consumer thread runs, so the ring must never fill). */
    void
    sendClean(std::uint64_t count)
    {
        const std::uint64_t before = stats().messages;
        for (std::uint64_t i = 0; i < count; ++i) {
            ASSERT_TRUE(channel
                            .send(Message(Opcode::PointerDefine,
                                          0x1000 + 8 * (before + i), i))
                            .isOk());
            verifier->poll();
        }
        ASSERT_EQ(stats().messages, before + count);
    }

    /** Both cursors, in slots, once the clean traffic is drained. */
    std::uint64_t
    cursor() const
    {
        return channel.cursors()->tail.load(std::memory_order_acquire);
    }

    VerifierProcessStats stats() const { return verifier->statsFor(kPid); }

    /** Drain twice: a sticky failure must not be recorded again. */
    void
    drain()
    {
        verifier->poll();
        verifier->poll();
    }
};

/** One hostile producer-cursor value, relative to the consumer's. */
struct TailCase
{
    const char *name;
    std::uint64_t (*value)(std::uint64_t head, Rng &rng);
};

const TailCase kTailCases[] = {
    {"zero", [](std::uint64_t, Rng &) -> std::uint64_t { return 0; }},
    {"capacity_minus_1",
     [](std::uint64_t, Rng &) -> std::uint64_t { return kCapacity - 1; }},
    {"capacity",
     [](std::uint64_t, Rng &) -> std::uint64_t { return kCapacity; }},
    {"capacity_plus_1",
     [](std::uint64_t, Rng &) -> std::uint64_t { return kCapacity + 1; }},
    {"two_pow_63",
     [](std::uint64_t, Rng &) -> std::uint64_t { return 1ULL << 63; }},
    {"all_ones", [](std::uint64_t, Rng &) -> std::uint64_t { return ~0ULL; }},
    {"regressed_by_one",
     [](std::uint64_t head, Rng &) -> std::uint64_t { return head - 1; }},
    {"one_past_a_full_ring",
     [](std::uint64_t head, Rng &) -> std::uint64_t {
         return head + kCapacity + 1;
     }},
    {"seeded_regression",
     [](std::uint64_t head, Rng &rng) -> std::uint64_t {
         return rng.nextBelow(head);
     }},
    {"seeded_overrun",
     [](std::uint64_t head, Rng &rng) -> std::uint64_t {
         return head + kCapacity + 1 +
                rng.nextBelow(~0ULL - head - kCapacity - 1);
     }},
};

std::string
formatName(WireFormat format)
{
    return format == WireFormat::V1 ? "v1" : "v2";
}

class HostileTail
    : public ::testing::TestWithParam<std::tuple<WireFormat, std::size_t>>
{
};

TEST_P(HostileTail, KillsWithOneCorruptMsgAndLendsNothing)
{
    const auto [format, index] = GetParam();
    telemetry::setEnabled(true);
    const std::string path = ::testing::TempDir() + "hostile_tail_" +
                             formatName(format) + "_" +
                             kTailCases[index].name + ".jsonl";
    ASSERT_TRUE(telemetry::EventLog::instance().open(path));

    Rig rig(format);
    rig.sendClean(kWarmUp);
    const std::uint64_t head = rig.cursor();
    Rng rng(0x5eed + index);
    // Garbage behind the cursor too: nothing of it may be interpreted.
    for (std::size_t i = 0; i < kCapacity; ++i)
        for (std::size_t b = 0; b < sizeof(Message); b += 8) {
            const std::uint64_t word = rng.next();
            std::memcpy(reinterpret_cast<unsigned char *>(
                            &rig.channel.slots()[i]) + b,
                        &word, 8);
        }
    rig.channel.cursors()->tail.store(
        kTailCases[index].value(head, rng), std::memory_order_release);

    rig.drain();
    telemetry::EventLog::instance().close();
    telemetry::setEnabled(false);

    EXPECT_EQ(rig.channel.escapes, 0);
    EXPECT_EQ(rig.stats().messages, kWarmUp) << "nothing past the lie";
    EXPECT_EQ(rig.stats().violations, 1u);
    EXPECT_TRUE(rig.kernel.isKilled(kPid));
    RecvSpan span;
    EXPECT_EQ(rig.channel.tryPeekSpan(span).kind, PeekResult::BadCursor);
    EXPECT_EQ(span.total(), 0u);

    std::ifstream in(path);
    const std::string log((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::size_t records = 0;
    for (std::size_t at = log.find("producer cursor out of range");
         at != std::string::npos;
         at = log.find("producer cursor out of range", at + 1))
        ++records;
    EXPECT_EQ(records, 1u) << log;
    EXPECT_NE(log.find("\"type\":\"corrupt_msg\""), std::string::npos)
        << log;
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    BoundaryAndSeeded, HostileTail,
    ::testing::Combine(::testing::Values(WireFormat::V1, WireFormat::V2),
                       ::testing::Range<std::size_t>(
                           0, std::size(kTailCases))),
    [](const auto &info) {
        return formatName(std::get<0>(info.param)) + "_" +
               kTailCases[std::get<1>(info.param)].name;
    });

class HostileHead : public ::testing::TestWithParam<WireFormat>
{
};

TEST_P(HostileHead, ConsumerNeverReadsItsCursorBack)
{
    // The consumer keeps its cursor privately and only publishes it,
    // so whatever the child writes there steers nothing it reads.
    const std::uint64_t values[] = {0,          kCapacity - 1, kCapacity,
                                    kCapacity + 1, 1ULL << 63,  ~0ULL};
    Rig rig(GetParam());
    rig.sendClean(kWarmUp);
    for (const std::uint64_t value : values) {
        rig.channel.cursors()->head.store(value, std::memory_order_release);
        RecvSpan span;
        EXPECT_EQ(rig.channel.tryPeekSpan(span).kind, PeekResult::Empty)
            << "head " << value;
        EXPECT_EQ(rig.verifier->poll(), 0u) << "head " << value;
    }
    // The producer side here is the same (trusted) object, so reset
    // the word before it needs back-pressure from it again.
    rig.channel.cursors()->head.store(rig.cursor(),
                                      std::memory_order_release);
    rig.sendClean(kCapacity / 2);
    EXPECT_EQ(rig.channel.escapes, 0);
    EXPECT_EQ(rig.stats().violations, 0u);
    EXPECT_FALSE(rig.kernel.isKilled(kPid));
}

INSTANTIATE_TEST_SUITE_P(BothFormats, HostileHead,
                         ::testing::Values(WireFormat::V1, WireFormat::V2),
                         [](const auto &info) {
                             return formatName(info.param);
                         });

class HostileSlots
    : public ::testing::TestWithParam<std::tuple<WireFormat, std::size_t>>
{
};

TEST_P(HostileSlots, GarbageInsideTheCursorsIsRejectedInPlace)
{
    // An in-range tail over garbage slots: the ring lends them (the
    // cursor is consistent), every lent slot lies in the slot array,
    // and the decode step rejects them without interpreting any.
    const auto [format, published] = GetParam();
    Rig rig(format);
    rig.sendClean(kWarmUp);
    const std::uint64_t head = rig.cursor();
    Rng rng(0xbad + published);
    for (std::size_t i = 0; i < published; ++i) {
        Message &slot = rig.channel.slots()[(head + i) % kCapacity];
        for (std::size_t b = 0; b < sizeof(Message); b += 8) {
            const std::uint64_t word = rng.next();
            std::memcpy(reinterpret_cast<unsigned char *>(&slot) + b,
                        &word, 8);
        }
    }
    rig.channel.cursors()->tail.store(head + published,
                                      std::memory_order_release);
    rig.drain();

    EXPECT_EQ(rig.channel.escapes, 0);
    EXPECT_GT(rig.channel.peeks, 0);
    EXPECT_EQ(rig.stats().messages, kWarmUp);
    EXPECT_TRUE(rig.kernel.isKilled(kPid));
    if (published == 1)
        EXPECT_EQ(rig.stats().violations, 1u);
    else
        EXPECT_GE(rig.stats().violations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    OneSlotAndFullRing, HostileSlots,
    ::testing::Combine(::testing::Values(WireFormat::V1, WireFormat::V2),
                       ::testing::Values<std::size_t>(1, kCapacity)),
    [](const auto &info) {
        return formatName(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "_slots";
    });

TEST(HostileLagSidecar, OutOfRangeTailYieldsNoSampleAndReturns)
{
    // Stale stamps and a tail 2^40 past the consumer: a walk of
    // head..tail would not return. Lag is telemetry, not a verdict, so
    // the message is still verified and nobody is killed.
    telemetry::setEnabled(true);
    Rig rig(WireFormat::V1);
    rig.sendClean(kWarmUp);
    telemetry::LagSidecarRegion *lag = rig.channel.lagRegion();
    ASSERT_EQ(lag->tail.load(), kWarmUp) << "sidecar layout moved";
    const std::uint64_t tails[] = {kWarmUp + (1ULL << 40), kWarmUp - 1,
                                   ~0ULL};
    for (const std::uint64_t tail : tails) {
        lag->tail.store(tail, std::memory_order_release);
        std::uint64_t enqueue_ns = 0;
        EXPECT_FALSE(
            rig.channel.lagSidecar()->consumeUpTo(kWarmUp, enqueue_ns))
            << "tail " << tail;
    }
    rig.sendClean(1);
    telemetry::setEnabled(false);
    EXPECT_EQ(rig.stats().violations, 0u);
    EXPECT_FALSE(rig.kernel.isKilled(kPid));
}

} // namespace
} // namespace hq
