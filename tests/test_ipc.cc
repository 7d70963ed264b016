/**
 * @file
 * Unit tests for src/ipc: message format, SPSC ring, every channel kind,
 * and the integrity property that distinguishes AppendWrite from raw
 * shared memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "ipc/channel.h"
#include "ipc/message.h"
#include "ipc/posix_channels.h"
#include "ipc/shm_channel.h"
#include "ipc/spsc_ring.h"

namespace hq {
namespace {

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

bool
popOne(SpscRing &ring, Message &out)
{
    return popUpTo(ring, &out, 1) == 1;
}

TEST(Message, WireFormatIs32Bytes)
{
    EXPECT_EQ(sizeof(Message), 32u);
}

TEST(Message, ConstructorFillsFields)
{
    Message m(Opcode::PointerDefine, 0x1000, 0x2000);
    EXPECT_EQ(m.op, Opcode::PointerDefine);
    EXPECT_EQ(m.arg0, 0x1000u);
    EXPECT_EQ(m.arg1, 0x2000u);
    EXPECT_EQ(m.pid, 0u);
    EXPECT_EQ(m.seq, 0u);
}

TEST(Message, AllOpcodesHaveNames)
{
    for (std::uint32_t op = 0;
         op < static_cast<std::uint32_t>(Opcode::NumOpcodes); ++op) {
        EXPECT_STRNE(opcodeName(static_cast<Opcode>(op)), "UNKNOWN")
            << "opcode " << op;
    }
}

TEST(Message, ToStringContainsOpcodeName)
{
    Message m(Opcode::PointerCheck, 0xdead, 0xbeef);
    const std::string s = m.toString();
    EXPECT_NE(s.find("POINTER-CHECK"), std::string::npos);
}

TEST(SpscRing, CapacityRoundsUpToPow2)
{
    SpscRing ring(1000);
    EXPECT_EQ(ring.capacity(), 1024u);
    SpscRing tiny(0);
    EXPECT_EQ(tiny.capacity(), 1u);
}

TEST(SpscRing, PushPopFifoOrder)
{
    SpscRing ring(8);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_TRUE(ring.tryPush(Message(Opcode::EventCount, i)));
    EXPECT_EQ(ring.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) {
        Message out;
        ASSERT_TRUE(popOne(ring, out));
        EXPECT_EQ(out.arg0, i);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PushFailsWhenFull)
{
    SpscRing ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(Message(Opcode::EventCount, i)));
    EXPECT_FALSE(ring.tryPush(Message(Opcode::EventCount, 99)));
    Message out;
    EXPECT_TRUE(popOne(ring, out));
    EXPECT_TRUE(ring.tryPush(Message(Opcode::EventCount, 99)));
}

TEST(SpscRing, PopFailsWhenEmpty)
{
    SpscRing ring(4);
    Message out;
    EXPECT_FALSE(popOne(ring, out));
}

TEST(SpscRing, WrapAroundPreservesOrder)
{
    SpscRing ring(4);
    Message out;
    for (std::uint64_t round = 0; round < 100; ++round) {
        ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, round)));
        ASSERT_TRUE(popOne(ring, out));
        EXPECT_EQ(out.arg0, round);
    }
}

TEST(SpscRing, ConcurrentProducerConsumer)
{
    SpscRing ring(256);
    constexpr std::uint64_t kCount = 200000;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            while (!ring.tryPush(Message(Opcode::EventCount, i)))
                std::this_thread::yield();
        }
    });

    std::uint64_t expected = 0;
    Message out;
    while (expected < kCount) {
        if (popOne(ring, out)) {
            ASSERT_EQ(out.arg0, expected);
            ++expected;
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, BatchPushPopRoundTrip)
{
    SpscRing ring(16);
    Message in[10];
    for (std::uint64_t i = 0; i < 10; ++i)
        in[i] = Message(Opcode::EventCount, i, i * 3);
    EXPECT_TRUE(ring.tryPushAll(in, 10));
    EXPECT_EQ(ring.size(), 10u);

    Message out[16];
    EXPECT_EQ(popUpTo(ring, out, 16), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(out[i].arg0, i);
        EXPECT_EQ(out[i].arg1, i * 3);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, BatchZeroAndEmptyEdges)
{
    SpscRing ring(8);
    Message m;
    EXPECT_TRUE(ring.tryPushAll(&m, 0)); // nothing to publish
    EXPECT_TRUE(ring.empty());
    RecvSpan span;
    EXPECT_EQ(ring.peekSpan(span).kind, PeekResult::Empty);
    EXPECT_EQ(span.total(), 0u);
    EXPECT_FALSE(ring.tryPushAll(&m, 9)); // larger than the ring
}

TEST(SpscRing, BatchOpsWrapAroundPreserveOrder)
{
    SpscRing ring(8);
    Message in[5], out[8];
    std::uint64_t next = 0;
    // Offset the cursors so every batch straddles the wrap point at
    // least once over the rounds.
    for (std::uint64_t round = 0; round < 100; ++round) {
        for (auto &message : in)
            message = Message(Opcode::EventCount, next++);
        ASSERT_TRUE(ring.tryPushAll(in, 5));
        ASSERT_EQ(popUpTo(ring, out, 8), 5u);
        for (std::uint64_t i = 0; i < 5; ++i)
            ASSERT_EQ(out[i].arg0, next - 5 + i);
    }
}

TEST(SpscRing, BatchInteroperatesWithSingleOps)
{
    SpscRing ring(8);
    Message in[3], out[8];
    for (std::uint64_t i = 0; i < 3; ++i)
        in[i] = Message(Opcode::EventCount, i);
    ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, 99)));
    ASSERT_TRUE(ring.tryPushAll(in, 3));
    Message single;
    ASSERT_TRUE(popOne(ring, single));
    EXPECT_EQ(single.arg0, 99u);
    ASSERT_EQ(popUpTo(ring, out, 8), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(out[i].arg0, i);
}

TEST(SpscRing, ConcurrentBatchProducerConsumerNoLossNoReorder)
{
    SpscRing ring(256);
    constexpr std::uint64_t kCount = 400000;
    constexpr std::size_t kBatch = 32;

    std::thread producer([&] {
        Message in[kBatch];
        std::uint64_t sent = 0;
        while (sent < kCount) {
            const std::size_t want =
                kBatch < kCount - sent
                    ? kBatch
                    : static_cast<std::size_t>(kCount - sent);
            for (std::size_t i = 0; i < want; ++i)
                in[i] = Message(Opcode::EventCount, sent + i);
            while (!ring.tryPushAll(in, want))
                std::this_thread::yield();
            sent += want;
        }
    });

    Message out[kBatch];
    std::uint64_t expected = 0;
    while (expected < kCount) {
        const std::size_t n = popUpTo(ring, out, kBatch);
        if (n == 0) {
            std::this_thread::yield();
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i].arg0, expected);
            ++expected;
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, ConcurrentMixedSingleAndBatchStress)
{
    // Batched producer against a single-message consumer: the cached
    // cursors on either side must never let a message be lost, repeated,
    // or reordered regardless of which API moved it.
    SpscRing ring(64);
    constexpr std::uint64_t kCount = 200000;

    std::thread producer([&] {
        Message in[16];
        std::uint64_t sent = 0;
        while (sent < kCount) {
            const std::size_t want =
                16 < kCount - sent
                    ? std::size_t{16}
                    : static_cast<std::size_t>(kCount - sent);
            for (std::size_t i = 0; i < want; ++i)
                in[i] = Message(Opcode::EventCount, sent + i);
            while (!ring.tryPushAll(in, want))
                std::this_thread::yield();
            sent += want;
        }
    });

    Message out;
    std::uint64_t expected = 0;
    while (expected < kCount) {
        if (popOne(ring, out)) {
            ASSERT_EQ(out.arg0, expected);
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, OverwritePendingModelsShmCorruption)
{
    SpscRing ring(8);
    ring.tryPush(Message(Opcode::PointerDefine, 1, 2));
    ring.tryPush(Message(Opcode::PointerCheck, 1, 2));
    EXPECT_TRUE(ring.overwritePending(0, Message(Opcode::PointerDefine,
                                                 1, 0xbad)));
    Message out;
    ASSERT_TRUE(popOne(ring, out));
    EXPECT_EQ(out.arg1, 0xbadu); // evidence erased
    EXPECT_FALSE(ring.overwritePending(5, Message()));
}

TEST(SpscRing, PlacedRingKeepsCursorsAndSlotsInCallerMemory)
{
    constexpr std::size_t kBytes =
        sizeof(SpscRing::SharedCursors) + 8 * sizeof(Message);
    ASSERT_EQ(SpscRing::regionBytes(8), kBytes);
    alignas(64) unsigned char region[kBytes];
    std::memset(region, 0xff, sizeof(region));
    SpscRing ring(region, 8);
    const auto *cursors =
        reinterpret_cast<const SpscRing::SharedCursors *>(region);
    EXPECT_EQ(cursors->tail.load(), 0u);

    Message in[3];
    for (std::uint64_t i = 0; i < 3; ++i)
        in[i] = Message(Opcode::EventCount, i);
    ASSERT_TRUE(ring.tryPushAll(in, 3));
    EXPECT_EQ(cursors->tail.load(), 3u);
    RecvSpan span;
    ASSERT_TRUE(ring.peekSpan(span));
    EXPECT_EQ(reinterpret_cast<const unsigned char *>(span.seg[0].data),
              region + sizeof(SpscRing::SharedCursors));
    ring.consume(3);
    EXPECT_EQ(cursors->head.load(), 3u);
}

TEST(SpscRing, PeekFailsClosedOnAnOutOfRangeTailAndStaysFailed)
{
    // The producer cursor is the one shared word the consumer reads;
    // whoever can write it is checked, never clamped.
    alignas(64) unsigned char region[sizeof(SpscRing::SharedCursors) +
                                     8 * sizeof(Message)];
    SpscRing ring(region, 8);
    auto *cursors = reinterpret_cast<SpscRing::SharedCursors *>(region);
    ASSERT_TRUE(ring.tryPush(Message(Opcode::EventCount, 1)));
    RecvSpan span;
    ASSERT_TRUE(ring.peekSpan(span));

    cursors->tail.store(9); // claims one slot more than a full ring
    EXPECT_EQ(ring.peekSpan(span).kind, PeekResult::BadCursor);
    EXPECT_EQ(span.total(), 0u);
    cursors->tail.store(1); // back in range: the ring stays failed
    EXPECT_EQ(ring.peekSpan(span).kind, PeekResult::BadCursor);

    // A tail moved back below what a peek already saw is a lie too.
    SpscRing placed(region, 8);
    ASSERT_TRUE(placed.tryPush(Message(Opcode::EventCount, 1)));
    ASSERT_TRUE(placed.tryPush(Message(Opcode::EventCount, 2)));
    ASSERT_TRUE(placed.peekSpan(span));
    cursors->tail.store(1);
    EXPECT_EQ(placed.peekSpan(span).kind, PeekResult::BadCursor);
}

// ---------------------------------------------------------------------
// Channel conformance: every kind delivers messages in order.
// ---------------------------------------------------------------------

class ChannelConformance : public ::testing::TestWithParam<ChannelKind>
{
};

TEST_P(ChannelConformance, RoundTripInOrder)
{
    if (GetParam() == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    auto channel = makeChannel(GetParam(), 1 << 10);
    ASSERT_NE(channel, nullptr);

    constexpr std::uint64_t kCount = 500;
    std::thread sender([&] {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            ASSERT_TRUE(
                channel->send(Message(Opcode::EventCount, i, i * 2))
                    .isOk());
        }
    });

    std::uint64_t received = 0;
    Message out;
    while (received < kCount) {
        if (channel->tryRecv(out)) {
            EXPECT_EQ(out.op, Opcode::EventCount);
            EXPECT_EQ(out.arg0, received);
            EXPECT_EQ(out.arg1, received * 2);
            ++received;
        } else {
            std::this_thread::yield();
        }
    }
    sender.join();
    EXPECT_EQ(channel->pending(), 0u);
}

TEST_P(ChannelConformance, BatchRecvDrainsInOrder)
{
    if (GetParam() == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    // Every channel kind must honor the bulk-recv contract, which the
    // base class builds on each transport's peek/consume pair.
    auto channel = makeChannel(GetParam(), 1 << 10);
    constexpr std::uint64_t kCount = 300;
    std::thread sender([&] {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            ASSERT_TRUE(
                channel->send(Message(Opcode::EventCount, i, i + 7))
                    .isOk());
        }
    });

    Message out[64];
    EXPECT_EQ(channel->tryRecvBatch(out, 0), 0u);
    std::uint64_t received = 0;
    while (received < kCount) {
        const std::size_t n = channel->tryRecvBatch(out, 64);
        ASSERT_LE(n, 64u);
        if (n == 0) {
            std::this_thread::yield();
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out[i].arg0, received);
            EXPECT_EQ(out[i].arg1, received + 7);
            ++received;
        }
    }
    sender.join();
    EXPECT_EQ(channel->tryRecvBatch(out, 64), 0u);
    EXPECT_EQ(channel->pending(), 0u);
}

TEST_P(ChannelConformance, PeekConsumeContract)
{
    if (GetParam() == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    // Every kind lends its queued slots in place: the ring-backed kinds
    // their ring, the POSIX kinds a local buffer of kernel reads.
    auto channel = makeChannel(GetParam(), 64);
    RecvSpan span;
    EXPECT_FALSE(channel->tryPeekSpan(span));
    EXPECT_EQ(span.total(), 0u);

    constexpr std::size_t kCount = 6; // within the POSIX queue depth
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_TRUE(
            channel->send(Message(Opcode::EventCount, i, i + 100)).isOk());
    }

    ASSERT_TRUE(channel->tryPeekSpan(span));
    ASSERT_EQ(span.total(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(span.slot(i).arg0, i);
    // Peeked but not consumed: still pending.
    EXPECT_EQ(channel->pending(), kCount);

    // A second peek without a consume gives the same view.
    RecvSpan again;
    ASSERT_TRUE(channel->tryPeekSpan(again));
    ASSERT_EQ(again.total(), kCount);
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(&again.slot(i), &span.slot(i));

    // A partial consume leaves the rest, in send order.
    channel->consumeSlots(2);
    EXPECT_EQ(channel->pending(), kCount - 2);
    ASSERT_TRUE(channel->tryPeekSpan(span));
    ASSERT_EQ(span.total(), kCount - 2);
    for (std::size_t i = 0; i < span.total(); ++i)
        EXPECT_EQ(span.slot(i).arg0, i + 2);

    // The copying receive drains through the same pair.
    Message out[8];
    ASSERT_EQ(channel->tryRecvBatch(out, 8), kCount - 2);
    for (std::size_t i = 0; i < kCount - 2; ++i) {
        EXPECT_EQ(out[i].arg0, i + 2);
        EXPECT_EQ(out[i].arg1, i + 102);
    }
    EXPECT_EQ(channel->pending(), 0u);
    EXPECT_FALSE(channel->tryPeekSpan(span));
}

TEST_P(ChannelConformance, PendingCountsEveryQueuedMessage)
{
    if (GetParam() == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    // Queue depth feeds the health watchdog; every kind must count all
    // queued messages, not just the next one.
    auto channel = makeChannel(GetParam(), 64);
    constexpr std::size_t kCount = 5;
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_TRUE(channel->send(Message(Opcode::EventCount, i)).isOk());
    EXPECT_EQ(channel->pending(), kCount);
}

TEST_P(ChannelConformance, TraitsAreDeclared)
{
    if (GetParam() == ChannelKind::PosixMq && !MqChannel::supported())
        GTEST_SKIP() << "POSIX message queues unavailable on this host";

    auto channel = makeChannel(GetParam(), 64);
    EXPECT_FALSE(channel->traits().name.empty());
    EXPECT_FALSE(channel->traits().primaryCost.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChannelConformance,
    ::testing::Values(ChannelKind::PosixMq, ChannelKind::Pipe,
                      ChannelKind::Socket, ChannelKind::SharedMemory,
                      ChannelKind::Fpga, ChannelKind::UarchModel,
                      ChannelKind::CrossProcess),
    [](const ::testing::TestParamInfo<ChannelKind> &info) {
        switch (info.param) {
          case ChannelKind::PosixMq: return "PosixMq";
          case ChannelKind::Pipe: return "Pipe";
          case ChannelKind::Socket: return "Socket";
          case ChannelKind::SharedMemory: return "SharedMemory";
          case ChannelKind::Fpga: return "Fpga";
          case ChannelKind::UarchModel: return "UarchModel";
          case ChannelKind::CrossProcess: return "CrossProcess";
        }
        return "Unknown";
    });

// ---------------------------------------------------------------------
// Table 2 trait properties: append-only vs. async validation.
// ---------------------------------------------------------------------

TEST(ChannelTraits, SharedMemoryIsNotAppendOnly)
{
    auto shm = makeChannel(ChannelKind::SharedMemory, 64);
    EXPECT_FALSE(shm->traits().appendOnly);
    EXPECT_TRUE(shm->traits().asyncValidation);
}

TEST(ChannelTraits, AppendWriteVariantsAreAppendOnlyAndAsync)
{
    for (auto kind : {ChannelKind::Fpga, ChannelKind::UarchModel}) {
        auto channel = makeChannel(kind, 64);
        EXPECT_TRUE(channel->traits().appendOnly)
            << channel->traits().name;
        EXPECT_TRUE(channel->traits().asyncValidation)
            << channel->traits().name;
        EXPECT_EQ(channel->traits().primaryCost, "Mem. Write");
    }
}

TEST(ChannelTraits, SyscallChannelsAreSynchronous)
{
    for (auto kind :
         {ChannelKind::Pipe, ChannelKind::Socket, ChannelKind::PosixMq}) {
        auto channel = makeChannel(kind, 8);
        EXPECT_FALSE(channel->traits().asyncValidation)
            << channel->traits().name;
        EXPECT_EQ(channel->traits().primaryCost, "System Call");
    }
}

TEST(ShmChannel, CorruptionOfSentMessageIsPossible)
{
    // The weakness that motivates AppendWrite: a compromised program can
    // erase evidence from a raw shared-memory transport before the
    // verifier reads it.
    ShmChannel shm(16);
    ASSERT_TRUE(shm.send(Message(Opcode::PointerCheck, 0x10, 0xbad)).isOk());
    EXPECT_TRUE(
        shm.corruptOldestPending(Message(Opcode::PointerCheck, 0x10, 0x0)));
    Message out;
    ASSERT_TRUE(shm.tryRecv(out));
    EXPECT_EQ(out.arg1, 0x0u); // the violation evidence is gone
}

TEST(ShmChannel, CorruptionFailsWhenNothingPending)
{
    ShmChannel shm(16);
    EXPECT_FALSE(shm.corruptOldestPending(Message()));
}

} // namespace
} // namespace hq
