/**
 * @file
 * Unit tests for the AppendWrite-µarch model: AMR register semantics,
 * fault-on-full, kernel reset, and the MODEL channel.
 */

#include <gtest/gtest.h>

#include <thread>

#include "uarch/amr.h"
#include "uarch/uarch_model_channel.h"

namespace hq {
namespace {

/** Reader-core read of the oldest slot: peek, copy, consume. */
bool
readOne(Amr &amr, Message &out)
{
    RecvSpan span;
    if (!amr.peek(span))
        return false;
    out = span.slot(0);
    amr.consume(1);
    return true;
}

TEST(Amr, AppendAddrStartsAtBase)
{
    Amr amr(16, /*virtual_base=*/0x1000);
    EXPECT_EQ(amr.appendAddr(), 0x1000u);
    EXPECT_EQ(amr.maxAppendAddr(), 0x1000u + 16 * sizeof(Message));
}

TEST(Amr, AppendWriteAutoIncrementsRegister)
{
    Amr amr(16, 0x1000);
    EXPECT_EQ(amr.appendWrite(Message(Opcode::EventCount, 1)),
              AppendResult::Ok);
    EXPECT_EQ(amr.appendAddr(), 0x1000u + sizeof(Message));
    EXPECT_EQ(amr.appendWrite(Message(Opcode::EventCount, 2)),
              AppendResult::Ok);
    EXPECT_EQ(amr.appendAddr(), 0x1000u + 2 * sizeof(Message));
}

TEST(Amr, FaultsWhenRegionExhausted)
{
    Amr amr(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(amr.appendWrite(Message(Opcode::EventCount, i)),
                  AppendResult::Ok);
    EXPECT_EQ(amr.appendWrite(Message(Opcode::EventCount, 4)),
              AppendResult::Full);
}

TEST(Amr, ResetRequiresDrainedRegion)
{
    Amr amr(4);
    amr.appendWrite(Message(Opcode::EventCount, 0));
    EXPECT_FALSE(amr.resetRegisters()); // message still pending
    Message out;
    ASSERT_TRUE(readOne(amr, out));
    EXPECT_TRUE(amr.resetRegisters());
}

TEST(Amr, ReadReturnsMessagesInOrder)
{
    Amr amr(8);
    for (std::uint64_t i = 0; i < 6; ++i)
        amr.appendWrite(Message(Opcode::PointerDefine, i, i + 100));
    Message out;
    for (std::uint64_t i = 0; i < 6; ++i) {
        ASSERT_TRUE(readOne(amr, out));
        EXPECT_EQ(out.arg0, i);
        EXPECT_EQ(out.arg1, i + 100);
    }
    EXPECT_FALSE(readOne(amr, out));
}

TEST(Amr, PendingCountsUnreadMessages)
{
    Amr amr(8);
    EXPECT_EQ(amr.pending(), 0u);
    amr.appendWrite(Message(Opcode::EventCount, 1));
    amr.appendWrite(Message(Opcode::EventCount, 2));
    EXPECT_EQ(amr.pending(), 2u);
    Message out;
    readOne(amr, out);
    EXPECT_EQ(amr.pending(), 1u);
}

TEST(UarchModelChannel, SendBlocksUntilDrainedWhenFull)
{
    UarchModelChannel channel(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(channel.send(Message(Opcode::EventCount, i)).isOk());

    // The 5th send must wait for the verifier; drain from another thread.
    std::thread reader([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        Message out;
        while (!channel.tryRecv(out))
            std::this_thread::yield();
    });
    EXPECT_TRUE(channel.send(Message(Opcode::EventCount, 4)).isOk());
    reader.join();
    EXPECT_EQ(channel.pending(), 4u);
}

TEST(UarchModelChannel, HighVolumeStream)
{
    UarchModelChannel channel(64);
    constexpr std::uint64_t kCount = 100000;
    std::thread sender([&] {
        for (std::uint64_t i = 0; i < kCount; ++i)
            ASSERT_TRUE(
                channel.send(Message(Opcode::EventCount, i)).isOk());
    });
    std::uint64_t received = 0;
    Message out;
    while (received < kCount) {
        if (channel.tryRecv(out)) {
            ASSERT_EQ(out.arg0, received);
            ++received;
        }
    }
    sender.join();
}

} // namespace
} // namespace hq
