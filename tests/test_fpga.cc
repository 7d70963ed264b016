/**
 * @file
 * Unit tests for the AppendWrite-FPGA device model: MMIO transaction
 * assembly, PID stamping from the kernel-managed register, sequence
 * counters, drop-on-full behavior, and the channel adapter.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "fpga/afu.h"
#include "fpga/fpga_channel.h"

namespace hq {
namespace {

/** Verifier-side read of the oldest host-buffer slot: peek, copy,
 *  consume. */
bool
hostReadOne(FpgaAfu &afu, Message &out)
{
    RecvSpan span;
    if (!afu.hostPeekSpan(span))
        return false;
    out = span.slot(0);
    afu.hostConsume(1);
    return true;
}

FpgaConfig
fastConfig(std::size_t capacity = 1 << 10)
{
    FpgaConfig config;
    config.host_buffer_messages = capacity;
    config.mmio_write_ns = 0; // functional-only for unit tests
    return config;
}

TEST(FpgaAfu, TwoWriteCommitAssemblesMessage)
{
    FpgaAfu afu(fastConfig());
    const auto commit =
        FpgaAfu::kRegCommitBase +
        8 * static_cast<std::uint32_t>(Opcode::PointerDefine);
    afu.mmioWrite(FpgaAfu::kRegArg0, 0x1000);
    afu.mmioWrite(commit, 0x2000);

    Message out;
    ASSERT_TRUE(hostReadOne(afu, out));
    EXPECT_EQ(out.op, Opcode::PointerDefine);
    EXPECT_EQ(out.arg0, 0x1000u);
    EXPECT_EQ(out.arg1, 0x2000u);
}

TEST(FpgaAfu, SingleWriteCommitForOneArgOps)
{
    FpgaAfu afu(fastConfig());
    const auto commit = FpgaAfu::kRegCommitBase +
                        8 * static_cast<std::uint32_t>(Opcode::Syscall);
    afu.mmioWrite(commit, 42);

    Message out;
    ASSERT_TRUE(hostReadOne(afu, out));
    EXPECT_EQ(out.op, Opcode::Syscall);
    EXPECT_EQ(out.arg0, 42u);
    EXPECT_EQ(out.arg1, 0u);
}

TEST(FpgaAfu, MmioWriteCountMatchesArity)
{
    EXPECT_EQ(FpgaAfu::mmioWritesFor(Opcode::Syscall), 1);
    EXPECT_EQ(FpgaAfu::mmioWritesFor(Opcode::PointerInvalidate), 1);
    EXPECT_EQ(FpgaAfu::mmioWritesFor(Opcode::PointerDefine), 2);
    EXPECT_EQ(FpgaAfu::mmioWritesFor(Opcode::PointerBlockCopy), 2);
}

TEST(FpgaAfu, PidStampedFromKernelRegister)
{
    FpgaAfu afu(fastConfig());
    afu.setPidRegister(777);
    const auto commit = FpgaAfu::kRegCommitBase +
                        8 * static_cast<std::uint32_t>(Opcode::Syscall);
    afu.mmioWrite(commit, 1);
    // Context switch: the kernel reloads the PID register.
    afu.setPidRegister(888);
    afu.mmioWrite(commit, 2);

    Message out;
    ASSERT_TRUE(hostReadOne(afu, out));
    EXPECT_EQ(out.pid, 777u);
    ASSERT_TRUE(hostReadOne(afu, out));
    EXPECT_EQ(out.pid, 888u);
}

TEST(FpgaAfu, SequenceCounterIsConsecutive)
{
    FpgaAfu afu(fastConfig());
    const auto commit = FpgaAfu::kRegCommitBase +
                        8 * static_cast<std::uint32_t>(Opcode::Heartbeat);
    for (int i = 0; i < 10; ++i)
        afu.mmioWrite(commit, i);

    Message out;
    for (std::uint32_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(hostReadOne(afu, out));
        EXPECT_EQ(out.seq, i);
    }
}

TEST(FpgaAfu, DropsOnFullHostBufferAndLeavesSeqGap)
{
    FpgaAfu afu(fastConfig(/*capacity=*/4));
    const auto commit = FpgaAfu::kRegCommitBase +
                        8 * static_cast<std::uint32_t>(Opcode::Heartbeat);
    for (int i = 0; i < 6; ++i)
        afu.mmioWrite(commit, i); // no back-pressure: 2 drops
    EXPECT_EQ(afu.droppedMessages(), 2u);

    // Drain, then send one more: its sequence number exposes the gap.
    Message out;
    while (hostReadOne(afu, out)) {
    }
    afu.mmioWrite(commit, 99);
    ASSERT_TRUE(hostReadOne(afu, out));
    EXPECT_EQ(out.seq, 6u); // seq 4 and 5 were consumed by drops
}

TEST(FpgaAfu, UnmappedOffsetsAreIgnored)
{
    FpgaAfu afu(fastConfig());
    afu.mmioWrite(0x7777, 0xdead);   // unmapped
    afu.mmioWrite(0x101, 0xdead);    // unaligned commit window write
    Message out;
    EXPECT_FALSE(hostReadOne(afu, out));
}

TEST(FpgaChannel, SendStampsPidAndSeq)
{
    FpgaChannel channel(fastConfig());
    channel.afu().setPidRegister(1234);
    ASSERT_TRUE(channel.send(Message(Opcode::PointerDefine, 8, 9)).isOk());
    ASSERT_TRUE(channel.send(Message(Opcode::PointerCheck, 8, 9)).isOk());

    Message out;
    ASSERT_TRUE(channel.tryRecv(out));
    EXPECT_EQ(out.op, Opcode::PointerDefine);
    EXPECT_EQ(out.pid, 1234u);
    EXPECT_EQ(out.seq, 0u);
    ASSERT_TRUE(channel.tryRecv(out));
    EXPECT_EQ(out.op, Opcode::PointerCheck);
    EXPECT_EQ(out.seq, 1u);
}

TEST(FpgaChannel, SenderCannotForgePid)
{
    FpgaChannel channel(fastConfig());
    channel.afu().setPidRegister(42);
    Message forged(Opcode::Syscall, 1);
    forged.pid = 9999; // attacker-controlled field is ignored
    ASSERT_TRUE(channel.send(forged).isOk());
    Message out;
    ASSERT_TRUE(channel.tryRecv(out));
    EXPECT_EQ(out.pid, 42u);
}

TEST(FpgaChannel, LatencyModelSlowsSends)
{
    FpgaConfig slow;
    slow.mmio_write_ns = 200;
    FpgaChannel channel(slow);

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::PointerDefine, i, i)).isOk());
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    // 100 two-write messages at 200 ns per MMIO write >= 40 us.
    EXPECT_GE(elapsed, 40000);
}

} // namespace
} // namespace hq
