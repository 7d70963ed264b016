/**
 * @file
 * Tests of the extension features: read-only syscall synchronization
 * elision (the §5.3.3 future-work item), the real cross-process
 * shared-memory channel, multi-writer per-core AMRs with message
 * ordering, and bidirectional core-to-core communication (§4.3).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "cfi/design.h"
#include "compiler/passes.h"
#include "ipc/shm_channel.h"
#include "ipc/xproc_ring.h"
#include "ir/builder.h"
#include "policy/pointer_integrity.h"
#include "runtime/vm.h"
#include "uarch/amr.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

/** Reader-core read of the oldest AMR slot: peek, copy, consume. */
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

using namespace ir;

// ---------------------------------------------------------------------
// Read-only syscall elision
// ---------------------------------------------------------------------

TEST(ReadonlyElision, KernelClassifiesSyscalls)
{
    EXPECT_TRUE(KernelModule::isReadOnlySyscall(39));   // getpid
    EXPECT_TRUE(KernelModule::isReadOnlySyscall(228));  // clock_gettime
    EXPECT_FALSE(KernelModule::isReadOnlySyscall(1));   // write
    EXPECT_FALSE(KernelModule::isReadOnlySyscall(59));  // execve
}

TEST(ReadonlyElision, KernelSkipsGatingWhenEnabled)
{
    KernelModule::Config config;
    config.epoch = std::chrono::milliseconds(30);
    config.elide_readonly_syscalls = true;
    KernelModule kernel(config);
    ASSERT_TRUE(kernel.enableProcess(1).isOk());

    // Read-only syscall: no pause even without any sync message.
    EXPECT_TRUE(kernel.syscallEnter(1, 228).isOk());
    // Side-effecting syscall: still gated (epoch expires).
    EXPECT_FALSE(kernel.syscallEnter(1, 1).isOk());
}

TEST(ReadonlyElision, PassSkipsReadonlyMessages)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.syscall(228); // clock_gettime: elidable
    builder.syscall(1);   // write: needs sync
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    PassManager pm;
    pm.add(std::make_unique<SyscallSyncPass>(/*elide_readonly=*/true));
    ASSERT_TRUE(pm.run(module).isOk());
    EXPECT_EQ(pm.stats().get("sync.messages"), 1);
    EXPECT_EQ(pm.stats().get("sync.readonly_elided"), 1);
}

TEST(ReadonlyElision, EndToEndMixedSyscalls)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    for (int i = 0; i < 5; ++i) {
        builder.syscall(228);
        builder.syscall(1);
    }
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 0;

    // Instrument with elision, run against an eliding kernel.
    LoweringOptions lowering;
    lowering.mode = LoweringMode::Hq;
    PassManager pm;
    pm.add(std::make_unique<InitialLoweringPass>(lowering));
    pm.add(std::make_unique<SyscallSyncPass>(true));
    ASSERT_TRUE(pm.run(module).isOk());

    KernelModule::Config kconfig;
    kconfig.elide_readonly_syscalls = true;
    KernelModule kernel(kconfig);
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    ASSERT_TRUE(runtime.enable().isOk());
    verifier.start();

    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    verifier.stop();
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    // All ten intercepted, but only the five write() calls synced.
    EXPECT_EQ(kernel.statsFor(1).syscalls, 5u);
    EXPECT_EQ(verifier.statsFor(1).syscall_acks, 5u);
}

// ---------------------------------------------------------------------
// Cross-process shared-memory channel
// ---------------------------------------------------------------------

TEST(XprocChannel, SameProcessRoundTrip)
{
    XprocChannel channel(64);
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(
            channel.send(Message(Opcode::EventCount, i)).isOk());
    EXPECT_EQ(channel.pending(), 10u);
    Message out;
    for (std::uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(channel.tryRecv(out));
        EXPECT_EQ(out.arg0, i);
    }
    EXPECT_FALSE(channel.tryRecv(out));
}

TEST(XprocChannel, DeliversAcrossFork)
{
    XprocChannel channel(1 << 10);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        for (std::uint64_t i = 0; i < 500; ++i)
            channel.send(Message(Opcode::EventCount, i, i * 3));
        channel.send(Message(Opcode::Syscall, 60));
        _exit(0);
    }

    std::uint64_t received = 0;
    bool done = false;
    Message out;
    while (!done) {
        if (!channel.tryRecv(out))
            continue;
        if (out.op == Opcode::Syscall) {
            done = true;
        } else {
            EXPECT_EQ(out.arg0, received);
            EXPECT_EQ(out.arg1, received * 3);
            ++received;
        }
    }
    int wstatus = 0;
    waitpid(child, &wstatus, 0);
    EXPECT_EQ(received, 500u);
    EXPECT_TRUE(WIFEXITED(wstatus));
}

TEST(XprocChannel, SenderBlocksAcrossForkWhenFull)
{
    XprocChannel channel(16);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // 200 messages through a 16-slot ring: must block and resume.
        for (std::uint64_t i = 0; i < 200; ++i)
            channel.send(Message(Opcode::EventCount, i));
        _exit(0);
    }
    std::uint64_t received = 0;
    Message out;
    while (received < 200) {
        if (channel.tryRecv(out)) {
            EXPECT_EQ(out.arg0, received);
            ++received;
        }
    }
    int wstatus = 0;
    waitpid(child, &wstatus, 0);
    EXPECT_TRUE(WIFEXITED(wstatus));
}

// ---------------------------------------------------------------------
// Multi-writer per-core AMRs and message ordering (§4.3)
// ---------------------------------------------------------------------

TEST(MultiWriter, PerCoreAmrsWithTimestampOrdering)
{
    // Each writer core has its own AMR (the §2.3.2 design); a single
    // reader drains both. Cross-core order is not guaranteed by the
    // transport, so each message carries a global counter in arg1 —
    // exactly the paper's suggestion for policies needing ordering.
    Amr amr_a(1 << 12);
    Amr amr_b(1 << 12);
    std::atomic<std::uint64_t> global_clock{0};
    constexpr std::uint64_t kPerWriter = 5000;

    auto writer = [&](Amr &amr, std::uint64_t id) {
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
            Message message(Opcode::EventCount, id,
                            global_clock.fetch_add(1));
            while (amr.appendWrite(message) == AppendResult::Full)
                std::this_thread::yield();
        }
    };
    std::thread t1(writer, std::ref(amr_a), 1);
    std::thread t2(writer, std::ref(amr_b), 2);

    std::vector<Message> received;
    received.reserve(2 * kPerWriter);
    while (received.size() < 2 * kPerWriter) {
        Message out;
        if (readOne(amr_a, out))
            received.push_back(out);
        if (readOne(amr_b, out))
            received.push_back(out);
    }
    t1.join();
    t2.join();

    // Per-writer FIFO: timestamps from one writer arrive increasing.
    std::uint64_t last_a = 0, last_b = 0;
    bool first_a = true, first_b = true;
    for (const Message &message : received) {
        std::uint64_t &last = message.arg0 == 1 ? last_a : last_b;
        bool &first = message.arg0 == 1 ? first_a : first_b;
        if (!first) {
            EXPECT_GT(message.arg1, last);
        }
        last = message.arg1;
        first = false;
    }

    // Global order is reconstructable: the timestamps are a permutation
    // of 0..N-1.
    std::vector<std::uint64_t> stamps;
    for (const Message &message : received)
        stamps.push_back(message.arg1);
    std::sort(stamps.begin(), stamps.end());
    for (std::uint64_t i = 0; i < stamps.size(); ++i)
        EXPECT_EQ(stamps[i], i);
}

TEST(MultiWriter, VerifierDrainsMultipleChannels)
{
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy);
    ShmChannel core0(1 << 10);
    ShmChannel core1(1 << 10);
    verifier.attachChannel(&core0, 1);
    verifier.attachChannel(&core1, 1);
    ASSERT_TRUE(kernel.enableProcess(1).isOk());

    core0.send(Message(Opcode::PointerDefine, 0x100, 0xAA));
    core1.send(Message(Opcode::PointerDefine, 0x200, 0xBB));
    verifier.poll();
    EXPECT_EQ(verifier.statsFor(1).messages, 2u);
    EXPECT_EQ(verifier.contextFor(1)->entryCount(), 2u);
}

// ---------------------------------------------------------------------
// Bidirectional communication (§4.3)
// ---------------------------------------------------------------------

TEST(Bidirectional, PingPongOverTwoAmrs)
{
    // One buffer per direction, each core appending to the other's
    // buffer — the paper's bidirectional configuration.
    Amr a_to_b(64);
    Amr b_to_a(64);
    constexpr std::uint64_t kRounds = 1000;

    std::thread side_b([&] {
        Message in;
        for (std::uint64_t round = 0; round < kRounds; ++round) {
            while (!readOne(a_to_b, in))
                std::this_thread::yield();
            Message reply(Opcode::EventCount, in.arg0 + 1);
            while (b_to_a.appendWrite(reply) == AppendResult::Full)
                std::this_thread::yield();
        }
    });

    std::uint64_t value = 0;
    Message in;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
        while (a_to_b.appendWrite(Message(Opcode::EventCount, value)) ==
               AppendResult::Full)
            std::this_thread::yield();
        while (!readOne(b_to_a, in))
            std::this_thread::yield();
        value = in.arg0 + 1;
    }
    side_b.join();
    // Each round adds 2 (one increment per side).
    EXPECT_EQ(value, 2 * kRounds);
}

// ---------------------------------------------------------------------
// Naive-sync ablation mode
// ---------------------------------------------------------------------

// A shared-memory channel whose receive side withholds each System-Call
// message until release() is called, so a verifier polling it cannot
// ack a syscall before the test lets it. Every receive goes through
// the peek/consume pair, so hiding slots from the view hides them from
// the copying calls too. Consumer-side calls only: the view and the
// counters belong to the polling thread.
class HoldingShmChannel : public ShmChannel
{
  public:
    using ShmChannel::ShmChannel;

    void release() { ++_released; }
    std::uint64_t released() const { return _released; }

    /** Most unconsumed messages ever queued ahead of a System-Call one. */
    std::size_t maxQueuedAheadOfSyscall() const { return _max_ahead; }

    PeekResult
    tryPeekSpan(RecvSpan &out) override
    {
        const PeekResult peeked = ShmChannel::tryPeekSpan(out);
        if (!peeked)
            return peeked;
        std::size_t visible = out.total();
        std::uint64_t syscalls = _consumed_syscalls;
        for (std::size_t i = 0; i < out.total(); ++i) {
            if (out.slot(i).op != Opcode::Syscall)
                continue;
            _max_ahead = std::max(_max_ahead, i);
            if (syscalls++ == _released) {
                visible = i; // hold this one and everything after it
                break;
            }
        }
        const std::size_t first = std::min(visible, out.seg[0].count);
        out.seg[1].count = visible - first;
        out.seg[0].count = first;
        _view = out;
        return peeked;
    }

    void
    consumeSlots(std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            if (_view.slot(i).op == Opcode::Syscall)
                ++_consumed_syscalls;
        _view.advance(count);
        ShmChannel::consumeSlots(count);
    }

  private:
    RecvSpan _view;
    std::uint64_t _released = 0;
    std::uint64_t _consumed_syscalls = 0;
    std::size_t _max_ahead = 0;
};

TEST(NaiveSync, StillCorrectJustSlower)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.syscall(1);
    builder.syscall(1);
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 0;
    ASSERT_TRUE(instrumentModule(module, CfiDesign::HqSfeStk).isOk());

    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy);
    HoldingShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    ASSERT_TRUE(runtime.enable().isOk());

    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    config.naive_sync = true;
    RunResult result;
    std::atomic<bool> done{false};
    std::thread program([&] {
        Vm vm(module, config, &runtime);
        result = vm.run();
        done.store(true, std::memory_order_release);
    });

    // The verifier is stepped here rather than by its own thread: a
    // free-running verifier can ack a System-Call message between its
    // send and the gate check, so whether the gate blocks would depend
    // on scheduling. Each System-Call message is released only once its
    // syscall has blocked at the gate; every other message is drained
    // as soon as it arrives.
    while (!done.load(std::memory_order_acquire)) {
        if (kernel.statsFor(1).waits > channel.released())
            channel.release();
        verifier.poll();
        std::this_thread::yield();
    }
    program.join();
    verifier.poll();

    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(kernel.statsFor(1).syscalls, 2u);
    // Every syscall paid the blocking round trip.
    EXPECT_EQ(kernel.statsFor(1).waits, 2u);
    EXPECT_EQ(channel.released(), 2u);
    // No pipelined advance message: each System-Call message is sent
    // only after the verifier consumed every earlier message.
    EXPECT_EQ(channel.maxQueuedAheadOfSyscall(), 0u);
}

} // namespace
} // namespace hq
