/**
 * @file
 * VM execution tests: interpreter semantics, memory model, control-flow
 * hijack mechanics, and end-to-end behavior of every CFI design on
 * benign and malicious programs (with a live verifier).
 */

#include <gtest/gtest.h>

#include "cfi/design.h"
#include "ipc/shm_channel.h"
#include "ir/builder.h"
#include "policy/pointer_integrity.h"
#include "runtime/vm.h"
#include "verifier/verifier.h"

namespace hq {
namespace {

using namespace ir;

/** Kernel + verifier + channel + runtime, polled deterministically. */
struct HqHarness
{
    KernelModule kernel;
    std::shared_ptr<PointerIntegrityPolicy> policy =
        std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier;
    ShmChannel channel{1 << 14};
    HqRuntime runtime{1, channel, kernel};

    explicit HqHarness(bool kill_on_violation = false)
        : verifier(kernel, policy,
                   [&] {
                       Verifier::Config config;
                       config.kill_on_violation = kill_on_violation;
                       return config;
                   }())
    {
        verifier.attachChannel(&channel, 1);
        verifier.start(); // live concurrent verification
        EXPECT_TRUE(runtime.enable().isOk());
    }

    ~HqHarness() { verifier.stop(); }

    void drain() { verifier.stop(); }
};

RunResult
runBare(Module &module, VmConfig config = VmConfig{})
{
    Vm vm(module, config, nullptr);
    return vm.run();
}

// ---------------------------------------------------------------------
// Core interpreter semantics
// ---------------------------------------------------------------------

TEST(VmCore, ReturnsConstant)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.ret(builder.constInt(42));
    builder.endFunction();
    module.entry_function = 0;

    RunResult result = runBare(module);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.return_value, 42u);
}

TEST(VmCore, ArithmeticKinds)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int a = builder.constInt(10);
    const int b = builder.constInt(3);
    int acc = builder.arith(ArithKind::Add, a, b);      // 13
    acc = builder.arith(ArithKind::Mul, acc, b);        // 39
    acc = builder.arith(ArithKind::Sub, acc, a);        // 29
    acc = builder.arith(ArithKind::Xor, acc, b);        // 30
    acc = builder.arith(ArithKind::And, acc, a);        // 10
    acc = builder.arith(ArithKind::Or, acc, b);         // 11
    acc = builder.arith(ArithKind::Shr, acc, builder.constInt(1)); // 5
    const int lt = builder.arith(ArithKind::Lt, b, a);  // 1
    acc = builder.arith(ArithKind::Add, acc, lt);       // 6
    const int eq = builder.arith(ArithKind::Eq, a, a);  // 1
    acc = builder.arith(ArithKind::Add, acc, eq);       // 7
    builder.ret(acc);
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).return_value, 7u);
}

TEST(VmCore, StackSlotRoundTrip)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8);
    builder.store(slot, builder.constInt(0xABCD), TypeRef::intTy());
    const int loaded = builder.load(slot, TypeRef::intTy());
    builder.ret(loaded);
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).return_value, 0xABCDu);
}

TEST(VmCore, CallPassesArgsAndReturnsValue)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("add", 2);
    builder.ret(builder.arith(ArithKind::Add, 0, 1));
    builder.endFunction();
    builder.beginFunction("main");
    const int x = builder.constInt(30);
    const int y = builder.constInt(12);
    builder.ret(builder.callDirect(0, {x, y}));
    builder.endFunction();
    module.entry_function = 1;

    EXPECT_EQ(runBare(module).return_value, 42u);
}

TEST(VmCore, LoopComputesSum)
{
    // sum = 0; for (i = 0; i < 10; ++i) sum += i;  => 45
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int sum_slot = builder.allocaOp(8);
    const int i_slot = builder.allocaOp(8);
    const int zero = builder.constInt(0);
    const int one = builder.constInt(1);
    const int ten = builder.constInt(10);
    builder.store(sum_slot, zero, TypeRef::intTy());
    builder.store(i_slot, zero, TypeRef::intTy());
    const int bb_head = builder.newBlock();
    const int bb_body = builder.newBlock();
    const int bb_exit = builder.newBlock();
    builder.br(bb_head);
    builder.setBlock(bb_head);
    const int i1 = builder.load(i_slot, TypeRef::intTy());
    const int cond = builder.arith(ArithKind::Lt, i1, ten);
    builder.condBr(cond, bb_body, bb_exit);
    builder.setBlock(bb_body);
    const int s = builder.load(sum_slot, TypeRef::intTy());
    const int i2 = builder.load(i_slot, TypeRef::intTy());
    const int s2 = builder.arith(ArithKind::Add, s, i2);
    builder.store(sum_slot, s2, TypeRef::intTy());
    const int i3 = builder.arith(ArithKind::Add, i2, one);
    builder.store(i_slot, i3, TypeRef::intTy());
    builder.br(bb_head);
    builder.setBlock(bb_exit);
    builder.ret(builder.load(sum_slot, TypeRef::intTy()));
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).return_value, 45u);
}

TEST(VmCore, RecursionComputesFactorial)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("fact", 1);
    const int bb_rec = builder.newBlock();
    const int bb_base = builder.newBlock();
    const int two = builder.constInt(2);
    const int is_small = builder.arith(ArithKind::Lt, 0, two);
    builder.condBr(is_small, bb_base, bb_rec);
    builder.setBlock(bb_rec);
    const int one = builder.constInt(1);
    const int n1 = builder.arith(ArithKind::Sub, 0, one);
    const int sub = builder.callDirect(0, {n1});
    builder.ret(builder.arith(ArithKind::Mul, 0, sub));
    builder.setBlock(bb_base);
    const int unit = builder.constInt(1);
    builder.ret(unit);
    builder.endFunction();
    module.entry_function = 0;

    Module copy = module;
    Vm vm(copy, VmConfig{}, nullptr);
    RunResult result = vm.run({6});
    EXPECT_EQ(result.return_value, 720u);
}

TEST(VmCore, MallocFreeReuse)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int size = builder.constInt(32);
    const int p1 = builder.mallocOp(size);
    builder.freeOp(p1);
    const int p2 = builder.mallocOp(size); // LIFO reuse
    builder.ret(builder.arith(ArithKind::Eq, p1, p2));
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).return_value, 1u);
}

TEST(VmCore, ReallocPreservesContents)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int size = builder.constInt(16);
    const int p = builder.mallocOp(size);
    builder.store(p, builder.constInt(0x1234), TypeRef::intTy());
    const int bigger = builder.constInt(64);
    const int q = builder.reallocOp(p, bigger);
    builder.ret(builder.load(q, TypeRef::intTy()));
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).return_value, 0x1234u);
}

TEST(VmCore, DoubleFreeCrashes)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int size = builder.constInt(32);
    const int p = builder.mallocOp(size);
    builder.freeOp(p);
    builder.freeOp(p);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    EXPECT_EQ(runBare(module).exit, ExitKind::Crash);
}

TEST(VmCore, UnmappedAccessCrashes)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int wild = builder.constInt(0xDEAD0000);
    builder.load(wild, TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    RunResult result = runBare(module);
    EXPECT_EQ(result.exit, ExitKind::Crash);
    EXPECT_NE(result.detail.find("segfault"), std::string::npos);
}

TEST(VmCore, ReadOnlyGlobalRejectsWrites)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    builder.ret();
    builder.endFunction();
    Global table;
    table.name = "const_table";
    table.size = 16;
    table.section = Section::RoData;
    table.funcptr_init = {{0, 0}};
    const int gid = builder.addGlobal(table);
    builder.beginFunction("main");
    const int addr = builder.globalAddr(gid);
    builder.store(addr, builder.constInt(0x41), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    RunResult result = runBare(module);
    EXPECT_EQ(result.exit, ExitKind::Crash);
    EXPECT_NE(result.detail.find("read-only"), std::string::npos);
}

TEST(VmCore, GlobalFuncPtrInitAndIndirectCall)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    builder.ret(builder.constInt(99));
    builder.endFunction();
    Global g;
    g.name = "handler";
    g.size = 8;
    g.funcptr_init = {{0, 0}};
    const int gid = builder.addGlobal(g);
    builder.beginFunction("main");
    const int addr = builder.globalAddr(gid);
    const int fp = builder.load(addr, TypeRef::funcPtr(0));
    builder.ret(builder.callIndirect(fp, {}, 0));
    builder.endFunction();
    module.entry_function = 1;

    EXPECT_EQ(runBare(module).return_value, 99u);
}

TEST(VmCore, VCallDispatchesThroughVtable)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("method", 1);
    builder.ret(builder.constInt(7));
    builder.endFunction();
    const int cls = builder.addClass("Widget", {0});
    builder.beginFunction("main");
    const int size = builder.constInt(16);
    const int obj = builder.mallocOp(size);
    const int vt = builder.globalAddr(module.classes[cls].vtable_global);
    builder.store(obj, vt, TypeRef::vtablePtr());
    builder.ret(builder.vcall(obj, 0, {obj}, -1));
    builder.endFunction();
    module.entry_function = 1;

    EXPECT_EQ(runBare(module).return_value, 7u);
}

TEST(VmCore, InfiniteLoopReportsHang)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.br(0);
    builder.endFunction();
    module.entry_function = 0;

    VmConfig config;
    config.max_instructions = 1000;
    EXPECT_EQ(runBare(module, config).exit, ExitKind::Hang);
}

TEST(VmCore, NullIndirectCallCrashes)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int null_fp = builder.constInt(0);
    builder.callIndirect(null_fp, {}, 0);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    RunResult result = runBare(module);
    EXPECT_EQ(result.exit, ExitKind::Crash);
    EXPECT_NE(result.detail.find("NULL"), std::string::npos);
}

// ---------------------------------------------------------------------
// Control-flow hijack mechanics (the RIPE substrate)
// ---------------------------------------------------------------------

/**
 * A program where an out-of-bounds store through a stack buffer
 * overwrites the frame's return pointer with &attack_payload.
 * Layout: [buf (32 bytes)][return pointer] — the overflow writes at
 * buf+32.
 */
Module
stackSmashModule()
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("attack_payload");
    builder.ret(builder.constInt(0x666));
    builder.endFunction();

    builder.beginFunction("victim");
    const int buf = builder.allocaOp(32);
    const int overflow_off = builder.constInt(32);
    const int target = builder.arith(ArithKind::Add, buf, overflow_off);
    const int payload = builder.funcAddr(0, 0);
    builder.store(target, payload, TypeRef::intTy()); // linear overflow
    builder.ret();
    builder.endFunction();

    builder.beginFunction("main");
    builder.callDirect(1, {});
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 2;
    return module;
}

TEST(VmHijack, StackSmashDivertsControlWithoutProtection)
{
    Module module = stackSmashModule();
    VmConfig config;
    config.attack_payload_function = 0;
    RunResult result = runBare(module, config);
    EXPECT_TRUE(result.attack_payload_reached);
}

TEST(VmHijack, SafeStackDefeatsLinearOverflow)
{
    Module module = stackSmashModule();
    VmConfig config;
    config.attack_payload_function = 0;
    config.safe_stack = true;
    RunResult result = runBare(module, config);
    // The overflow lands in the (now unused) stack slot area; the real
    // return pointer is on the safe stack.
    EXPECT_FALSE(result.attack_payload_reached);
    EXPECT_EQ(result.exit, ExitKind::Ok);
}

/** Overflow reaching the safe stack via a disclosed retptr address. */
Module
disclosureSmashModule()
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("attack_payload");
    builder.ret(builder.constInt(0x666));
    builder.endFunction();

    builder.beginFunction("victim");
    // __builtin_return_address: disclose where the retptr lives.
    const int ret_slot = builder.retAddrAddr();
    const int payload = builder.funcAddr(0, 0);
    builder.store(ret_slot, payload, TypeRef::intTy());
    builder.ret();
    builder.endFunction();

    builder.beginFunction("main");
    builder.callDirect(1, {});
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 2;
    return module;
}

TEST(VmHijack, DisclosureDefeatsSafeStack)
{
    Module module = disclosureSmashModule();
    VmConfig config;
    config.attack_payload_function = 0;
    config.safe_stack = true;
    RunResult result = runBare(module, config);
    EXPECT_TRUE(result.attack_payload_reached);
}

TEST(VmHijack, GarbageRetPtrCrashes)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("victim");
    const int ret_slot = builder.retAddrAddr();
    builder.store(ret_slot, builder.constInt(0x12345), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    builder.callDirect(0, {});
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    RunResult result = runBare(module);
    EXPECT_EQ(result.exit, ExitKind::Crash);
    EXPECT_NE(result.detail.find("return pointer"), std::string::npos);
}

// ---------------------------------------------------------------------
// HQ-CFI end-to-end with live verifier
// ---------------------------------------------------------------------

/** Instrument for a design and run with an HQ harness. */
RunResult
runWithHarness(Module module, CfiDesign design, HqHarness &harness,
               int attack_payload = -1)
{
    EXPECT_TRUE(instrumentModule(module, design).isOk());
    VmConfig config = makeVmConfig(design);
    config.attack_payload_function = attack_payload;
    Vm vm(module, config,
          designInfo(design).hq_messages ? &harness.runtime : nullptr);
    RunResult result = vm.run();
    harness.drain();
    return result;
}

Module
benignFuncPtrProgram()
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee", 0, sig);
    builder.ret(builder.constInt(5));
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    // A call that clobbers forwarding so a real check survives.
    builder.callDirect(0, {slot});
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    builder.ret(builder.callIndirect(loaded, {}, sig));
    builder.endFunction();
    module.entry_function = 1;
    return module;
}

TEST(VmHq, BenignProgramHasNoViolations)
{
    HqHarness harness;
    RunResult result =
        runWithHarness(benignFuncPtrProgram(), CfiDesign::HqSfeStk,
                       harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.return_value, 5u);
    EXPECT_FALSE(harness.verifier.hasViolation(1));
    EXPECT_GT(harness.verifier.statsFor(1).messages, 0u);
}

Module
corruptedFuncPtrProgram()
{
    // Overwrites a protected function-pointer slot through a decayed
    // (int-typed) out-of-bounds store, then calls through it.
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("good", 0, sig);
    builder.ret(builder.constInt(1));
    builder.endFunction();
    builder.beginFunction("attack_payload", 0, sig);
    builder.ret(builder.constInt(2));
    builder.endFunction();
    builder.beginFunction("main");
    const int buf = builder.allocaOp(32);
    const int fp_slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(fp_slot, fp, TypeRef::funcPtr(sig));
    // Attacker: out-of-bounds write from buf into fp_slot (buf+32).
    const int off = builder.constInt(32);
    const int oob = builder.arith(ArithKind::Add, buf, off);
    const int evil = builder.funcAddr(1, sig);
    const int evil_int = builder.cast(evil, TypeRef::intTy());
    builder.store(oob, evil_int, TypeRef::intTy());
    const int loaded = builder.load(fp_slot, TypeRef::funcPtr(sig));
    builder.ret(builder.callIndirect(loaded, {}, sig));
    builder.endFunction();
    module.entry_function = 2;
    return module;
}

TEST(VmHq, CorruptionDetectedByVerifier)
{
    HqHarness harness;
    RunResult result =
        runWithHarness(corruptedFuncPtrProgram(), CfiDesign::HqSfeStk,
                       harness, /*attack_payload=*/1);
    // Asynchronous detection: the program may reach the payload, but
    // the verifier records the violation (the kernel would kill it at
    // the next syscall).
    EXPECT_TRUE(harness.verifier.hasViolation(1));
    (void)result;
}

TEST(VmHq, UseAfterFreeOnFuncPtrDetected)
{
    // A function pointer in a heap block, freed, then checked: the
    // use-after-free detection unique to HQ-CFI (§4.1.2).
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee", 0, sig);
    builder.ret(builder.constInt(3));
    builder.endFunction();
    builder.beginFunction("main");
    const int size = builder.constInt(16);
    const int obj = builder.mallocOp(size);
    const int fp = builder.funcAddr(0, sig);
    builder.store(obj, fp, TypeRef::funcPtr(sig));
    builder.freeOp(obj); // invalidates pointers in the block
    const int stale = builder.load(obj, TypeRef::funcPtr(sig));
    builder.callIndirect(stale, {}, sig);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    HqHarness harness;
    runWithHarness(std::move(module), CfiDesign::HqSfeStk, harness);
    EXPECT_TRUE(harness.verifier.hasViolation(1));
    auto *ctx = static_cast<PointerIntegrityContext *>(
        harness.verifier.contextFor(1));
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->lastViolation(), PointerViolation::UseAfterFree);
}

TEST(VmHq, RetPtrVariantDetectsReturnCorruption)
{
    HqHarness harness;
    RunResult result = runWithHarness(stackSmashModule(),
                                      CfiDesign::HqRetPtr, harness,
                                      /*attack_payload=*/0);
    EXPECT_TRUE(harness.verifier.hasViolation(1));
    (void)result;
}

TEST(VmHq, SyscallSyncHandshakeCompletes)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.syscall(1);
    builder.syscall(2);
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 0;

    HqHarness harness;
    RunResult result =
        runWithHarness(std::move(module), CfiDesign::HqSfeStk, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(harness.kernel.statsFor(1).syscalls, 2u);
    EXPECT_FALSE(harness.verifier.hasViolation(1));
}

TEST(VmHq, KillOnViolationStopsAtSyscall)
{
    // Corrupt a pointer, then attempt a syscall: with kill-on-violation
    // the kernel refuses to resume.
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("good", 0, sig);
    builder.ret(builder.constInt(1));
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    builder.callDirect(0, {slot}); // escape: keep the check
    const int casted = builder.cast(slot, TypeRef::dataPtr());
    builder.store(casted, builder.constInt(0xBAD), TypeRef::intTy());
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    // The check fires here; the violation is pending asynchronously.
    (void)loaded;
    builder.syscall(60);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    HqHarness harness(/*kill_on_violation=*/true);
    EXPECT_TRUE(
        instrumentModule(module, CfiDesign::HqSfeStk).isOk());
    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    Vm vm(module, config, &harness.runtime);
    RunResult result = vm.run();
    EXPECT_EQ(result.exit, ExitKind::Killed);
}

// ---------------------------------------------------------------------
// Instrumentation message send
// ---------------------------------------------------------------------

/** Transport that only records what is sent through it. */
struct RecordingChannel : Channel
{
    std::vector<Message> sent;
    ChannelTraits channel_traits{"recording", false, false, "none"};

    Status
    sendImpl(const Message &message) override
    {
        sent.push_back(message);
        return Status::ok();
    }
    std::size_t pending() const override { return 0; }
    const ChannelTraits &traits() const override { return channel_traits; }
};

/**
 * The messages one `op` instruction sends, with operand registers
 * a = 0xA0, b = 0xB0, c = 0xC0 and imm = 0x1F.
 */
std::vector<Message>
messagesOf(IrOp op, bool naive_sync = false)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    Instr instr;
    instr.op = op;
    instr.a = builder.constInt(0xA0);
    instr.b = builder.constInt(0xB0);
    instr.c = builder.constInt(0xC0);
    instr.imm = 0x1F;
    builder.emit(instr);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    KernelModule kernel;
    RecordingChannel channel;
    HqRuntime runtime(1, channel, kernel);
    VmConfig config;
    config.hq_messages = true;
    config.naive_sync = naive_sync;
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    return channel.sent;
}

TEST(VmMessages, EachMessageOpSendsItsReferenceMessages)
{
    // Reference messages per op, written out independently of the IR
    // op table the VM sends from.
    using Msgs = std::vector<Message>;
    const std::vector<std::pair<IrOp, Msgs>> reference = {
        {IrOp::HqDefine, {Message(Opcode::PointerDefine, 0xA0, 0xB0)}},
        {IrOp::HqCheck, {Message(Opcode::PointerCheck, 0xA0, 0xB0)}},
        {IrOp::HqInvalidate, {Message(Opcode::PointerInvalidate, 0xA0)}},
        {IrOp::HqCheckInvalidate,
         {Message(Opcode::PointerCheckInvalidate, 0xA0, 0xB0)}},
        {IrOp::HqBlockCopy,
         {Message(Opcode::BlockSize, 0xC0),
          Message(Opcode::PointerBlockCopy, 0xA0, 0xB0)}},
        {IrOp::HqBlockMove,
         {Message(Opcode::BlockSize, 0xC0),
          Message(Opcode::PointerBlockMove, 0xA0, 0xB0)}},
        {IrOp::HqBlockInvalidate,
         {Message(Opcode::PointerBlockInvalidate, 0xA0, 0xB0)}},
        {IrOp::HqSyscallMsg, {Message(Opcode::Syscall, 0x1F)}},
        {IrOp::DfiWriteMsg, {Message(Opcode::DfiWrite, 0xA0, 0x1F)}},
        {IrOp::DfiReadMsg, {Message(Opcode::DfiRead, 0xA0, 0x1F)}},
        {IrOp::LabelDefMsg, {Message(Opcode::LabelDef, 0xA0, 0x1F)}},
        {IrOp::LabelCheckMsg, {Message(Opcode::LabelCheck, 0xA0, 0x1F)}},
        {IrOp::LabelJoinMsg, {Message(Opcode::LabelJoin, 0xA0, 0xB0)}},
    };
    std::size_t message_ops = 0;
    for (int i = 0; i < static_cast<int>(IrOp::NumOps); ++i)
        message_ops += emitsMessage(static_cast<IrOp>(i));
    EXPECT_EQ(reference.size(), message_ops);

    for (auto [op, want] : reference) {
        for (Message &message : want)
            message.pid = 1;
        const Msgs got = messagesOf(op);
        ASSERT_EQ(got.size(), want.size()) << irOpName(op);
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], want[i])
                << irOpName(op) << ": " << got[i].toString();
    }

    // The naive-sync ablation sends the System-Call message at the
    // syscall itself, never in advance.
    EXPECT_TRUE(messagesOf(IrOp::HqSyscallMsg, /*naive_sync=*/true).empty());
}

// ---------------------------------------------------------------------
// Baseline designs: characteristic behavior
// ---------------------------------------------------------------------

TEST(VmDesigns, ClangCfiPassesBenignMatchingTypes)
{
    HqHarness harness;
    RunResult result = runWithHarness(benignFuncPtrProgram(),
                                      CfiDesign::ClangCfi, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_GT(result.inline_checks, 0u);
    EXPECT_EQ(result.inline_violations, 0u);
}

Module
castedSignatureProgram()
{
    // povray pattern (§5.1): define a pointer with one signature, call
    // it through another after a cast. Benign, but type-matching CFI
    // designs flag it.
    Module module;
    IrBuilder builder(module);
    const int sig_a = builder.newSignatureClass();
    const int sig_b = builder.newSignatureClass();
    builder.beginFunction("handler", 0, sig_a);
    builder.ret(builder.constInt(4));
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig_a));
    const int fp = builder.funcAddr(0, sig_a);
    builder.store(slot, fp, TypeRef::funcPtr(sig_a));
    builder.callDirect(0, {slot});
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig_a));
    const int casted = builder.cast(loaded, TypeRef::funcPtr(sig_b));
    builder.ret(builder.callIndirect(casted, {}, sig_b));
    builder.endFunction();
    module.entry_function = 1;
    return module;
}

TEST(VmDesigns, ClangCfiFalsePositiveOnCastedSignature)
{
    HqHarness harness;
    RunResult result = runWithHarness(castedSignatureProgram(),
                                      CfiDesign::ClangCfi, harness);
    EXPECT_EQ(result.exit, ExitKind::InlineViolation);
}

TEST(VmDesigns, HqAcceptsCastedSignature)
{
    // Pointer integrity is precise: the value matches its definition,
    // so HQ does not flag the benign cast.
    HqHarness harness;
    RunResult result = runWithHarness(castedSignatureProgram(),
                                      CfiDesign::HqSfeStk, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_FALSE(harness.verifier.hasViolation(1));
}

Module
decayedStoreProgram()
{
    // Store a function pointer through an int-typed (decayed) access,
    // then load it back typed and call it. Benign; defeats type-based
    // instrumentation.
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("handler", 0, sig);
    builder.ret(builder.constInt(6));
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    const int decayed = builder.cast(fp, TypeRef::intTy());
    builder.store(slot, decayed, TypeRef::intTy()); // decayed store
    builder.callDirect(0, {slot});
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    builder.ret(builder.callIndirect(loaded, {}, sig));
    builder.endFunction();
    module.entry_function = 1;
    return module;
}

TEST(VmDesigns, CcfiFalsePositiveOnDecayedStore)
{
    HqHarness harness;
    RunResult result = runWithHarness(decayedStoreProgram(),
                                      CfiDesign::Ccfi, harness);
    // No MAC was written by the int-typed store; the typed load's MAC
    // check fails on a benign value.
    EXPECT_EQ(result.exit, ExitKind::InlineViolation);
}

TEST(VmDesigns, CpiCrashOnDecayedStore)
{
    HqHarness harness;
    RunResult result = runWithHarness(decayedStoreProgram(),
                                      CfiDesign::Cpi, harness);
    // The decayed store bypassed the safe store; the redirected load
    // observes NULL and the call crashes (§5.1).
    EXPECT_EQ(result.exit, ExitKind::Crash);
    EXPECT_NE(result.detail.find("NULL"), std::string::npos);
}

TEST(VmDesigns, HqHandlesDecayedStore)
{
    HqHarness harness;
    RunResult result = runWithHarness(decayedStoreProgram(),
                                      CfiDesign::HqSfeStk, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.return_value, 6u);
    EXPECT_FALSE(harness.verifier.hasViolation(1));
}

TEST(VmDesigns, CcfiBlocksRetPtrCorruption)
{
    Module module = disclosureSmashModule();
    VmConfig config = makeVmConfig(CfiDesign::Ccfi);
    config.attack_payload_function = 0;
    Module instrumented = module;
    ASSERT_TRUE(instrumentModule(instrumented, CfiDesign::Ccfi).isOk());
    Vm vm(instrumented, config, nullptr);
    RunResult result = vm.run();
    EXPECT_EQ(result.exit, ExitKind::InlineViolation);
    EXPECT_FALSE(result.attack_payload_reached);
}

TEST(VmDesigns, BaselineRunsEverythingUnprotected)
{
    HqHarness harness;
    RunResult result = runWithHarness(decayedStoreProgram(),
                                      CfiDesign::Baseline, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.inline_checks, 0u);
}

TEST(VmHq, ReallocMovesProtectedPointersWithBlock)
{
    // A function pointer lives in a heap block that realloc relocates:
    // the POINTER-BLOCK-MOVE message must carry the shadow entry to the
    // new address, so the post-realloc check passes and the stale
    // address is invalidated (§4.1.3's realloc optimization).
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee", 0, sig);
    builder.ret(builder.constInt(9));
    builder.endFunction();
    builder.beginFunction("main");
    const int size = builder.constInt(16);
    const int p = builder.mallocOp(size);
    const int fp = builder.funcAddr(0, sig);
    builder.store(p, fp, TypeRef::funcPtr(sig));
    // Force relocation: grow beyond the size class.
    const int big = builder.constInt(256);
    const int q = builder.reallocOp(p, big);
    const int moved = builder.load(q, TypeRef::funcPtr(sig));
    builder.ret(builder.callIndirect(moved, {}, sig));
    builder.endFunction();
    module.entry_function = 1;

    HqHarness harness;
    RunResult result =
        runWithHarness(std::move(module), CfiDesign::HqSfeStk, harness);
    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_EQ(result.return_value, 9u);
    EXPECT_FALSE(harness.verifier.hasViolation(1));
}

TEST(VmDesigns, AllDesignsRunBenignProgramToCompletion)
{
    for (CfiDesign design : allDesigns()) {
        HqHarness harness;
        RunResult result =
            runWithHarness(benignFuncPtrProgram(), design, harness);
        EXPECT_EQ(result.exit, ExitKind::Ok)
            << designInfo(design).name << ": " << result.detail;
        EXPECT_EQ(result.return_value, 5u) << designInfo(design).name;
    }
}

} // namespace
} // namespace hq
