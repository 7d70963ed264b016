/**
 * @file
 * Unit tests for the instrumentation passes: devirtualization, initial
 * lowering for each design mechanism, store-to-load forwarding, message
 * elision, final lowering (strict subtype checking + allowlist), and
 * System-Call message placement.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/passes.h"
#include "ir/builder.h"
#include "ir/verify.h"

namespace hq {
namespace {

using namespace ir;

/** Count instructions with the given opcode across the module. */
int
countOps(const Module &module, IrOp op)
{
    int count = 0;
    for (const auto &function : module.functions)
        for (const auto &block : function.blocks)
            for (const auto &instr : block.instrs)
                count += instr.op == op;
    return count;
}

/** Run a single pass with verification, asserting it stays well-formed. */
StatSet
runPass(Module &module, std::unique_ptr<Pass> pass)
{
    PassManager pm;
    pm.add(std::move(pass));
    const Status status = pm.run(module);
    EXPECT_TRUE(status.isOk()) << status.toString();
    return pm.stats();
}

/**
 * A module with one funcptr round-trip: store a function's address to a
 * stack slot, load it back, call it, plus a syscall at the end.
 */
Module
funcPtrModule()
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();

    builder.beginFunction("callee", 0, sig);
    builder.ret(builder.constInt(1));
    builder.endFunction();

    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    builder.callIndirect(loaded, {}, sig);
    builder.syscall(60);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;
    return module;
}

TEST(InitialLowering, HqInsertsDefineAndCheck)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    StatSet stats =
        runPass(module, std::make_unique<InitialLoweringPass>(options));

    EXPECT_EQ(countOps(module, IrOp::HqDefine), 1);
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 1);
    // The slot escapes? No call receives it; invalidate at ret.
    EXPECT_EQ(countOps(module, IrOp::HqInvalidate), 1);
    EXPECT_EQ(stats.get("lower.hq.defines"), 1);
}

TEST(InitialLowering, HqProtectsDecayedStore)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("callee");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int fp = builder.funcAddr(0, 0);
    const int decayed = builder.cast(fp, TypeRef::intTy());
    const int slot = builder.allocaOp(8);
    builder.store(slot, decayed, TypeRef::intTy()); // int-typed store!
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    // HQ's taint analysis still protects the decayed store.
    EXPECT_EQ(countOps(module, IrOp::HqDefine), 1);
}

TEST(InitialLowering, CcfiMissesDecayedStore)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("callee");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int fp = builder.funcAddr(0, 0);
    const int decayed = builder.cast(fp, TypeRef::intTy());
    const int slot = builder.allocaOp(8);
    builder.store(slot, decayed, TypeRef::intTy());
    const int loaded = builder.load(slot, TypeRef::funcPtr(0));
    builder.callIndirect(loaded, {}, 0);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Ccfi;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    // The int-typed store carries no MAC define, but the typed load is
    // checked: the combination is CCFI's false-positive pattern.
    EXPECT_EQ(countOps(module, IrOp::MacDefine), 0);
    EXPECT_EQ(countOps(module, IrOp::MacCheck), 1);
}

TEST(InitialLowering, CpiRedirectsTypedAccesses)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Cpi;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    EXPECT_EQ(countOps(module, IrOp::SafeStore), 1);
    EXPECT_EQ(countOps(module, IrOp::SafeLoad), 1);
    // The original typed store/load were replaced.
    EXPECT_EQ(countOps(module, IrOp::Store), 0);
    EXPECT_EQ(countOps(module, IrOp::Load), 0);
}

TEST(InitialLowering, ClangCfiChecksIndirectCalls)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::ClangCfi;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    EXPECT_EQ(countOps(module, IrOp::CfiTypeCheck), 1);
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 0);
}

TEST(InitialLowering, BaselineAddsNothing)
{
    Module module = funcPtrModule();
    const std::size_t before = module.instructionCount();
    LoweringOptions options;
    options.mode = LoweringMode::None;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    EXPECT_EQ(module.instructionCount(), before);
}

// ---------------------------------------------------------------------
// VCall expansion and devirtualization
// ---------------------------------------------------------------------

Module
vcallModule(int static_class)
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
    // Object construction: store the vtable pointer.
    const int vt = builder.globalAddr(module.classes[cls].vtable_global);
    builder.store(obj, vt, TypeRef::vtablePtr());
    builder.vcall(obj, 0, {obj}, static_class);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;
    return module;
}

TEST(Devirtualization, KnownClassBecomesDirectCall)
{
    Module module = vcallModule(/*static_class=*/0);
    StatSet stats = runPass(module,
                            std::make_unique<DevirtualizationPass>());
    EXPECT_EQ(stats.get("devirt.calls"), 1);
    EXPECT_EQ(countOps(module, IrOp::VCall), 0);
    EXPECT_EQ(countOps(module, IrOp::CallDirect), 1);
}

TEST(Devirtualization, UnknownClassRemainsVirtual)
{
    Module module = vcallModule(/*static_class=*/-1);
    StatSet stats = runPass(module,
                            std::make_unique<DevirtualizationPass>());
    EXPECT_EQ(stats.get("devirt.calls"), 0);
    EXPECT_EQ(countOps(module, IrOp::VCall), 1);
}

TEST(InitialLowering, VCallExpansionUnderHq)
{
    Module module = vcallModule(-1);
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    EXPECT_EQ(countOps(module, IrOp::VCall), 0);
    EXPECT_EQ(countOps(module, IrOp::CallIndirect), 1);
    // Two checks: vtable pointer load + the vtable-ptr *store* define.
    EXPECT_GE(countOps(module, IrOp::HqCheck), 1);
    EXPECT_EQ(countOps(module, IrOp::HqDefine), 1);
    // The vtable-entry load is read-only: exactly one check total.
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 1);
}

TEST(InitialLowering, DevirtualizedCallNeedsNoCheck)
{
    Module module = vcallModule(0);
    runPass(module, std::make_unique<DevirtualizationPass>());
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    // Devirtualization eliminated the indirect call and its check.
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 0);
}

// ---------------------------------------------------------------------
// Store-to-load forwarding
// ---------------------------------------------------------------------

TEST(Forwarding, ElidesCheckDominatedByDefine)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    ASSERT_EQ(countOps(module, IrOp::HqCheck), 1);

    StatSet stats =
        runPass(module, std::make_unique<StoreToLoadForwardingPass>());
    EXPECT_EQ(stats.get("optimize.checks_forwarded"), 1);
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 0);
}

TEST(Forwarding, KeepsCheckAfterClobberingCall)
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee", 1);
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    builder.callDirect(0, {slot}); // slot escapes: callee may write it
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    builder.callIndirect(loaded, {}, sig);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats =
        runPass(module, std::make_unique<StoreToLoadForwardingPass>());
    EXPECT_EQ(stats.get("optimize.checks_forwarded"), 0);
    EXPECT_EQ(countOps(module, IrOp::HqCheck), 1);
}

TEST(Forwarding, ForwardsAcrossCallForNonEscapingSlot)
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    builder.callDirect(0, {}); // does not receive &slot
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    builder.callIndirect(loaded, {}, sig);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats =
        runPass(module, std::make_unique<StoreToLoadForwardingPass>());
    EXPECT_EQ(stats.get("optimize.checks_forwarded"), 1);
    // Forwarding crossed a call: the recursion guard is inserted.
    EXPECT_EQ(stats.get("optimize.guarded_functions"), 1);
    EXPECT_EQ(countOps(module, IrOp::HqGuardEnter), 1);
    EXPECT_EQ(countOps(module, IrOp::HqGuardExit), 1);
}

TEST(Forwarding, SkipsVolatileLoads)
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    // Mark the load volatile post hoc.
    builder.currentFunction().blocks[0].instrs.back().flags |=
        kFlagVolatile;
    builder.callIndirect(loaded, {}, sig);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats =
        runPass(module, std::make_unique<StoreToLoadForwardingPass>());
    EXPECT_EQ(stats.get("optimize.checks_forwarded"), 0);
}

TEST(Forwarding, SkipsReturnsTwiceFunctions)
{
    Module module = funcPtrModule();
    module.functions[1].attrs.returns_twice = true;
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats =
        runPass(module, std::make_unique<StoreToLoadForwardingPass>());
    EXPECT_EQ(stats.get("optimize.checks_forwarded"), 0);
}

// ---------------------------------------------------------------------
// Message elision
// ---------------------------------------------------------------------

TEST(Elision, RemovesNeverCheckedDefine)
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    // Never loaded or called: the define is superfluous.
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    ASSERT_EQ(countOps(module, IrOp::HqDefine), 1);
    ASSERT_EQ(countOps(module, IrOp::HqInvalidate), 1);

    StatSet stats = runPass(module,
                            std::make_unique<MessageElisionPass>());
    EXPECT_EQ(stats.get("optimize.defines_elided"), 1);
    EXPECT_EQ(countOps(module, IrOp::HqDefine), 0);
    EXPECT_EQ(countOps(module, IrOp::HqInvalidate), 0);
}

TEST(Elision, KeepsCheckedDefine)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats = runPass(module,
                            std::make_unique<MessageElisionPass>());
    EXPECT_EQ(stats.get("optimize.defines_elided"), 0);
    EXPECT_EQ(countOps(module, IrOp::HqDefine), 1);
}

TEST(Elision, KeepsEscapingDefine)
{
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();
    builder.beginFunction("callee", 1);
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int fp = builder.funcAddr(0, sig);
    builder.store(slot, fp, TypeRef::funcPtr(sig));
    builder.callDirect(0, {slot}); // escapes: callee may check it
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    runPass(module, std::make_unique<MessageElisionPass>());
    EXPECT_EQ(countOps(module, IrOp::HqDefine), 1);
}

TEST(Elision, DeduplicatesConsecutiveInvalidates)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));

    // Simulate an inlined destructor emitting a duplicate invalidate.
    auto &instrs = module.functions[1].blocks[0].instrs;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].op == IrOp::HqInvalidate) {
            instrs.insert(instrs.begin() + i, instrs[i]);
            break;
        }
    }
    ASSERT_EQ(countOps(module, IrOp::HqInvalidate), 2);

    StatSet stats = runPass(module,
                            std::make_unique<MessageElisionPass>());
    EXPECT_EQ(stats.get("optimize.invalidates_elided"), 1);
    EXPECT_EQ(countOps(module, IrOp::HqInvalidate), 1);
}

// ---------------------------------------------------------------------
// Final lowering (block ops)
// ---------------------------------------------------------------------

Module
memcpyModule(TypeRef elem_type)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int src = builder.allocaOp(64);
    const int dst = builder.allocaOp(64);
    const int size = builder.constInt(64);
    builder.memcpyOp(dst, src, size, elem_type);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

int
countBlockFlagged(const Module &module)
{
    int count = 0;
    for (const auto &function : module.functions)
        for (const auto &block : function.blocks)
            for (const auto &instr : block.instrs)
                count += (instr.flags & kFlagEmitBlockMsg) != 0;
    return count;
}

TEST(FinalLowering, StrictSubtypeElidesIntMemcpy)
{
    Module module = memcpyModule(TypeRef::intTy());
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    StatSet stats =
        runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(stats.get("lower.block_ops_elided"), 1);
    EXPECT_EQ(countBlockFlagged(module), 0);
}

TEST(FinalLowering, InstrumentsFuncPtrStructMemcpy)
{
    Module module;
    IrBuilder builder(module);
    StructInfo with_fp;
    with_fp.name = "handler_entry";
    with_fp.size = 16;
    with_fp.fields = {{0, TypeRef::intTy()}, {8, TypeRef::funcPtr(0)}};
    const int sid = builder.addStruct(with_fp);
    builder.beginFunction("main");
    const int src = builder.allocaOp(64);
    const int dst = builder.allocaOp(64);
    const int size = builder.constInt(64);
    builder.memcpyOp(dst, src, size, TypeRef::structTy(sid));
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    StatSet stats =
        runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(stats.get("lower.block_ops"), 1);
    EXPECT_EQ(countBlockFlagged(module), 1);
}

TEST(FinalLowering, AllowlistOverridesStrictChecking)
{
    Module module = memcpyModule(TypeRef::intTy());
    module.functions[0].attrs.block_op_allowlisted = true;
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(countBlockFlagged(module), 1);
}

TEST(FinalLowering, DisabledStrictCheckingInstrumentsEverything)
{
    Module module = memcpyModule(TypeRef::intTy());
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    options.strict_subtype_check = false;
    runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(countBlockFlagged(module), 1);
}

TEST(FinalLowering, FreeAlwaysInstrumented)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int size = builder.constInt(32);
    const int p = builder.mallocOp(size);
    builder.freeOp(p);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(countBlockFlagged(module), 1);
}

TEST(FinalLowering, NoOpForBaselines)
{
    Module module = memcpyModule(TypeRef::intTy());
    module.functions[0].attrs.block_op_allowlisted = true;
    LoweringOptions options;
    options.mode = LoweringMode::ClangCfi;
    runPass(module, std::make_unique<FinalLoweringPass>(options));
    EXPECT_EQ(countBlockFlagged(module), 0);
}

// ---------------------------------------------------------------------
// System-Call message placement
// ---------------------------------------------------------------------

TEST(SyscallSync, InsertsMessageBeforeSyscall)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    StatSet stats = runPass(module, std::make_unique<SyscallSyncPass>());
    EXPECT_EQ(stats.get("sync.messages"), 1);
    EXPECT_EQ(countOps(module, IrOp::HqSyscallMsg), 1);

    // The message precedes the syscall in the block.
    const auto &instrs = module.functions[1].blocks[0].instrs;
    int msg_pos = -1;
    int sys_pos = -1;
    for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
        if (instrs[i].op == IrOp::HqSyscallMsg)
            msg_pos = i;
        if (instrs[i].op == IrOp::Syscall)
            sys_pos = i;
    }
    ASSERT_GE(msg_pos, 0);
    ASSERT_GE(sys_pos, 0);
    EXPECT_LT(msg_pos, sys_pos);
}

TEST(SyscallSync, HoistsPastPlainComputation)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int a = builder.constInt(1);
    const int b = builder.constInt(2);
    builder.arith(ArithKind::Add, a, b);
    builder.syscall(1);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    StatSet stats = runPass(module, std::make_unique<SyscallSyncPass>());
    EXPECT_EQ(stats.get("sync.hoisted"), 1);
    // Message lands at the very top of the block.
    EXPECT_EQ(module.functions[0].blocks[0].instrs[0].op,
              IrOp::HqSyscallMsg);
}

TEST(SyscallSync, DoesNotHoistPastCalls)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("noop");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("main");
    builder.callDirect(0, {});
    builder.syscall(1);
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    runPass(module, std::make_unique<SyscallSyncPass>());
    const auto &instrs = module.functions[1].blocks[0].instrs;
    // Order must be: call, message, syscall, ret.
    ASSERT_EQ(instrs.size(), 4u);
    EXPECT_EQ(instrs[0].op, IrOp::CallDirect);
    EXPECT_EQ(instrs[1].op, IrOp::HqSyscallMsg);
    EXPECT_EQ(instrs[2].op, IrOp::Syscall);
}

TEST(SyscallSync, DoesNotHoistPastDfiOrIfcMessages)
{
    // A syscall's ack must prove that every message sent before it was
    // checked, so its message stays after each data-flow/label message.
    for (IrOp op : {IrOp::DfiWriteMsg, IrOp::DfiReadMsg, IrOp::LabelDefMsg,
                    IrOp::LabelCheckMsg, IrOp::LabelJoinMsg}) {
        SCOPED_TRACE(irOpName(op));
        Module module;
        IrBuilder builder(module);
        builder.beginFunction("main");
        Instr msg;
        msg.op = op;
        msg.a = builder.constInt(0x1000);
        msg.b = msg.a;
        msg.imm = 1;
        builder.emit(msg);
        builder.syscall(1);
        builder.ret();
        builder.endFunction();
        module.entry_function = 0;

        runPass(module, std::make_unique<SyscallSyncPass>());
        std::vector<IrOp> ops;
        for (const auto &instr : module.functions[0].blocks[0].instrs)
            ops.push_back(instr.op);
        const std::vector<IrOp> expected{IrOp::ConstInt, op,
                                         IrOp::HqSyscallMsg, IrOp::Syscall,
                                         IrOp::Ret};
        EXPECT_EQ(ops, expected);
    }
}

TEST(SyscallSync, HoistsThroughLinearChainBlocks)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int bb1 = builder.newBlock();
    const int a = builder.constInt(1);
    builder.br(bb1);
    builder.setBlock(bb1);
    const int b = builder.constInt(2);
    builder.arith(ArithKind::Add, a, b);
    builder.syscall(1);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    StatSet stats = runPass(module, std::make_unique<SyscallSyncPass>());
    EXPECT_EQ(stats.get("sync.hoisted"), 1);
    // The message hoisted into the entry block.
    EXPECT_EQ(module.functions[0].blocks[0].instrs[0].op,
              IrOp::HqSyscallMsg);
}

TEST(SyscallSync, StaysInConditionalBlock)
{
    // The syscall is conditional: its message must not hoist above the
    // branch (the point must be post-dominated by the syscall).
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main", 1);
    const int bb_sys = builder.newBlock();
    const int bb_exit = builder.newBlock();
    builder.condBr(builder.param(0), bb_sys, bb_exit);
    builder.setBlock(bb_sys);
    builder.syscall(1);
    builder.br(bb_exit);
    builder.setBlock(bb_exit);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    runPass(module, std::make_unique<SyscallSyncPass>());
    // Message stays in bb_sys (block 1), not the entry block.
    EXPECT_EQ(module.functions[0].blocks[1].instrs[0].op,
              IrOp::HqSyscallMsg);
    for (const auto &instr : module.functions[0].blocks[0].instrs)
        EXPECT_NE(instr.op, IrOp::HqSyscallMsg);
}

TEST(SyscallSync, MultipleSyscallsEachGetMessages)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.syscall(0);
    builder.syscall(1);
    builder.syscall(2);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    StatSet stats = runPass(module, std::make_unique<SyscallSyncPass>());
    EXPECT_EQ(stats.get("sync.messages"), 3);
    // Messages cannot hoist past prior syscalls.
    const auto &instrs = module.functions[0].blocks[0].instrs;
    std::vector<IrOp> ops;
    for (const auto &instr : instrs)
        ops.push_back(instr.op);
    const std::vector<IrOp> expected{
        IrOp::HqSyscallMsg, IrOp::Syscall, IrOp::HqSyscallMsg,
        IrOp::Syscall,      IrOp::HqSyscallMsg, IrOp::Syscall,
        IrOp::Ret};
    EXPECT_EQ(ops, expected);
}

// ---------------------------------------------------------------------
// Full pipeline
// ---------------------------------------------------------------------

TEST(Pipeline, FullHqPipelineVerifies)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    options.retptr_messages = true;

    PassManager pm;
    pm.add(std::make_unique<DevirtualizationPass>());
    pm.add(std::make_unique<InitialLoweringPass>(options));
    pm.add(std::make_unique<StoreToLoadForwardingPass>());
    pm.add(std::make_unique<MessageElisionPass>());
    pm.add(std::make_unique<FinalLoweringPass>(options));
    pm.add(std::make_unique<SyscallSyncPass>());
    const Status status = pm.run(module);
    EXPECT_TRUE(status.isOk()) << status.toString();
    EXPECT_EQ(countOps(module, IrOp::HqSyscallMsg), 1);
}

TEST(Pipeline, RetPtrAttrsSetOnQualifyingFunctions)
{
    Module module = funcPtrModule();
    LoweringOptions options;
    options.mode = LoweringMode::Hq;
    options.retptr_messages = true;
    runPass(module, std::make_unique<InitialLoweringPass>(options));
    // main has alloca + store + ret: qualifies.
    EXPECT_TRUE(module.functions[1].attrs.instrument_return);
    // callee has no alloca: exempt.
    EXPECT_FALSE(module.functions[0].attrs.instrument_return);
}

} // namespace
} // namespace hq
