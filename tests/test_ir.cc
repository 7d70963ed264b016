/**
 * @file
 * Unit tests for the mini-IR: types, builder, CFG, dominator and
 * post-dominator trees, module verification, and the compiler analyses
 * (slot resolution, function-pointer taint, escape).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "compiler/analysis.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "ir/cfg.h"
#include "ir/dominators.h"
#include "ir/verify.h"

namespace hq {
namespace {

using namespace ir;

TEST(Types, ProtectedPointerKinds)
{
    EXPECT_TRUE(TypeRef::funcPtr(0).isProtectedPtr());
    EXPECT_TRUE(TypeRef::vtablePtr().isProtectedPtr());
    EXPECT_FALSE(TypeRef::intTy().isProtectedPtr());
    EXPECT_FALSE(TypeRef::dataPtr().isProtectedPtr());
}

TEST(Types, StructContainsFuncPtrTransitively)
{
    Module module;
    IrBuilder builder(module);

    StructInfo inner;
    inner.name = "inner";
    inner.size = 16;
    inner.fields = {{0, TypeRef::intTy()}, {8, TypeRef::funcPtr(0)}};
    const int inner_id = builder.addStruct(inner);

    StructInfo outer;
    outer.name = "outer";
    outer.size = 24;
    outer.fields = {{0, TypeRef::intTy()},
                    {8, TypeRef::structTy(inner_id)}};
    const int outer_id = builder.addStruct(outer);

    StructInfo plain;
    plain.name = "plain";
    plain.size = 16;
    plain.fields = {{0, TypeRef::intTy()}, {8, TypeRef::dataPtr()}};
    const int plain_id = builder.addStruct(plain);

    EXPECT_TRUE(module.structContainsFuncPtr(inner_id));
    EXPECT_TRUE(module.structContainsFuncPtr(outer_id));
    EXPECT_FALSE(module.structContainsFuncPtr(plain_id));
    EXPECT_FALSE(module.structContainsFuncPtr(-1));
}

/** Build a trivial function: ret 0. */
Module
trivialModule()
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int zero = builder.constInt(0);
    builder.ret(zero);
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

TEST(Builder, TrivialFunctionVerifies)
{
    Module module = trivialModule();
    EXPECT_TRUE(verifyModule(module).isOk());
    EXPECT_EQ(module.instructionCount(), 2u);
}

TEST(Builder, SingleAssignmentRegisters)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f", /*num_params=*/2);
    const int c = builder.constInt(7);
    const int sum = builder.arith(ArithKind::Add, builder.param(0), c);
    EXPECT_NE(c, sum);
    EXPECT_GE(c, 2); // params take r0, r1
    builder.ret(sum);
    builder.endFunction();
    module.entry_function = 0;
    EXPECT_TRUE(verifyModule(module).isOk());
}

TEST(Verify, CatchesMissingTerminator)
{
    Module module = trivialModule();
    module.functions[0].blocks[0].instrs.pop_back(); // drop ret
    EXPECT_FALSE(verifyModule(module).isOk());
}

TEST(Verify, CatchesDoubleDefinition)
{
    Module module = trivialModule();
    Instr dup = module.functions[0].blocks[0].instrs[0];
    module.functions[0].blocks[0].instrs.insert(
        module.functions[0].blocks[0].instrs.begin(), dup);
    EXPECT_FALSE(verifyModule(module).isOk());
}

TEST(Verify, CatchesBadBranchTarget)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    builder.br(0);
    builder.endFunction();
    module.entry_function = 0;
    module.functions[0].blocks[0].instrs.back().target0 = 99;
    EXPECT_FALSE(verifyModule(module).isOk());
}

TEST(Verify, CatchesBadEntryFunction)
{
    Module module = trivialModule();
    module.entry_function = 5;
    EXPECT_FALSE(verifyModule(module).isOk());
}

/**
 * main: r0 = const; a System-Call message; `between` (operand r0,
 * unless Nop); optionally a branch into a new block; then the syscall.
 */
Module
syscallMessageModule(IrOp between, bool via_branch)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int addr = builder.constInt(0x1000);
    Instr msg;
    msg.op = IrOp::HqSyscallMsg;
    msg.imm = 1;
    builder.emit(msg);
    Instr instr;
    instr.op = between;
    instr.a = addr;
    instr.imm = 1;
    builder.emit(instr);
    if (via_branch) {
        const int next = builder.newBlock();
        builder.br(next);
        builder.setBlock(next);
    }
    builder.syscall(1);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

TEST(Verify, SyscallMessageMustDirectlyPrecedeItsSyscall)
{
    EXPECT_TRUE(verifyModule(syscallMessageModule(IrOp::Nop, false)).isOk());
    EXPECT_TRUE(verifyModule(syscallMessageModule(IrOp::Nop, true)).isOk());

    // A label check between the message and its syscall: the syscall
    // could be acked before the check is processed.
    for (bool via_branch : {false, true}) {
        const Status status = verifyModule(
            syscallMessageModule(IrOp::LabelCheckMsg, via_branch));
        EXPECT_FALSE(status.isOk());
        EXPECT_NE(status.message().find("ifc.labelcheck"),
                  std::string::npos)
            << status.toString();
    }

    // A message with no syscall after it.
    Module module = trivialModule();
    Instr msg;
    msg.op = IrOp::HqSyscallMsg;
    auto &instrs = module.functions[0].blocks[0].instrs;
    instrs.insert(instrs.end() - 1, msg);
    EXPECT_FALSE(verifyModule(module).isOk());
}

TEST(IrOpTable, MessageOpsAreTheRangesToolsCount)
{
    // Message sites are counted by these two enum ranges.
    for (int i = 0; i < static_cast<int>(IrOp::NumOps); ++i) {
        const IrOp op = static_cast<IrOp>(i);
        const bool in_ranges =
            (op >= IrOp::HqDefine && op <= IrOp::HqSyscallMsg) ||
            (op >= IrOp::DfiWriteMsg && op <= IrOp::LabelJoinMsg);
        EXPECT_EQ(emitsMessage(op), in_ranges) << irOpName(op);
        if (emitsMessage(op)) {
            EXPECT_TRUE(ordersBeforeSyscall(op)) << irOpName(op);
        }
    }
}

TEST(IrOpTable, MnemonicsAreDistinct)
{
    std::set<std::string> names;
    for (int i = 0; i < static_cast<int>(IrOp::NumOps); ++i) {
        const char *name = irOpName(static_cast<IrOp>(i));
        EXPECT_STRNE(name, "?");
        EXPECT_TRUE(names.insert(name).second) << name;
    }
    EXPECT_STREQ(irOpName(IrOp::NumOps), "?");
}

/**
 * Diamond CFG:        bb0
 *                    /    \
 *                  bb1    bb2
 *                    \    /
 *                     bb3 (ret)
 */
Module
diamondModule()
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("diamond", 1);
    const int bb1 = builder.newBlock();
    const int bb2 = builder.newBlock();
    const int bb3 = builder.newBlock();
    builder.condBr(builder.param(0), bb1, bb2);
    builder.setBlock(bb1);
    builder.br(bb3);
    builder.setBlock(bb2);
    builder.br(bb3);
    builder.setBlock(bb3);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

TEST(Cfg, DiamondEdges)
{
    Module module = diamondModule();
    Cfg cfg(module.functions[0]);
    EXPECT_EQ(cfg.successors(0).size(), 2u);
    EXPECT_EQ(cfg.predecessors(3).size(), 2u);
    EXPECT_EQ(cfg.exitBlocks(), std::vector<int>{3});
    EXPECT_EQ(cfg.reversePostorder().front(), 0);
    EXPECT_EQ(cfg.reversePostorder().back(), 3);
    EXPECT_TRUE(cfg.reachable(2));
}

TEST(Cfg, UnreachableBlockDetected)
{
    Module module = diamondModule();
    // Add an unreachable block.
    module.functions[0].blocks.emplace_back();
    Instr term;
    term.op = IrOp::Ret;
    module.functions[0].blocks.back().instrs.push_back(term);
    Cfg cfg(module.functions[0]);
    EXPECT_FALSE(cfg.reachable(4));
    EXPECT_EQ(cfg.rpoIndex(4), -1);
}

TEST(Dominators, Diamond)
{
    Module module = diamondModule();
    Cfg cfg(module.functions[0]);
    DominatorTree dom(cfg);
    EXPECT_EQ(dom.idom(0), -1);
    EXPECT_EQ(dom.idom(1), 0);
    EXPECT_EQ(dom.idom(2), 0);
    EXPECT_EQ(dom.idom(3), 0); // join point dominated by entry only
    EXPECT_TRUE(dom.dominates(0, 3));
    EXPECT_FALSE(dom.dominates(1, 3));
    EXPECT_TRUE(dom.dominates(2, 2));
}

TEST(Dominators, PostDominanceDiamond)
{
    Module module = diamondModule();
    Cfg cfg(module.functions[0]);
    DominatorTree pdom(cfg, /*post=*/true);
    // bb3 post-dominates everything.
    EXPECT_TRUE(pdom.dominates(3, 0));
    EXPECT_TRUE(pdom.dominates(3, 1));
    EXPECT_TRUE(pdom.dominates(3, 2));
    EXPECT_FALSE(pdom.dominates(1, 0)); // bb0 can bypass bb1 via bb2
}

TEST(Dominators, LinearChain)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("chain");
    const int bb1 = builder.newBlock();
    const int bb2 = builder.newBlock();
    builder.br(bb1);
    builder.setBlock(bb1);
    builder.br(bb2);
    builder.setBlock(bb2);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    Cfg cfg(module.functions[0]);
    DominatorTree dom(cfg);
    DominatorTree pdom(cfg, true);
    EXPECT_EQ(dom.idom(2), 1);
    EXPECT_EQ(dom.idom(1), 0);
    EXPECT_TRUE(pdom.dominates(2, 0));
    EXPECT_TRUE(pdom.dominates(1, 0));
}

TEST(Dominators, LoopBackEdge)
{
    // bb0 -> bb1 <-> bb2 ; bb1 -> bb3(ret)
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("loop", 1);
    const int bb1 = builder.newBlock();
    const int bb2 = builder.newBlock();
    const int bb3 = builder.newBlock();
    builder.br(bb1);
    builder.setBlock(bb1);
    builder.condBr(builder.param(0), bb2, bb3);
    builder.setBlock(bb2);
    builder.br(bb1);
    builder.setBlock(bb3);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    Cfg cfg(module.functions[0]);
    DominatorTree dom(cfg);
    EXPECT_EQ(dom.idom(1), 0);
    EXPECT_EQ(dom.idom(2), 1);
    EXPECT_EQ(dom.idom(3), 1);
    EXPECT_TRUE(dom.dominates(1, 2));
    EXPECT_FALSE(dom.dominates(2, 1));
}

// ---------------------------------------------------------------------
// FunctionAnalysis
// ---------------------------------------------------------------------

TEST(Analysis, SlotResolutionThroughCastAndOffset)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    const int slot = builder.allocaOp(32);
    const int casted = builder.cast(slot, TypeRef::dataPtr());
    const int eight = builder.constInt(8);
    const int field = builder.arith(ArithKind::Add, casted, eight);
    builder.store(field, builder.constInt(1), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    const SlotRef resolved = fa.slotOf(field);
    EXPECT_EQ(resolved.base, SlotRef::Base::Stack);
    EXPECT_EQ(resolved.id, 0);
    EXPECT_EQ(resolved.offset, 8u);
    EXPECT_TRUE(resolved.exact_offset);
}

TEST(Analysis, VariableIndexLosesOffsetPrecision)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f", 1);
    const int slot = builder.allocaOp(64);
    const int idx = builder.param(0);
    const int addr = builder.arith(ArithKind::Add, slot, idx);
    builder.store(addr, builder.constInt(1), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    const SlotRef resolved = fa.slotOf(addr);
    EXPECT_EQ(resolved.base, SlotRef::Base::Stack);
    EXPECT_FALSE(resolved.exact_offset);
}

TEST(Analysis, UnresolvableAddress)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f", 1);
    const int loaded = builder.load(builder.param(0), TypeRef::dataPtr());
    builder.store(loaded, builder.constInt(0), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    EXPECT_EQ(fa.slotOf(loaded).base, SlotRef::Base::Unknown);
}

TEST(Analysis, TaintRule1DefinedFromFuncPtr)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("target");
    builder.ret();
    builder.endFunction();
    builder.beginFunction("f");
    const int fp = builder.funcAddr(0, /*signature_class=*/0);
    const int decayed = builder.cast(fp, TypeRef::intTy()); // decay!
    const int slot = builder.allocaOp(8);
    builder.store(slot, decayed, TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    FunctionAnalysis fa(module, module.functions[1]);
    EXPECT_TRUE(fa.isTainted(fp));
    EXPECT_TRUE(fa.isTainted(decayed));
    // The int-typed slot is protected because a tainted value is stored.
    EXPECT_TRUE(fa.isProtectedStackSlot(0));
}

TEST(Analysis, TaintRule2UseCastToFuncPtr)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f", 1);
    const int raw = builder.load(builder.param(0), TypeRef::intTy());
    const int as_fp = builder.cast(raw, TypeRef::funcPtr(0));
    builder.callIndirect(as_fp, {}, 0);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    // Rule (2): raw's value is used as a function pointer, so raw is
    // treated as one.
    EXPECT_TRUE(fa.isTainted(raw));
    EXPECT_TRUE(fa.isTainted(as_fp));
}

TEST(Analysis, UntaintedIntStays)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    const int value = builder.constInt(42);
    const int slot = builder.allocaOp(8);
    builder.store(slot, value, TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    EXPECT_FALSE(fa.isTainted(value));
    EXPECT_FALSE(fa.isProtectedStackSlot(0));
}

TEST(Analysis, EscapeViaCallArgument)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("callee", 1);
    builder.ret();
    builder.endFunction();
    builder.beginFunction("f");
    const int kept = builder.allocaOp(8);
    const int leaked = builder.allocaOp(8);
    builder.callDirect(0, {leaked});
    builder.store(kept, builder.constInt(1), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    FunctionAnalysis fa(module, module.functions[1]);
    EXPECT_FALSE(fa.stackSlotEscapes(0));
    EXPECT_TRUE(fa.stackSlotEscapes(1));
}

TEST(Analysis, EscapeViaStoredAddress)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("f");
    const int slot = builder.allocaOp(8);
    const int holder = builder.allocaOp(8);
    builder.store(holder, slot, TypeRef::dataPtr()); // &slot escapes
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    EXPECT_TRUE(fa.stackSlotEscapes(0));
    EXPECT_FALSE(fa.stackSlotEscapes(1));
}

TEST(Analysis, GlobalsAlwaysEscape)
{
    Module module;
    IrBuilder builder(module);
    Global g;
    g.name = "g";
    g.size = 8;
    const int gid = builder.addGlobal(g);
    builder.beginFunction("f");
    const int addr = builder.globalAddr(gid);
    builder.store(addr, builder.constInt(0), TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;

    FunctionAnalysis fa(module, module.functions[0]);
    const SlotRef slot = fa.slotOf(addr);
    EXPECT_EQ(slot.base, SlotRef::Base::Global);
    EXPECT_TRUE(fa.slotEscapes(slot));
}

TEST(Analysis, GlobalWithFuncPtrInitIsProtected)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("handler");
    builder.ret();
    builder.endFunction();
    Global g;
    g.name = "dispatch_table";
    g.size = 16;
    g.funcptr_init = {{0, 0}};
    const int gid = builder.addGlobal(g);
    builder.beginFunction("f");
    const int addr = builder.globalAddr(gid);
    builder.load(addr, TypeRef::intTy());
    builder.ret();
    builder.endFunction();
    module.entry_function = 1;

    FunctionAnalysis fa(module, module.functions[1]);
    EXPECT_TRUE(fa.isProtectedSlot(fa.slotOf(addr)));
}

TEST(Printer, DumpContainsStructure)
{
    Module module = diamondModule();
    module.name = "demo";
    module.functions[0].attrs.returns_twice = true;
    Global g;
    g.name = "table";
    g.size = 16;
    g.funcptr_init = {{0, 0}};
    module.globals.push_back(g);
    module.globals.back().id = 0;

    const std::string dump = printModule(module);
    EXPECT_NE(dump.find("module demo"), std::string::npos);
    EXPECT_NE(dump.find("func @diamond"), std::string::npos);
    EXPECT_NE(dump.find("returns_twice"), std::string::npos);
    EXPECT_NE(dump.find("global @table"), std::string::npos);
    EXPECT_NE(dump.find("bb3:"), std::string::npos);
    EXPECT_NE(dump.find("condbr"), std::string::npos);
}

TEST(Printer, MarksInstrumentedInstructions)
{
    Module module = diamondModule();
    Instr msg;
    msg.op = IrOp::HqSyscallMsg;
    msg.flags = kFlagInstrumentation;
    auto &entry = module.functions[0].blocks[0].instrs;
    entry.insert(entry.begin(), msg);
    const std::string dump =
        printFunction(module, module.functions[0]);
    EXPECT_NE(dump.find("; instrumented"), std::string::npos);
}

TEST(Analysis, DefSitesForParamsAreInvalid)
{
    Module module = diamondModule();
    FunctionAnalysis fa(module, module.functions[0]);
    EXPECT_FALSE(fa.def(0).valid()); // parameter
    EXPECT_EQ(fa.defInstr(0), nullptr);
}

} // namespace
} // namespace hq
