/**
 * @file
 * Instruction set of the mini-IR.
 *
 * The IR is register-based with single assignment (every instruction
 * defines a fresh virtual register; mutable program variables live in
 * memory slots created by Alloca or globals, as in unoptimized LLVM IR).
 * Control flow is explicit: every basic block ends in exactly one
 * terminator (Ret/Br/CondBr).
 *
 * Instrumentation opcodes (Hq*, CfiTypeCheck, Mac*, Safe*) never appear
 * in source programs; they are inserted by the compiler passes of the
 * CFI design being built (src/compiler, src/cfi) and executed by the VM.
 */

#ifndef HQ_IR_INSTR_H
#define HQ_IR_INSTR_H

#include <cstdint>
#include <string>
#include <vector>

#include "ipc/message.h"
#include "ir/type.h"

namespace hq::ir {

/**
 * Which AppendWrite message executing an IrOp sends, and where each
 * argument comes from (R[x] is the value of operand register x).
 */
enum class MsgShape : std::uint8_t {
    None,         //!< sends no message
    A,            //!< wire(R[a])
    AB,           //!< wire(R[a], R[b])
    AImm,         //!< wire(R[a], imm)
    Imm,          //!< wire(imm)
    SizedAB,      //!< BlockSize(R[c]), then wire(R[a], R[b])
    RuntimeBlock, //!< may send block messages at runtime: the op's own
                  //!< VM case sends them when kFlagEmitBlockMsg is set
};

/**
 * Every per-opcode fact, one row per IrOp in enum order:
 *
 *     X(op, mnemonic, message shape, call-like (0/1), wire Opcode)
 *
 * Call-like ops may leave the function (calls, setjmp/longjmp, the
 * system call itself). A new opcode declares here whether it emits a
 * message; the VM's message send, the core model's AppendWrite count
 * and System-Call message placement all read it from this table.
 *
 * Keep the order: message sites are counted by the contiguous ranges
 * HqDefine..HqSyscallMsg and DfiWriteMsg..LabelJoinMsg, instrumentation
 * ops by HqDefine..LabelJoinMsg.
 */
#define HQ_IR_OPS(X)                                                           \
    X(Nop, "nop", None, 0, Invalid)                                            \
    /* --- Values */                                                           \
    X(ConstInt, "const", None, 0, Invalid) /* dest = imm */                    \
    X(FuncAddr, "funcaddr", None, 0, Invalid) /* dest = &function #imm */      \
    X(GlobalAddr, "globaladdr", None, 0, Invalid) /* dest = &global #imm */    \
    X(Alloca, "alloca", None, 0, Invalid) /* dest = new imm-byte slot */       \
    X(Arith, "arith", None, 0, Invalid) /* dest = op(a, b); aux: ArithKind */  \
    X(Cast, "cast", None, 0, Invalid) /* dest = a as `type` (casts/decay) */   \
    /* --- Memory (`type`: value or element type) */                           \
    X(Load, "load", None, 0, Invalid) /* dest = mem[a] */                      \
    X(Store, "store", None, 0, Invalid) /* mem[a] = b */                       \
    X(Memcpy, "memcpy", RuntimeBlock, 0, Invalid) /* dst=a, src=b, size=c */   \
    X(Memmove, "memmove", RuntimeBlock, 0, Invalid) /* dst=a, src=b, size=c */ \
    X(Malloc, "malloc", None, 0, Invalid) /* dest = a bytes (imm if a < 0) */  \
    X(Free, "free", RuntimeBlock, 0, Invalid) /* free(a) */                    \
    X(Realloc, "realloc", RuntimeBlock, 0, Invalid) /* dest = realloc(a, b) */ \
    /* --- Control flow */                                                     \
    X(CallDirect, "call", None, 1, Invalid) /* dest = function #imm(args) */   \
    X(CallIndirect, "icall", None, 1, Invalid) /* dest = funcptr a(args) */    \
    X(VCall, "vcall", None, 1, Invalid) /* object a, slot imm; aux: class */   \
    X(Syscall, "syscall", None, 1, Invalid) /* system call #imm */             \
    X(Setjmp, "setjmp", None, 1, Invalid) /* dest = 0; token to mem[a] */      \
    X(Longjmp, "longjmp", None, 1, Invalid) /* to mem[a]; setjmp returns b */  \
    X(RetAddrAddr, "retaddraddr", None, 0, Invalid) /* dest = &retptr slot */  \
    X(Ret, "ret", None, 0, Invalid) /* return a (if a >= 0) */                 \
    X(Br, "br", None, 0, Invalid) /* goto target0 */                           \
    X(CondBr, "condbr", None, 0, Invalid) /* a ? target0 : target1 */          \
    /* --- HerQules instrumentation (messages over AppendWrite) */             \
    X(HqDefine, "hq.define", AB, 0, PointerDefine)                             \
    X(HqCheck, "hq.check", AB, 0, PointerCheck)                                \
    X(HqInvalidate, "hq.invalidate", A, 0, PointerInvalidate)                  \
    X(HqCheckInvalidate, "hq.checkinvalidate", AB, 0, PointerCheckInvalidate)  \
    X(HqBlockCopy, "hq.blockcopy", SizedAB, 0, PointerBlockCopy)               \
    X(HqBlockMove, "hq.blockmove", SizedAB, 0, PointerBlockMove)               \
    X(HqBlockInvalidate, "hq.blockinvalidate", AB, 0, PointerBlockInvalidate)  \
    X(HqSyscallMsg, "hq.syscall", Imm, 0, Syscall) /* sysno imm */             \
    X(HqGuardEnter, "hq.guard.enter", None, 0, Invalid) /* forwarding guard */ \
    X(HqGuardExit, "hq.guard.exit", None, 0, Invalid)                          \
    /* --- Data-flow integrity (§4.3): addr a, writer id / writer mask imm */  \
    X(DfiWriteMsg, "dfi.write", AImm, 0, DfiWrite)                             \
    X(DfiReadMsg, "dfi.read", AImm, 0, DfiRead)                                \
    /* --- Information-flow control: addr a, label / forbidden mask imm */     \
    X(LabelDefMsg, "ifc.labeldef", AImm, 0, LabelDef)                          \
    X(LabelCheckMsg, "ifc.labelcheck", AImm, 0, LabelCheck)                    \
    X(LabelJoinMsg, "ifc.labeljoin", AB, 0, LabelJoin) /* src a, dst b */      \
    /* --- Baseline CFI designs (inline, in-process checks) */                 \
    X(CfiTypeCheck, "cfi.typecheck", None, 0, Invalid) /* a in class imm */    \
    X(MacDefine, "ccfi.macdefine", None, 0, Invalid) /* MAC(addr a, val b) */  \
    X(MacCheck, "ccfi.maccheck", None, 0, Invalid) /* MAC(addr a, val b) */    \
    X(SafeStore, "cpi.safestore", None, 0, Invalid) /* mem'[a] = b */          \
    X(SafeLoad, "cpi.safeload", None, 0, Invalid) /* dest = mem'[a] */

enum class IrOp : std::uint8_t {
#define HQ_IR_ENUM(op, name, msg, call_like, wire) op,
    HQ_IR_OPS(HQ_IR_ENUM)
#undef HQ_IR_ENUM
    NumOps,
};

/** One row of HQ_IR_OPS. */
struct IrOpInfo
{
    const char *name;
    MsgShape msg;
    bool call_like;
    Opcode wire;
};

/** HQ_IR_OPS as data, indexed by IrOp; the last row stands for NumOps. */
inline constexpr IrOpInfo kIrOpInfo[] = {
#define HQ_IR_INFO(op, name, msg, call_like, wire)                         \
    {name, MsgShape::msg, call_like, Opcode::wire},
    HQ_IR_OPS(HQ_IR_INFO)
#undef HQ_IR_INFO
    {"?", MsgShape::None, false, Opcode::Invalid},
};

/** The table row of `op`; out-of-range values get the NumOps row. */
constexpr const IrOpInfo &
irOpInfo(IrOp op)
{
    return kIrOpInfo[op < IrOp::NumOps ? static_cast<int>(op)
                                       : static_cast<int>(IrOp::NumOps)];
}

/** Opcode mnemonic ("?" for out-of-range values). */
constexpr const char *
irOpName(IrOp op)
{
    return irOpInfo(op).name;
}

/** Executing `op` always sends its message (when messaging is on). */
constexpr bool
emitsMessage(IrOp op)
{
    const MsgShape msg = irOpInfo(op).msg;
    return msg != MsgShape::None && msg != MsgShape::RuntimeBlock;
}

/**
 * `op` must stay ordered before a System-Call message and its syscall:
 * it sends (or may send) a message, or may leave the function. A
 * System-Call message is never hoisted above such an op, and none may
 * sit between the message and its syscall (§2.2).
 */
constexpr bool
ordersBeforeSyscall(IrOp op)
{
    const IrOpInfo &info = irOpInfo(op);
    return info.msg != MsgShape::None || info.call_like;
}

/**
 * Sentinel signature class used by Clang/LLVM CFI virtual-call checks:
 * the runtime accepts any target that is a virtual method (member of
 * some class vtable).
 */
inline constexpr std::uint64_t kAnyVtableClass = 0xFFFFFF;

/** Binary operation selector for IrOp::Arith. */
enum class ArithKind : std::uint8_t {
    Add, Sub, Mul, Xor, And, Or, Shr, Lt, Eq,
};

/** Per-instruction flag bits (set by the builder and compiler passes). */
enum InstrFlags : std::uint32_t {
    /** Load reads from read-only memory (vtables): no check needed. */
    kFlagReadOnlySource = 1u << 0,
    /** Volatile/atomic access: excluded from forwarding optimization. */
    kFlagVolatile = 1u << 1,
    /** Block op / free must emit runtime block messages (FinalLowering). */
    kFlagEmitBlockMsg = 1u << 2,
    /** Check elided by store-to-load forwarding (counted, then erased). */
    kFlagElided = 1u << 3,
    /** Instruction was inserted by instrumentation (not source code). */
    kFlagInstrumentation = 1u << 4,
};

/** One IR instruction. See IrOp for field meanings. */
struct Instr
{
    IrOp op = IrOp::Nop;
    int dest = -1;          //!< result register (-1: none)
    int a = -1, b = -1, c = -1; //!< operand registers
    std::uint64_t imm = 0;  //!< immediate (constant, id, size, sysno)
    TypeRef type;           //!< value type where relevant
    int target0 = -1;       //!< branch target (block id)
    int target1 = -1;       //!< CondBr false target
    int aux = -1;           //!< ArithKind, devirt class id, guard id
    std::uint32_t flags = 0; //!< InstrFlags bits
    std::vector<int> args;  //!< call arguments (registers)

    bool
    isTerminator() const
    {
        return op == IrOp::Ret || op == IrOp::Br || op == IrOp::CondBr;
    }

    bool
    isCall() const
    {
        return op == IrOp::CallDirect || op == IrOp::CallIndirect ||
               op == IrOp::VCall;
    }

    /** Render a compact textual form for debugging and tests. */
    std::string toString() const;
};

} // namespace hq::ir

#endif // HQ_IR_INSTR_H
