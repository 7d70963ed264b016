/**
 * @file
 * The AppendWrite message format (paper §3.1).
 *
 * Each message is a fixed-size structure with a 4-byte operation code and
 * two 8-byte operation arguments. The FPGA implementation additionally
 * carries a 4-byte process identifier stamped by the device from a
 * kernel-managed PID register, plus a per-message sequence counter used to
 * detect dropped messages (the AFU has no back-pressure mechanism).
 *
 * Operations that logically take three parameters (the block-memory
 * messages POINTER-BLOCK-COPY/MOVE and ALLOCATION-EXTEND take src, dst,
 * and size) are encoded as a BlockSize message carrying the size followed
 * by the two-argument operation, mirroring the paper's note that
 * "operation-specific registers enable messages to be created using at
 * most two MMIO writes".
 */

#ifndef HQ_IPC_MESSAGE_H
#define HQ_IPC_MESSAGE_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace hq {

/**
 * Policy-dependent operation codes.
 *
 * Pointer* codes implement the control-flow integrity policy (§4.1.3,
 * §4.1.5), Alloc* codes the memory-safety policy (§4.2), EventCount the
 * toy counting policy from §2, and Syscall the System-Call
 * synchronization message of bounded asynchronous validation (§2.2).
 */
enum class Opcode : std::uint32_t {
    Invalid = 0,

    /// Monitored program enabled HerQules; arg0 = runtime ABI version.
    Init,

    /// System-Call synchronization message; arg0 = syscall number.
    Syscall,

    /// Sets the pending block size for the next Block/Extend operation.
    BlockSize,

    // --- Control-flow integrity (pointer integrity) -----------------
    /// POINTER-DEFINE(p, v): define pointer at address p with value v.
    PointerDefine,
    /// POINTER-CHECK(p, v): validate pointer at p holds value v.
    PointerCheck,
    /// POINTER-INVALIDATE(p): remove the pointer at address p.
    PointerInvalidate,
    /// POINTER-CHECK-INVALIDATE(p, v): check then invalidate (returns).
    PointerCheckInvalidate,
    /// POINTER-BLOCK-COPY(src, dst): copy pointers (size from BlockSize).
    PointerBlockCopy,
    /// POINTER-BLOCK-MOVE(src, dst): move pointers (size from BlockSize).
    PointerBlockMove,
    /// POINTER-BLOCK-INVALIDATE(p, sz): invalidate pointers in [p, p+sz).
    PointerBlockInvalidate,

    // --- Memory safety (§4.2) ---------------------------------------
    /// ALLOCATION-CREATE(a, sz).
    AllocCreate,
    /// ALLOCATION-CHECK(a).
    AllocCheck,
    /// ALLOCATION-CHECK-BASE(a1, a2).
    AllocCheckBase,
    /// ALLOCATION-EXTEND(src, dst): size comes from BlockSize.
    AllocExtend,
    /// ALLOCATION-DESTROY(a).
    AllocDestroy,
    /// ALLOCATION-DESTROY-ALL(a, sz).
    AllocDestroyAll,

    // --- Other policies (§4.3) --------------------------------------
    /// Event counter increment; arg0 = counter id, arg1 = delta.
    EventCount,
    /// Watchdog heartbeat; arg0 = monotonic tick.
    Heartbeat,
    /// Data-flow integrity write: arg0 = address, arg1 = writer id.
    DfiWrite,
    /// Data-flow integrity read: arg0 = address, arg1 = bitmask of
    /// writer ids allowed to have produced the value (ids 0..63;
    /// bit 0 is the initial/uninitialized writer).
    DfiRead,
    /// Memory tagging (MTE-style): tag region arg0 of size
    /// (arg1 >> 8) with tag (arg1 & 0xFF).
    TagSet,
    /// Memory tagging: access at arg0 carries pointer tag arg1; it must
    /// match the containing region's memory tag.
    TagCheck,

    // --- Information-flow control (taint/IFC labels) ----------------
    /// LABEL-DEF(a, label): bind lattice label arg1 to address arg0.
    /// label 0 (PUBLIC, the lattice bottom) clears the binding.
    LabelDef,
    /// LABEL-CHECK(a, forbid): the value at arg0 flows into a sink that
    /// forbids the label bits in arg1; any overlap is a violation.
    LabelCheck,
    /// LABEL-JOIN(src, dst): the value at src was copied/combined into
    /// dst; dst's label becomes the lattice join (bitwise OR) of both.
    LabelJoin,

    NumOpcodes,
};

/** Human-readable opcode name for logs and tests. */
const char *opcodeName(Opcode op);

/**
 * One AppendWrite message.
 *
 * The wire format is 32 bytes. pid and seq are populated by the transport
 * (the FPGA device model stamps pid from its kernel-managed register and
 * seq from its per-message counter; software channels stamp pid at the
 * trusted sender-registration layer).
 */
struct Message
{
    Opcode op = Opcode::Invalid;
    std::uint32_t pid = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint32_t seq = 0;
    std::uint32_t pad = 0;

    Message() = default;

    Message(Opcode op, std::uint64_t arg0, std::uint64_t arg1 = 0)
        : op(op), arg0(arg0), arg1(arg1)
    {}

    bool
    operator==(const Message &other) const
    {
        return op == other.op && pid == other.pid && arg0 == other.arg0 &&
               arg1 == other.arg1;
    }

    /** Render "OPCODE(arg0, arg1) pid=N seq=N" for logs. */
    std::string toString() const;
};

static_assert(sizeof(Message) == 32, "Message must be a 32-byte structure");

/**
 * CRC32 (reflected, poly 0xEDB88320) over the first 28 bytes of the
 * wire format — everything except `pad`, which carries the checksum
 * itself. Software channels stamp it in Channel::send; the FPGA AFU
 * restamps after assigning pid/seq. The verifier checks it in the v1
 * decode step of its drain: a mismatch is a CorruptMsg violation and
 * the payload is never interpreted (fail closed).
 */
std::uint32_t messageCrc(const Message &message);

} // namespace hq

#endif // HQ_IPC_MESSAGE_H
