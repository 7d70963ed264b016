/**
 * @file
 * Appendable Memory Region (AMR) — architectural state of the
 * AppendWrite-µarch ISA extension (paper §2.3.2, §3.1.2).
 *
 * The extension adds two privileged per-core registers, AppendAddr and
 * MaxAppendAddr, naming the virtual addresses of the next and
 * one-past-the-end message slots of the AMR. Userspace executes the
 * AppendWrite instruction with a pointer to a fixed-size message; the
 * processor copies the message to *AppendAddr and auto-increments the
 * register, or faults to the kernel when the region is exhausted. Other
 * unprivileged writes to AMR pages are rejected by the MMU.
 *
 * This model keeps the register semantics explicit (byte-granularity
 * AppendAddr within a virtual window) while backing storage with a
 * lock-free SPSC ring: the paper assigns one AMR per writer core with a
 * single reader core, which is exactly the SPSC discipline. The kernel
 * fault handler is modeled by the Full result; the software MODEL channel
 * resolves it by waiting for the verifier to drain the region, as the
 * paper's HQ-CFI-*-MODEL variant does.
 */

#ifndef HQ_UARCH_AMR_H
#define HQ_UARCH_AMR_H

#include <atomic>
#include <cstddef>

#include "common/types.h"
#include "ipc/message.h"
#include "ipc/spsc_ring.h"

namespace hq {

/** Outcome of one AppendWrite instruction. */
enum class AppendResult {
    Ok,    //!< message copied, AppendAddr advanced
    Full,  //!< AppendAddr would exceed MaxAppendAddr: fault to kernel
};

/** One appendable memory region with its per-core register pair. */
class Amr
{
  public:
    /**
     * @param capacity_messages number of message slots in the region
     * @param virtual_base      modeled virtual address of the region
     */
    explicit Amr(std::size_t capacity_messages,
                 Addr virtual_base = 0x7f0000000000ULL);

    /**
     * Execute the AppendWrite instruction: bounds-check against
     * MaxAppendAddr, copy the message, auto-increment AppendAddr.
     */
    AppendResult appendWrite(const Message &message);

    /**
     * Reader-core zero-copy receive: view the appended slots in place
     * (the reader core maps the region) without releasing them.
     */
    PeekResult peek(RecvSpan &out) { return _ring.peekSpan(out); }

    /** Release the oldest count slots of the last peek() view. */
    void consume(std::size_t count) { _ring.consume(count); }

    /**
     * Kernel fault-handler action: reset the register pair to reuse the
     * region. Only legal once the reader has drained all messages.
     * @return false when messages are still pending.
     */
    bool resetRegisters();

    /** Value of the (privileged) AppendAddr register. */
    Addr appendAddr() const;

    /** Value of the (privileged) MaxAppendAddr register. */
    Addr maxAppendAddr() const { return _max_append_addr; }

    /** Messages appended but not yet read. */
    std::size_t pending() const { return _ring.size(); }

    std::size_t capacityMessages() const { return _capacity; }

  private:
    SpscRing _ring;
    const std::size_t _capacity;
    const Addr _virtual_base;
    const Addr _max_append_addr;
    /// Total messages ever appended; AppendAddr is derived from it so the
    /// register value reflects the architectural auto-increment. Written
    /// only by the producer (appendWrite), read atomically by anyone.
    std::atomic<std::uint64_t> _appended{0};
    std::atomic<std::uint64_t> _reg_epoch_base{0};
};

} // namespace hq

#endif // HQ_UARCH_AMR_H
