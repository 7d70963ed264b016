/**
 * @file
 * Device model of the AppendWrite-FPGA Accelerator Functional Unit
 * (paper §3.1.1).
 *
 * The real artifact is a custom AFU on an Intel Arria 10 PAC: the
 * monitored program decomposes each message into word-granularity
 * uncached MMIO register writes; the AFU reassembles them, stamps the
 * process identifier from a kernel-managed PID register (updated on every
 * context switch, guaranteeing authenticity), attaches a consecutive
 * per-message counter (the AFU has no back-pressure, so the verifier
 * detects drops via counter gaps), and writes the message back into a
 * pinned huge-page circular buffer in the verifier's address space.
 *
 * This model reproduces the register-transaction interface exactly:
 *  - reg kRegArg0: 8-byte latch for the first operation argument;
 *  - regs kRegCommitBase + 8*opcode: operation-specific commit registers;
 *    writing the second argument commits (opcode, latched arg0, data).
 *    One-argument operations write their argument straight to the commit
 *    register, so every message costs at most two MMIO writes.
 *  - reg kRegPid: privileged PID register, written by the kernel model.
 *
 * The MMIO-write cost (store-buffer occupancy + uncore traversal + PCIe
 * posted TLP, measured at ~102 ns per message in Table 2) is modeled by
 * an optional calibrated busy-wait per register write, so end-to-end runs
 * experience a genuine sender-side stall.
 */

#ifndef HQ_FPGA_AFU_H
#define HQ_FPGA_AFU_H

#include <atomic>
#include <cstdint>

#include "common/types.h"
#include "ipc/message.h"
#include "ipc/spsc_ring.h"

namespace hq {

/** Tunables of the FPGA device model. */
struct FpgaConfig
{
    /** Host circular-buffer capacity, in messages (paper: 1 GB). */
    std::size_t host_buffer_messages = 1 << 16;
    /**
     * Modeled latency of one uncached MMIO posted write, nanoseconds;
     * 0 turns the latency model off (functional-only mode for tests).
     */
    std::uint32_t mmio_write_ns = 51;
};

/** The AFU register file and reassembly/writeback pipeline. */
class FpgaAfu
{
  public:
    /// MMIO offsets (byte addresses in the AFU BAR).
    static constexpr std::uint32_t kRegArg0 = 0x00;
    static constexpr std::uint32_t kRegCommitBase = 0x100;
    /// Privileged registers (kernel-mapped page).
    static constexpr std::uint32_t kRegPid = 0x800;

    explicit FpgaAfu(const FpgaConfig &config);

    /**
     * One userspace MMIO posted write of 8 bytes. Writes to the commit
     * window assemble and enqueue a message; unknown offsets are ignored
     * (matching posted-write semantics: no response, no fault).
     */
    void mmioWrite(std::uint32_t offset, std::uint64_t data);

    /** Kernel context-switch hook: load the PID register. */
    void setPidRegister(Pid pid);

    /**
     * Verifier-side read from the host circular buffer: view the
     * queued writeback slots in place (the pinned buffer is the
     * verifier's own mapping) and release them with hostConsume() only
     * after they verify.
     */
    PeekResult
    hostPeekSpan(RecvSpan &out)
    {
        return _host_buffer.peekSpan(out);
    }

    /** Release the first count slots of the last hostPeekSpan() view. */
    void hostConsume(std::size_t count) { _host_buffer.consume(count); }

    /** Messages written back but not yet read by the verifier. */
    std::size_t hostPending() const { return _host_buffer.size(); }

    /** Messages dropped because the host buffer was full (no back-pressure). */
    std::uint64_t droppedMessages() const
    {
        return _dropped.load(std::memory_order_relaxed);
    }

    /** Number of MMIO writes needed to transmit op (1 or 2). */
    static int mmioWritesFor(Opcode op);

    const FpgaConfig &config() const { return _config; }

  private:
    /// Model the uncached-store + PCIe posted-TLP cost of one MMIO write.
    void stallForMmioWrite() const;

    FpgaConfig _config;
    SpscRing _host_buffer;
    std::uint64_t _arg0_latch = 0;
    std::atomic<Pid> _pid_register{0};
    std::uint32_t _next_seq = 0;
    std::atomic<std::uint64_t> _dropped{0};
};

} // namespace hq

#endif // HQ_FPGA_AFU_H
