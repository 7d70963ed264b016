/**
 * @file
 * The HerQules runtime messaging library (paper §3.2, Table 6
 * "Runtime"). Statically linked into the (recompiled) C library of the
 * monitored program, it owns the process's AppendWrite channel and
 * translates instrumentation callbacks into messages. It also fronts
 * the kernel module for process lifecycle and system-call gating.
 */

#ifndef HQ_RUNTIME_RUNTIME_H
#define HQ_RUNTIME_RUNTIME_H

#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "ipc/channel.h"
#include "kernel/kernel.h"

namespace hq {

class HqRuntime
{
  public:
    /**
     * @param pid     simulated process id
     * @param channel the process's AppendWrite channel
     * @param kernel  the kernel module (syscall gate + lifecycle)
     */
    HqRuntime(Pid pid, Channel &channel, KernelModule &kernel)
        : _pid(pid), _channel(channel), _kernel(kernel)
    {}

    /** Enable HerQules for this process (Figure 1 step 1a/1b). */
    Status
    enable()
    {
        Status status = _kernel.enableProcess(_pid);
        if (!status.isOk())
            return status;
        send(Message(Opcode::Init, /*abi=*/1));
        return Status::ok();
    }

    /** Tear down the process (exit interception). */
    void exit() { _kernel.exitProcess(_pid); }

    /** Pause at a system call until the verifier acknowledges. */
    Status
    syscallEnter(std::uint64_t sysno, bool spin_fast_path = true)
    {
        return _kernel.syscallEnter(_pid, sysno, spin_fast_path);
    }

    // --- Message emission (instrumentation callbacks) -----------------

    void
    send(Message message)
    {
        message.pid = _pid;
        _channel.send(message);
        ++_messages_sent;
    }

    void
    sendDefine(Addr p, std::uint64_t v)
    {
        send(Message(Opcode::PointerDefine, p, v));
    }

    void
    sendCheck(Addr p, std::uint64_t v)
    {
        send(Message(Opcode::PointerCheck, p, v));
    }

    void
    sendInvalidate(Addr p)
    {
        send(Message(Opcode::PointerInvalidate, p));
    }

    void
    sendCheckInvalidate(Addr p, std::uint64_t v)
    {
        send(Message(Opcode::PointerCheckInvalidate, p, v));
    }

    void
    sendBlockCopy(Addr src, Addr dst, std::uint64_t size)
    {
        send(Message(Opcode::BlockSize, size));
        send(Message(Opcode::PointerBlockCopy, src, dst));
    }

    void
    sendBlockMove(Addr src, Addr dst, std::uint64_t size)
    {
        send(Message(Opcode::BlockSize, size));
        send(Message(Opcode::PointerBlockMove, src, dst));
    }

    void
    sendBlockInvalidate(Addr p, std::uint64_t size)
    {
        send(Message(Opcode::PointerBlockInvalidate, p, size));
    }

    void
    sendSyscallMsg(std::uint64_t sysno)
    {
        send(Message(Opcode::Syscall, sysno));
    }

    // Memory-safety policy messages (§4.2).

    void
    sendAllocCreate(Addr a, std::uint64_t size)
    {
        send(Message(Opcode::AllocCreate, a, size));
    }

    void
    sendAllocCheck(Addr a)
    {
        send(Message(Opcode::AllocCheck, a));
    }

    void
    sendAllocExtend(Addr src, Addr dst, std::uint64_t size)
    {
        send(Message(Opcode::BlockSize, size));
        send(Message(Opcode::AllocExtend, src, dst));
    }

    void
    sendAllocDestroy(Addr a)
    {
        send(Message(Opcode::AllocDestroy, a));
    }

    void
    sendAllocDestroyAll(Addr a, std::uint64_t size)
    {
        send(Message(Opcode::AllocDestroyAll, a, size));
    }

    Pid pid() const { return _pid; }
    std::uint64_t messagesSent() const { return _messages_sent; }

    /** Messages sent but not yet received by the verifier. */
    std::size_t pendingMessages() const { return _channel.pending(); }
    KernelModule &kernel() { return _kernel; }

  private:
    Pid _pid;
    Channel &_channel;
    KernelModule &_kernel;
    std::uint64_t _messages_sent = 0;
};

} // namespace hq

#endif // HQ_RUNTIME_RUNTIME_H
