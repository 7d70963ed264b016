#include "fpga/afu.h"

#include <chrono>
#include <thread>

#include "faultinject/fault.h"
#include "ipc/message.h"
#include "telemetry/events.h"

namespace hq {

namespace {

HQ_TELEMETRY_HANDLE(appendHist, Histogram, "fpga.append_ns")
HQ_TELEMETRY_HANDLE(messagesCounter, Counter, "fpga.messages")

} // namespace

FpgaAfu::FpgaAfu(const FpgaConfig &config)
    : _config(config), _host_buffer(config.host_buffer_messages)
{
}

int
FpgaAfu::mmioWritesFor(Opcode op)
{
    switch (op) {
      case Opcode::Init:
      case Opcode::Syscall:
      case Opcode::BlockSize:
      case Opcode::PointerInvalidate:
      case Opcode::AllocCheck:
      case Opcode::AllocDestroy:
      case Opcode::Heartbeat:
        return 1; // single argument: commit register only
      default:
        return 2; // arg0 latch + commit register
    }
}

void
FpgaAfu::stallForMmioWrite() const
{
    if (_config.mmio_write_ns == 0)
        return;
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::nanoseconds(_config.mmio_write_ns);
    while (Clock::now() < deadline) {
        // Busy-wait: uncached MMIO stores occupy store-buffer entries
        // until retirement, stalling the sender core.
    }
}

void
FpgaAfu::mmioWrite(std::uint32_t offset, std::uint64_t data)
{
    // Device append latency: the sender-side cost of one posted MMIO
    // write, modeled stall included.
    telemetry::ScopedTimer append_timer(appendHist());

    stallForMmioWrite();

    if (offset == kRegArg0) {
        _arg0_latch = data;
        return;
    }

    const std::uint32_t commit_end =
        kRegCommitBase +
        8 * static_cast<std::uint32_t>(Opcode::NumOpcodes);
    if (offset >= kRegCommitBase && offset < commit_end &&
        (offset & 7) == 0) {
        const auto op =
            static_cast<Opcode>((offset - kRegCommitBase) / 8);

        Message message;
        message.op = op;
        if (mmioWritesFor(op) == 1) {
            message.arg0 = data;
        } else {
            message.arg0 = _arg0_latch;
            message.arg1 = data;
        }
        message.pid = _pid_register.load(std::memory_order_relaxed);
        message.seq = _next_seq++;
        // Device-side CRC stamp: the AFU owns pid/seq, so it computes
        // the checksum last; host-side corruption is then detectable.
        message.pad = messageCrc(message);

        if (faultinject::fire(faultinject::Site::AfuDoorbellDelay)) {
            // Doorbell serviced late: the message becomes visible to
            // the host only after the delay (pure latency fault).
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }

        const bool overflow =
            faultinject::fire(faultinject::Site::AfuOverflow);
        if (overflow || !_host_buffer.tryPush(message)) {
            // No back-pressure mechanism: the message is lost. The
            // verifier will observe a gap in the sequence counter and
            // must terminate the monitored program (integrity violation).
            _dropped.fetch_add(1, std::memory_order_relaxed);
            telemetry::emit(telemetry::Event::RingDrop,
                            {.pid = message.pid,
                             .op = opcodeName(message.op),
                             .arg0 = message.arg0,
                             .arg1 = message.arg1,
                             .seq = message.seq,
                             .reason = "FPGA host buffer full"});
        } else if (telemetry::enabled()) {
            messagesCounter().inc();
        }
        return;
    }

    // Posted writes to unmapped offsets complete without effect.
}

void
FpgaAfu::setPidRegister(Pid pid)
{
    _pid_register.store(pid, std::memory_order_relaxed);
}

} // namespace hq
