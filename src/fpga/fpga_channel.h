/**
 * @file
 * Channel adapter over the FPGA device model — the "-FPGA" variant.
 *
 * send() performs the same register-level transaction sequence the
 * paper's runtime library uses: latch arg0 (two-argument operations
 * only), then write the operation-specific commit register. The PID is
 * never supplied by the sender; the AFU stamps it from its kernel-managed
 * register, which is what gives the FPGA path message authenticity.
 */

#ifndef HQ_FPGA_FPGA_CHANNEL_H
#define HQ_FPGA_FPGA_CHANNEL_H

#include "fpga/afu.h"
#include "ipc/channel.h"

namespace hq {

class FpgaChannel : public Channel
{
  public:
    explicit FpgaChannel(const FpgaConfig &config = FpgaConfig());

    Status sendImpl(const Message &message) override;
    /// The device stamps one self-checking v1 message per slot, so the
    /// channel stays v1-only — but the verifier can still validate
    /// those messages in place in the pinned host buffer.
    PeekResult tryPeekSpan(RecvSpan &out) override
    {
        return _afu.hostPeekSpan(out);
    }
    void consumeSlots(std::size_t count) override
    {
        _afu.hostConsume(count);
    }
    std::size_t pending() const override { return _afu.hostPending(); }
    const ChannelTraits &traits() const override { return _traits; }

    /** Direct access to the device model (kernel/verifier interfaces). */
    FpgaAfu &afu() { return _afu; }
    const FpgaAfu &afu() const { return _afu; }

  private:
    FpgaAfu _afu;
    ChannelTraits _traits;
};

} // namespace hq

#endif // HQ_FPGA_FPGA_CHANNEL_H
