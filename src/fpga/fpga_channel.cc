#include "fpga/fpga_channel.h"

namespace hq {

FpgaChannel::FpgaChannel(const FpgaConfig &config)
    : _afu(config),
      _traits{"AppendWrite-FPGA", /*appendOnly=*/true,
              /*asyncValidation=*/true, "Mem. Write"}
{
}

Status
FpgaChannel::sendImpl(const Message &message)
{
    const std::uint32_t commit_reg =
        FpgaAfu::kRegCommitBase +
        8 * static_cast<std::uint32_t>(message.op);

    if (FpgaAfu::mmioWritesFor(message.op) == 1) {
        _afu.mmioWrite(commit_reg, message.arg0);
    } else {
        _afu.mmioWrite(FpgaAfu::kRegArg0, message.arg0);
        _afu.mmioWrite(commit_reg, message.arg1);
    }
    return Status::ok();
}

} // namespace hq
