#include "uarch/uarch_model_channel.h"

#include <thread>

namespace hq {

UarchModelChannel::UarchModelChannel(std::size_t capacity)
    : _amr(capacity),
      _traits{"AppendWrite-uarch (MODEL)", /*appendOnly=*/true,
              /*asyncValidation=*/true, "Mem. Write"}
{
}

Status
UarchModelChannel::sendImpl(const Message &message)
{
    while (_amr.appendWrite(message) == AppendResult::Full) {
        // Modeled fault to the kernel: the region is exhausted, so wait
        // for the verifier (reader core) to drain it.
        std::this_thread::yield();
    }
    return Status::ok();
}

} // namespace hq
