#include "ipc/shm_channel.h"

#include <thread>

namespace hq {

ShmChannel::ShmChannel(std::size_t capacity)
    : _ring(capacity),
      _traits{"Shared Memory", /*appendOnly=*/false,
              /*asyncValidation=*/true, "Mem. Write"}
{
}

Status
ShmChannel::sendImpl(const Message &message)
{
    std::uint64_t spins = 0;
    while (!_ring.tryPush(message)) {
        if (_max_send_spins != 0 && ++spins >= _max_send_spins)
            return Status::error(
                StatusCode::Unavailable,
                "shm ring full: send spin budget exhausted (fail closed)");
        std::this_thread::yield();
    }
    return Status::ok();
}

Status
ShmChannel::sendSlotsImpl(const Message *slots, std::size_t count)
{
    if (count > _ring.capacity())
        return Status::error(StatusCode::InvalidArgument,
                             "frame larger than the shm ring");
    std::uint64_t spins = 0;
    while (!_ring.tryPushAll(slots, count)) {
        if (_max_send_spins != 0 && ++spins >= _max_send_spins)
            return Status::error(
                StatusCode::Unavailable,
                "shm ring full: send spin budget exhausted (fail closed)");
        std::this_thread::yield();
    }
    return Status::ok();
}

bool
ShmChannel::tryPeekSpan(RecvSpan &out)
{
    return _ring.peekSpan(out) != 0;
}

void
ShmChannel::consumeSlots(std::size_t count)
{
    _ring.consume(count);
}

bool
ShmChannel::corruptOldestPending(const Message &forged)
{
    return _ring.overwritePending(0, forged);
}

} // namespace hq
