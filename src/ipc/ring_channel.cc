#include "ipc/ring_channel.h"

#include <thread>
#include <utility>

namespace hq {

RingChannel::RingChannel(std::size_t capacity, ChannelTraits traits)
    : _ring(capacity), _traits(std::move(traits))
{
}

RingChannel::RingChannel(void *region, std::size_t capacity,
                         ChannelTraits traits)
    : _ring(region, capacity), _traits(std::move(traits))
{
}

template <typename TryPush>
Status
RingChannel::pushOrWait(TryPush try_push)
{
    if (try_push())
        return Status::ok();
    // Full: wait for the consumer to drain, up to the send timeout.
    const auto deadline = std::chrono::steady_clock::now() + _send_timeout;
    do {
        if (_send_timeout.count() > 0 &&
            std::chrono::steady_clock::now() >= deadline)
            return Status::error(StatusCode::Unavailable,
                                 "ring full: send timed out (fail closed)");
        std::this_thread::yield();
    } while (!try_push());
    return Status::ok();
}

Status
RingChannel::sendImpl(const Message &message)
{
    return pushOrWait([&] { return _ring.tryPush(message); });
}

Status
RingChannel::sendSlotsImpl(const Message *slots, std::size_t count)
{
    if (count > _ring.capacity())
        return Status::error(StatusCode::InvalidArgument,
                             "frame larger than the ring");
    return pushOrWait([&] { return _ring.tryPushAll(slots, count); });
}

} // namespace hq
