#include "uarch/amr.h"

namespace hq {

Amr::Amr(std::size_t capacity_messages, Addr virtual_base)
    : _ring(capacity_messages),
      _capacity(_ring.capacity()),
      _virtual_base(virtual_base),
      _max_append_addr(virtual_base + _capacity * sizeof(Message))
{
}

AppendResult
Amr::appendWrite(const Message &message)
{
    // The hardware comparator checks AppendAddr < MaxAppendAddr; in this
    // model the ring-full condition is the equivalent exhaustion test
    // (the kernel recycles the region by resetting registers once read).
    if (!_ring.tryPush(message))
        return AppendResult::Full;
    // Only the producer writes the counter, so a plain load and store
    // stand in for a locked read-modify-write; appendAddr() readers
    // still see a whole value through the atomic load.
    _appended.store(_appended.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    return AppendResult::Ok;
}

bool
Amr::resetRegisters()
{
    if (_ring.size() != 0)
        return false;
    _reg_epoch_base.store(_appended.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return true;
}

Addr
Amr::appendAddr() const
{
    const std::uint64_t appended =
        _appended.load(std::memory_order_relaxed);
    const std::uint64_t base =
        _reg_epoch_base.load(std::memory_order_relaxed);
    const std::uint64_t in_epoch = appended - base;
    return _virtual_base + (in_epoch % _capacity) * sizeof(Message);
}

} // namespace hq
