#include "policy/memory_safety.h"

#include "common/log.h"

namespace hq {

Status
MemorySafetyContext::violation(MemoryViolation kind, const Message &message)
{
    _last_violation = kind;
    ++_violations;
    return Status::error(StatusCode::PolicyViolation,
                         "memory-safety: " + message.toString());
}

bool
MemorySafetyContext::findContaining(Addr address, Addr &base_out) const
{
    // Non-empty live allocations never overlap (enforced on CREATE/
    // EXTEND), so the only candidate is the nearest non-empty one at or
    // below address. Zero-size allocations contain nothing; step past
    // any that sit in between.
    auto alloc = _allocations.floor(address);
    while (alloc && alloc->value == 0 && alloc->key != 0)
        alloc = _allocations.floor(alloc->key - 1);
    if (!alloc || address - alloc->key >= alloc->value)
        return false;
    base_out = alloc->key;
    return true;
}

bool
MemorySafetyContext::overlapsExisting(Addr base, Addr last) const
{
    // [base, last] overlaps a live allocation when one contains base, or
    // when any allocation (even an empty one) starts inside (base, last].
    Addr containing;
    if (findContaining(base, containing))
        return true;
    if (base == last)
        return false;
    const auto next = _allocations.lowerBound(base + 1);
    return next && next->key <= last;
}

bool
MemorySafetyContext::isLive(Addr address) const
{
    Addr base;
    return findContaining(address, base);
}

Status
MemorySafetyContext::handleMessage(const Message &message)
{
    switch (message.op) {
      case Opcode::Init:
      case Opcode::Syscall:
      case Opcode::Heartbeat:
      case Opcode::EventCount:
        return Status::ok();

      case Opcode::BlockSize:
        _pending_block_size = message.arg0;
        return Status::ok();

      case Opcode::AllocCreate: {
        const Addr base = message.arg0;
        const std::uint64_t size = message.arg1;
        if (size != 0) {
            Addr last;
            if (!rangeLast(base, size, last))
                return violation(MemoryViolation::AddressWrap, message);
            if (overlapsExisting(base, last))
                return violation(MemoryViolation::OverlapCreate, message);
        }
        _allocations.insertOrAssign(base, size);
        return Status::ok();
      }

      case Opcode::AllocCheck: {
        Addr base;
        if (!findContaining(message.arg0, base))
            return violation(MemoryViolation::OutOfBounds, message);
        return Status::ok();
      }

      case Opcode::AllocCheckBase: {
        Addr base1, base2;
        const bool ok1 = findContaining(message.arg0, base1);
        const bool ok2 = findContaining(message.arg1, base2);
        if (!ok1 || !ok2)
            return violation(MemoryViolation::OutOfBounds, message);
        if (base1 != base2)
            return violation(MemoryViolation::CrossAllocation, message);
        return Status::ok();
      }

      case Opcode::AllocExtend: {
        const Addr src = message.arg0;
        const Addr dst = message.arg1;
        const std::uint64_t size = _pending_block_size;
        _pending_block_size = 0;
        if (!_allocations.erase(src))
            return violation(MemoryViolation::InvalidFree, message);
        // Reinstate nothing when the extend target is invalid.
        if (size != 0) {
            Addr last;
            if (!rangeLast(dst, size, last))
                return violation(MemoryViolation::AddressWrap, message);
            if (overlapsExisting(dst, last))
                return violation(MemoryViolation::OverlapCreate, message);
        }
        _allocations.insertOrAssign(dst, size);
        return Status::ok();
      }

      case Opcode::AllocDestroy:
        if (!_allocations.erase(message.arg0))
            return violation(MemoryViolation::InvalidFree, message);
        return Status::ok();

      case Opcode::AllocDestroyAll: {
        if (message.arg1 == 0)
            return violation(MemoryViolation::InvalidFree, message);
        Addr last;
        rangeLast(message.arg0, message.arg1, last); // clamps a wrap
        if (_allocations.eraseRange(message.arg0, last) == 0)
            return violation(MemoryViolation::InvalidFree, message);
        return Status::ok();
      }

      default:
        logWarn("memory-safety ignoring ", message.toString());
        return Status::ok();
    }
}

std::unique_ptr<PolicyContext>
MemorySafetyContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<MemorySafetyContext>(child);
    clone->_allocations = _allocations;
    clone->_pending_block_size = _pending_block_size;
    return clone;
}

} // namespace hq
