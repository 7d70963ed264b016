#include "policy/pointer_integrity.h"

#include <vector>

#include "common/log.h"

namespace hq {

Status
PointerIntegrityContext::violation(PointerViolation kind,
                                   const Message &message)
{
    _last_violation = kind;
    ++_violations;
    return Status::error(StatusCode::PolicyViolation,
                         "pointer-integrity: " + message.toString());
}

void
PointerIntegrityContext::notePeak()
{
    if (_pointers.size() > _max_entries)
        _max_entries = _pointers.size();
}

bool
PointerIntegrityContext::lookup(Addr address, std::uint64_t &value_out) const
{
    const std::uint64_t *value = _pointers.find(address);
    if (value == nullptr)
        return false;
    value_out = *value;
    return true;
}

Status
PointerIntegrityContext::handleMessage(const Message &message)
{
    switch (message.op) {
      case Opcode::Init:
      case Opcode::Syscall:
      case Opcode::Heartbeat:
      case Opcode::EventCount:
        return Status::ok(); // not pointer-policy relevant

      case Opcode::LabelDef:
      case Opcode::LabelCheck:
      case Opcode::LabelJoin:
        // Another policy family's traffic on the shared stream (the
        // IFC label policy); a CFI-only verifier accepts it untouched.
        return Status::ok();

      case Opcode::BlockSize:
        _pending_block_size = message.arg0;
        return Status::ok();

      case Opcode::PointerDefine:
        _pointers.insertOrAssign(message.arg0, message.arg1);
        notePeak();
        return Status::ok();

      case Opcode::PointerCheck:
      case Opcode::PointerCheckInvalidate: {
        const std::uint64_t *value = _pointers.find(message.arg0);
        if (value == nullptr) {
            // Never defined or previously invalidated: a use-after-free
            // on a control-flow pointer.
            return violation(PointerViolation::UseAfterFree, message);
        }
        if (*value != message.arg1)
            return violation(PointerViolation::Corrupted, message);
        if (message.op == Opcode::PointerCheckInvalidate)
            _pointers.erase(message.arg0);
        return Status::ok();
      }

      case Opcode::PointerInvalidate:
        _pointers.erase(message.arg0);
        return Status::ok();

      case Opcode::PointerBlockCopy:
      case Opcode::PointerBlockMove: {
        const Addr src = message.arg0;
        const Addr dst = message.arg1;
        const std::uint64_t size = _pending_block_size;
        _pending_block_size = 0;
        if (size == 0)
            return Status::ok();
        Addr src_last, dst_last;
        if (!rangeLast(src, size, src_last) ||
            !rangeLast(dst, size, dst_last))
            return violation(PointerViolation::AddressWrap, message);

        // Snapshot the source before erasing anything: for COPY the
        // source and destination ranges may intersect.
        std::vector<std::pair<Addr, std::uint64_t>> moved;
        _pointers.forRange(src, src_last, [&](Addr addr, std::uint64_t value) {
            moved.emplace_back(dst + (addr - src), value);
        });
        // MOVE removes the originals (realloc frees the source), and
        // pre-existing pointers in the destination are invalidated: the
        // raw bytes there were overwritten.
        if (message.op == Opcode::PointerBlockMove)
            _pointers.eraseRange(src, src_last);
        _pointers.eraseRange(dst, dst_last);
        for (const auto &[addr, value] : moved)
            _pointers.insertOrAssign(addr, value);
        notePeak();
        return Status::ok();
      }

      case Opcode::PointerBlockInvalidate: {
        const std::uint64_t size = message.arg1;
        if (size == 0)
            return Status::ok();
        Addr last;
        rangeLast(message.arg0, size, last); // clamps a wrapping end
        _pointers.eraseRange(message.arg0, last);
        return Status::ok();
      }

      default:
        // Allocation opcodes reaching the pointer policy indicate a
        // misrouted message; not a program violation.
        logWarn("pointer-integrity ignoring ", message.toString());
        return Status::ok();
    }
}

std::unique_ptr<PolicyContext>
PointerIntegrityContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<PointerIntegrityContext>(child);
    clone->_pointers = _pointers;
    clone->_pending_block_size = _pending_block_size;
    clone->_max_entries = _pointers.size();
    return clone;
}

} // namespace hq
