#include "policy/data_flow.h"

namespace hq {

std::uint64_t
DataFlowContext::lastWriter(Addr address) const
{
    const std::uint64_t *writer = _last_writer.find(address);
    return writer == nullptr ? kInitialWriter : *writer;
}

Status
DataFlowContext::handleMessage(const Message &message)
{
    switch (message.op) {
      case Opcode::DfiWrite:
        // Writer ids above 63 cannot be expressed in a read's allowed
        // bitmask; clamp defensively (the instrumentation assigns dense
        // small ids).
        _last_writer.insertOrAssign(message.arg0, message.arg1 & 63);
        return Status::ok();

      case Opcode::DfiRead: {
        const std::uint64_t writer = lastWriter(message.arg0);
        const std::uint64_t allowed_mask = message.arg1;
        if ((allowed_mask >> writer) & 1)
            return Status::ok();
        ++_violations;
        return Status::error(StatusCode::PolicyViolation,
                             "data-flow-integrity: " +
                                 message.toString());
      }

      default:
        return Status::ok(); // other policies' traffic
    }
}

std::unique_ptr<PolicyContext>
DataFlowContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<DataFlowContext>(child);
    clone->_last_writer = _last_writer;
    return clone;
}

} // namespace hq
