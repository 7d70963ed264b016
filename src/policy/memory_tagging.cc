#include "policy/memory_tagging.h"

namespace hq {

int
MemoryTaggingContext::tagOf(Addr address) const
{
    const auto region = _regions.floor(address);
    Addr last;
    if (!region || !rangeLast(region->key, region->value.size, last) ||
        address > last)
        return -1;
    return region->value.tag;
}

Status
MemoryTaggingContext::handleMessage(const Message &message)
{
    switch (message.op) {
      case Opcode::TagSet: {
        Region region;
        region.size = message.arg1 >> 8;
        region.tag = static_cast<std::uint8_t>(message.arg1 & 0xFF);
        if (region.size == 0) {
            // Retagging to size 0 removes the region (deallocation).
            _regions.erase(message.arg0);
            return Status::ok();
        }
        _regions.insertOrAssign(message.arg0, region);
        return Status::ok();
      }

      case Opcode::TagCheck: {
        const int memory_tag = tagOf(message.arg0);
        const auto pointer_tag =
            static_cast<int>(message.arg1 & 0xFF);
        if (memory_tag >= 0 && memory_tag == pointer_tag)
            return Status::ok();
        ++_violations;
        return Status::error(StatusCode::PolicyViolation,
                             "memory-tagging: " + message.toString());
      }

      default:
        return Status::ok();
    }
}

std::unique_ptr<PolicyContext>
MemoryTaggingContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<MemoryTaggingContext>(child);
    clone->_regions = _regions;
    return clone;
}

} // namespace hq
