#include "policy/ifc.h"

#include "telemetry/telemetry.h"

namespace hq {

HQ_TELEMETRY_HANDLE(ifcChecksCounter, Counter, "verifier.ifc.checks")
HQ_TELEMETRY_HANDLE(ifcViolationsCounter, Counter, "verifier.ifc.violations")
HQ_TELEMETRY_HANDLE(ifcJoinsCounter, Counter, "verifier.ifc.label_joins")

std::uint64_t
IfcContext::labelOf(Addr address) const
{
    const std::uint64_t *label = _labels.find(address);
    return label == nullptr ? label::kPublic : *label;
}

Status
IfcContext::handleMessage(const Message &message)
{
    switch (message.op) {
      case Opcode::LabelDef:
        // PUBLIC is the bottom element and the table's implicit default;
        // storing it would only bloat the slice, so clear instead.
        if (message.arg1 == label::kPublic)
            _labels.erase(message.arg0);
        else
            _labels.insertOrAssign(message.arg0, message.arg1);
        return Status::ok();

      case Opcode::LabelJoin: {
        if (telemetry::enabled())
            ifcJoinsCounter().add(1);
        const std::uint64_t src = labelOf(message.arg0);
        if (src == label::kPublic)
            return Status::ok(); // join with bottom is a no-op
        _labels.insertOrAssign(message.arg1, labelOf(message.arg1) | src);
        return Status::ok();
      }

      case Opcode::LabelCheck: {
        if (telemetry::enabled())
            ifcChecksCounter().add(1);
        const std::uint64_t flowing = labelOf(message.arg0);
        const std::uint64_t forbidden = message.arg1;
        if ((flowing & forbidden) == 0)
            return Status::ok();
        ++_violations;
        if (telemetry::enabled())
            ifcViolationsCounter().add(1);
        return Status::error(StatusCode::PolicyViolation,
                             "information-flow-control: " +
                                 message.toString());
      }

      default:
        return Status::ok(); // other policies' traffic
    }
}

std::unique_ptr<PolicyContext>
IfcContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<IfcContext>(child);
    clone->_labels = _labels;
    return clone;
}

std::vector<std::pair<Addr, std::uint64_t>>
IfcContext::tableSnapshot() const
{
    std::vector<std::pair<Addr, std::uint64_t>> entries;
    entries.reserve(_labels.size());
    _labels.forRange(0, kMaxAddr,
                     [&entries](Addr address, std::uint64_t label) {
                         entries.emplace_back(address, label);
                     });
    return entries;
}

std::uint64_t
IfcContext::tableFingerprint() const
{
    std::uint64_t hash = 0xcbf29ce484222325ull; // FNV-1a offset basis
    auto mix = [&hash](std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (i * 8)) & 0xFF;
            hash *= 0x100000001b3ull;
        }
    };
    _labels.forRange(0, kMaxAddr, [&mix](Addr address, std::uint64_t label) {
        mix(address);
        mix(label);
    });
    return hash;
}

} // namespace hq
