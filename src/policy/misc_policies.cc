#include "policy/misc_policies.h"

namespace hq {

Status
EventCountContext::handleMessage(const Message &message)
{
    if (message.op == Opcode::EventCount)
        _counters.insertOrAssign(message.arg0,
                                 counter(message.arg0) + message.arg1);
    return Status::ok();
}

std::unique_ptr<PolicyContext>
EventCountContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<EventCountContext>(child);
    clone->_counters = _counters;
    return clone;
}

std::uint64_t
EventCountContext::counter(std::uint64_t id) const
{
    const std::uint64_t *value = _counters.find(id);
    return value == nullptr ? 0 : *value;
}

Status
WatchdogContext::handleMessage(const Message &message)
{
    if (message.op != Opcode::Heartbeat)
        return Status::ok();
    const std::uint64_t tick = message.arg0;
    if (_seen_any) {
        if (tick <= _last_tick || tick - _last_tick > _max_gap) {
            _last_tick = tick;
            return Status::error(StatusCode::PolicyViolation,
                                 "watchdog: heartbeat gap or regression");
        }
    }
    _seen_any = true;
    _last_tick = tick;
    return Status::ok();
}

std::unique_ptr<PolicyContext>
WatchdogContext::cloneForChild(Pid child) const
{
    auto clone = std::make_unique<WatchdogContext>(child, _max_gap);
    clone->_last_tick = _last_tick;
    clone->_seen_any = _seen_any;
    return clone;
}

} // namespace hq
