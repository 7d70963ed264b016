#include "policy/policy_module.h"

namespace hq {

Status
MultiPolicyContext::handleMessage(const Message &message)
{
    _last_family = "";
    for (Slot &slot : _slots) {
        Status status = slot.context->handleMessage(message);
        if (!status.isOk()) {
            _last_family = slot.family.c_str();
            return status;
        }
    }
    return Status::ok();
}

std::unique_ptr<PolicyContext>
MultiPolicyContext::cloneForChild(Pid child) const
{
    std::vector<Slot> clones;
    clones.reserve(_slots.size());
    for (const Slot &slot : _slots)
        clones.push_back({slot.family, slot.context->cloneForChild(child)});
    return std::make_unique<MultiPolicyContext>(std::move(clones));
}

std::size_t
MultiPolicyContext::entryCount() const
{
    std::size_t total = 0;
    for (const Slot &slot : _slots)
        total += slot.context->entryCount();
    return total;
}

PolicyContext *
MultiPolicyContext::contextFor(const std::string &family)
{
    for (Slot &slot : _slots) {
        if (slot.family == family)
            return slot.context.get();
    }
    return nullptr;
}

MultiPolicy &
MultiPolicy::add(std::unique_ptr<PolicyModule> module)
{
    _modules.push_back(std::move(module));
    return *this;
}

MultiPolicy &
MultiPolicy::addPolicy(std::unique_ptr<Policy> policy)
{
    return add(std::make_unique<PolicyModuleAdapter>(std::move(policy)));
}

std::unique_ptr<PolicyContext>
MultiPolicy::makeContext(Pid pid)
{
    std::vector<MultiPolicyContext::Slot> slots;
    slots.reserve(_modules.size());
    for (auto &module : _modules) {
        if (!module->appliesTo(pid))
            continue;
        slots.push_back({module->family(), module->makeContext(pid)});
    }
    return std::make_unique<MultiPolicyContext>(std::move(slots));
}

} // namespace hq
