/**
 * @file
 * Pluggable policy modules (Schlegel-style application-specific
 * policies behind the trusted enforcement boundary).
 *
 * A PolicyModule packages one policy family — a family tag, a
 * per-process context factory, and an applicability predicate — so
 * several families (CFI, IFC, DFI, app-specific) can be registered on
 * one verifier and enforced over the same message stream. MultiPolicy
 * is the composition point: it is itself a Policy, so the verifier's
 * drain path is unchanged; its per-process context fans each message
 * out to every applicable module's sub-context and reports the first
 * failing module's verdict.
 *
 * Registration happens per-pid at context-creation time (the paper's
 * registration step 1b): appliesTo(pid) decides whether a module's
 * sub-context is minted for that process at all, so an app-specific
 * module pays nothing for processes it does not cover.
 */

#ifndef HQ_POLICY_POLICY_MODULE_H
#define HQ_POLICY_POLICY_MODULE_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "policy/policy.h"

namespace hq {

/** One pluggable policy family. */
class PolicyModule
{
  public:
    virtual ~PolicyModule() = default;

    /** Family tag carried by violation records ("cfi", "ifc", ...). */
    virtual const char *family() const = 0;

    /** Mint the per-process state for one monitored pid. */
    virtual std::unique_ptr<PolicyContext> makeContext(Pid pid) = 0;

    /**
     * Whether this module covers `pid`. Application-specific modules
     * override this to scope themselves to the processes they know;
     * the default enforces everywhere.
     */
    virtual bool
    appliesTo(Pid pid)
    {
        (void)pid;
        return true;
    }
};

/**
 * Adapts an existing Policy (PointerIntegrityPolicy & co.) into a
 * module without touching the policy class itself. The family tag
 * comes from a freshly minted context's violationFamily().
 */
class PolicyModuleAdapter : public PolicyModule
{
  public:
    explicit PolicyModuleAdapter(std::unique_ptr<Policy> policy)
        : _policy(std::move(policy)),
          _family(_policy->makeContext(0)->violationFamily())
    {}

    const char *family() const override { return _family.c_str(); }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return _policy->makeContext(pid);
    }

  private:
    std::unique_ptr<Policy> _policy;
    std::string _family;
};

/** Composite per-process context: fans messages out to every module. */
class MultiPolicyContext : public PolicyContext
{
  public:
    struct Slot
    {
        std::string family;
        std::unique_ptr<PolicyContext> context;
    };

    explicit MultiPolicyContext(std::vector<Slot> slots)
        : _slots(std::move(slots))
    {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override;
    const char *violationFamily() const override { return _last_family; }

    /** Sub-context of the module tagged `family` (nullptr if absent). */
    PolicyContext *contextFor(const std::string &family);

  private:
    std::vector<Slot> _slots;
    /// Family of the most recent violating module; every message that
    /// passes cleanly resets it so a stale tag never outlives its
    /// violation record.
    const char *_last_family = "";
};

/**
 * A Policy composed of registered PolicyModules. Register modules
 * before handing the policy to the verifier; registration order is
 * enforcement order (first failing module wins the verdict).
 */
class MultiPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    /** Register one module. Returns *this for chaining. */
    MultiPolicy &add(std::unique_ptr<PolicyModule> module);

    /** Convenience: wrap and register a plain Policy. */
    MultiPolicy &addPolicy(std::unique_ptr<Policy> policy);

    std::unique_ptr<PolicyContext> makeContext(Pid pid) override;

    std::size_t moduleCount() const { return _modules.size(); }

  private:
    std::string _name = "multi-policy";
    std::vector<std::unique_ptr<PolicyModule>> _modules;
};

} // namespace hq

#endif // HQ_POLICY_POLICY_MODULE_H
