/**
 * @file
 * Execution-policy interface for the verifier (paper §4).
 *
 * A Policy is a factory for per-process PolicyContexts. The verifier
 * allocates a context when a monitored process enables HerQules, copies
 * it on fork/clone, and destroys it at process exit (§3.4). Each context
 * consumes the process's AppendWrite message stream and reports
 * violations through Status.
 */

#ifndef HQ_POLICY_POLICY_H
#define HQ_POLICY_POLICY_H

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "ipc/message.h"

namespace hq {

/** Per-process policy state. */
class PolicyContext
{
  public:
    virtual ~PolicyContext() = default;

    /**
     * Consume one message from the monitored process.
     * @return PolicyViolation status when a check fails; Ok otherwise.
     */
    virtual Status handleMessage(const Message &message) = 0;

    /** Deep-copy the context for a fork/clone child. */
    virtual std::unique_ptr<PolicyContext> cloneForChild(Pid child) const = 0;

    /**
     * Number of metadata entries held (the §5.4 memory-overhead metric:
     * 16-byte pointer-value pairs for the CFI policy).
     */
    virtual std::size_t entryCount() const { return 0; }

    /**
     * Short policy-family tag ("cfi", "ifc", "dfi", ...) attached to
     * JSONL violation records as the "policy" field. Composite contexts
     * return the family of the module that raised the most recent
     * violation; the default covers contexts predating policy
     * diversity.
     */
    virtual const char *violationFamily() const { return ""; }
};

/** A policy: names itself and mints per-process contexts. */
class Policy
{
  public:
    virtual ~Policy() = default;

    virtual const std::string &name() const = 0;

    virtual std::unique_ptr<PolicyContext> makeContext(Pid pid) = 0;
};

} // namespace hq

#endif // HQ_POLICY_POLICY_H
