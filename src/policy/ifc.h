/**
 * @file
 * Taint / information-flow-control label policy.
 *
 * The second policy family on the HerQules message stream (the paper's
 * §4.3 argues the queue is policy-agnostic; LIO-style label tracking is
 * the canonical non-CFI example). Labels form a join-semilattice encoded
 * as a 64-bit bitmask: PUBLIC (0) is bottom, each bit is an independent
 * taint facet (SECRET, TAINTED, ...), and the join of two labels is
 * their bitwise OR. The instrumented program reports
 *
 *   LABEL-DEF(a, label)   bind `label` to address a (0 clears it)
 *   LABEL-JOIN(src, dst)  data flowed src -> dst; label(dst) |= label(src)
 *   LABEL-CHECK(a, forbid) value at a reaches a sink forbidding `forbid`
 *
 * and the verifier keeps a per-process address->label OrderedMap slice,
 * flagging any check whose joined label intersects the sink's forbidden
 * set — the signature of a data-only leak that CFI cannot see (control
 * flow stays entirely valid).
 */

#ifndef HQ_POLICY_IFC_H
#define HQ_POLICY_IFC_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ordered_map.h"
#include "policy/policy.h"

namespace hq {

/** Well-known label facets (any of the 64 bits is a valid facet). */
namespace label {
constexpr std::uint64_t kPublic = 0;       //!< lattice bottom
constexpr std::uint64_t kTainted = 1u << 0; //!< attacker-influenced input
constexpr std::uint64_t kSecret = 1u << 1;  //!< confidential data
} // namespace label

class IfcContext : public PolicyContext
{
  public:
    explicit IfcContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _labels.size(); }
    const char *violationFamily() const override { return "ifc"; }

    /** Current label of an address (kPublic when unlabeled). */
    std::uint64_t labelOf(Addr address) const;

    std::uint64_t violationCount() const { return _violations; }

    /**
     * Fingerprint of the label table (FNV-1a over the (address, label)
     * pairs in address order). Two tables holding identical bindings
     * fingerprint identically whatever order they were built in — the
     * crash-recovery replay tests compare a replayed verifier's table
     * against an uncrashed reference with this.
     */
    std::uint64_t tableFingerprint() const;

    /** Sorted (address, label) snapshot (test hook). */
    std::vector<std::pair<Addr, std::uint64_t>> tableSnapshot() const;

  private:
    Pid _pid;
    /// Address -> label bitmask, the same ordered slice as the CFI
    /// shadow store; unlabeled (PUBLIC) addresses hold no entry so
    /// entryCount() reflects only live taint.
    OrderedMap<Addr, std::uint64_t> _labels;
    std::uint64_t _violations = 0;
};

class IfcPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<IfcContext>(pid);
    }

  private:
    std::string _name = "information-flow-control";
};

} // namespace hq

#endif // HQ_POLICY_IFC_H
