/**
 * @file
 * Data-flow integrity policy (§4.3 names DFI as an example of the
 * broader policy family HerQules supports; the mechanism follows
 * Castro et al., OSDI'06).
 *
 * The compiler assigns each store instruction a writer id and computes,
 * per load, the set of writer ids reaching it (the static data-flow
 * graph). At runtime the program reports DFI-WRITE(addr, writer) before
 * each protected store and DFI-READ(addr, allowed_mask) before each
 * protected load; the verifier keeps a last-writer table and flags
 * loads observing a value produced by a disallowed writer — the
 * signature of a memory-corruption attack on non-control data.
 */

#ifndef HQ_POLICY_DATA_FLOW_H
#define HQ_POLICY_DATA_FLOW_H

#include <cstdint>

#include "common/ordered_map.h"
#include "policy/policy.h"

namespace hq {

class DataFlowContext : public PolicyContext
{
  public:
    /** Writer id assigned to not-yet-written memory. */
    static constexpr std::uint64_t kInitialWriter = 0;

    explicit DataFlowContext(Pid pid) : _pid(pid) {}

    Status handleMessage(const Message &message) override;
    std::unique_ptr<PolicyContext> cloneForChild(Pid child) const override;
    std::size_t entryCount() const override { return _last_writer.size(); }
    const char *violationFamily() const override { return "dfi"; }

    std::uint64_t violationCount() const { return _violations; }

    /** Last recorded writer of an address (kInitialWriter if none). */
    std::uint64_t lastWriter(Addr address) const;

  private:
    Pid _pid;
    /// DFI last-writer table: every protected load and store probes it,
    /// in the same ordered slice as the other per-address tables.
    OrderedMap<Addr, std::uint64_t> _last_writer;
    std::uint64_t _violations = 0;
};

class DataFlowPolicy : public Policy
{
  public:
    const std::string &name() const override { return _name; }

    std::unique_ptr<PolicyContext>
    makeContext(Pid pid) override
    {
        return std::make_unique<DataFlowContext>(pid);
    }

  private:
    std::string _name = "data-flow-integrity";
};

} // namespace hq

#endif // HQ_POLICY_DATA_FLOW_H
