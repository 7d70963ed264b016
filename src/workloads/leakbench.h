/**
 * @file
 * LeakBench: a RIPE-style corpus of *data-only* attacks.
 *
 * Every scenario is a small program whose control flow stays entirely
 * valid — no code pointer is ever corrupted — while secret or tainted
 * bytes are moved into a public sink through a memory-safety or logic
 * bug. That makes the corpus the IFC counterpart of the RIPE suite: a
 * CFI-only verifier must ACCEPT every run (the attack "succeeds", its
 * confirmation system call completes), and a CFI+IFC verifier must DENY
 * it (the LABEL-CHECK violation blocks the confirmation syscall even
 * though validation is asynchronous — the same bounded-speculation
 * mechanism the RIPE harness exercises).
 *
 * Sources are modeled as ir::Global ifc_label annotations (lowered by
 * IfcLoweringPass) or explicit runtime LABEL-DEF instructions for
 * heap/stack secrets (an `hq_label(p, SECRET)` annotation API); sinks
 * are ifc_sink_forbid annotations. Verdicts must be identical across
 * verifier shard counts and wire formats — the parity tests sweep
 * {1,4} shards x {v1,v2} exactly like the RIPE shard/format parity
 * gates.
 */

#ifndef HQ_WORKLOADS_LEAKBENCH_H
#define HQ_WORKLOADS_LEAKBENCH_H

#include <string>
#include <vector>

#include "ipc/frame.h"
#include "ir/module.h"

namespace hq {

/** The data-only attack corpus. */
enum class LeakScenario {
    HeapOobIndex,      //!< unchecked index reads an adjacent heap secret
    StackOobIndex,     //!< unchecked index reads an adjacent stack secret
    FormatLeak,        //!< %s-style walk over memory containing a secret
    TaintedSyscallArg, //!< unsanitized input reaches a syscall-arg sink
    CopyLaunder,       //!< secret -> temp -> sink copy chain
    DoubleCopyLaunder, //!< secret laundered through two temporaries
    ArithLaunder,      //!< secret XOR-"encrypted" before reaching the sink
    DoubleFetch,       //!< validated snapshot, then a second raw fetch
    StructOverread,    //!< copy overruns a public prefix into a secret field
    PtrRedirectRead,   //!< corrupted data pointer redirects a benign read
};

const char *leakScenarioName(LeakScenario scenario);

/** Every scenario, in enum order. */
std::vector<LeakScenario> leakScenarioSuite();

/** Which policy families the verifier enforces. */
enum class PolicySuite {
    CfiOnly,    //!< pointer-integrity only: blind to data-only leaks
    CfiPlusIfc, //!< pointer integrity + IFC labels on one stream
};

const char *policySuiteName(PolicySuite suite);

/** Build the (uninstrumented) victim program for one scenario. */
ir::Module buildLeakModule(LeakScenario scenario);

struct LeakResult
{
    bool leaked = false;   //!< confirmation store landed (attack success)
    bool detected = false; //!< the verifier flagged a violation
    std::uint64_t ifc_violations = 0; //!< LABEL-CHECK failures recorded
    std::string detail;
};

/**
 * Execute one scenario under one policy suite. The victim is always
 * instrumented identically (IfcLoweringPass + HQ CFI pipeline): the
 * policy suite decides only what the verifier enforces, so the
 * CFI-alone=accept / CFI+IFC=deny contrast isolates the policy, not
 * the instrumentation.
 *
 * @param num_shards verifier shard count; verdicts must not depend on it
 * @param format wire format; verdicts must be identical for v1 and v2
 */
LeakResult runLeakAttack(LeakScenario scenario, PolicySuite suite,
                         std::size_t num_shards = 1,
                         WireFormat format = WireFormat::V1);

} // namespace hq

#endif // HQ_WORKLOADS_LEAKBENCH_H
