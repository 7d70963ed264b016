/**
 * @file
 * Benchmark runner: builds a profile's program, instruments it for a
 * CFI design, executes it against a live kernel/verifier harness, and
 * classifies the outcome with the paper's Table 4 taxonomy (errors,
 * false positives, invalid output, OK) plus timing and message metrics
 * for the performance figures.
 */

#ifndef HQ_WORKLOADS_RUNNER_H
#define HQ_WORKLOADS_RUNNER_H

#include <map>
#include <string>

#include "cfi/design.h"
#include "ipc/channel.h"
#include "workloads/spec_profiles.h"

namespace hq {

/** Classified result of one (benchmark, design) execution. */
struct BenchmarkOutcome
{
    std::string benchmark;
    std::string design;
    ExitKind exit = ExitKind::Ok;

    bool error = false;      //!< crash, hang, kill, or modeled ABI break
    bool false_positive = false; //!< violation flagged on benign behavior
    bool genuine_violation = false; //!< real bug found (omnetpp UAF)
    bool invalid = false;    //!< completed with wrong output
    bool ok = false;         //!< completed, correct, no false positives

    double seconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t verifier_messages = 0;
    std::uint64_t verifier_max_entries = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t syscall_waits = 0;   //!< syscalls that had to block
    std::uint64_t spec_syscalls = 0;   //!< retired ahead of their ack
    std::uint64_t max_spec_depth = 0;  //!< peak speculation depth
    std::uint64_t checksum = 0;
};

/** Execution options shared across a harness sweep. */
struct RunnerOptions
{
    /** AppendWrite transport for HQ designs (Figure 3 variants). */
    ChannelKind channel = ChannelKind::UarchModel;
    /** Workload scale factor (fraction of profile.work_items). */
    double scale = 0.05;
    /** Kill on violation (effectiveness) vs continue (correctness). */
    bool kill_on_violation = false;
    /**
     * Apply the documented modeled outcomes (CCFI ABI break / x87
     * precision, old-LLVM baseline bugs) that cannot arise mechanically
     * in a portable VM. Disable to see only mechanical results.
     */
    bool apply_modeled_outcomes = true;
    /** FPGA MMIO posted-write latency model (ns per write). */
    std::uint32_t fpga_mmio_ns = 51;
    /** Channel capacity in messages. */
    std::size_t channel_capacity = 1 << 14;
    /** Timing repetitions for relativePerformance (min-of-N). */
    int perf_reps = 3;
    /** Verifier shard count (1 = serial; 0 = auto-detect). */
    std::size_t num_shards = 1;
    /** Run the shard health watchdog during HQ runs (observability
     *  demos; off for benches so timing is undisturbed). */
    bool health_enabled = false;
    /** Kernel gate speculation window (0 = strict; clamped by the
     *  kernel to KernelModule::kMaxSpeculationWindow). */
    std::size_t speculation_window = 0;
    /** Elide the gate for read-only syscalls (§5.3.3 improvement). */
    bool elide_readonly = false;
};

class WorkloadRunner
{
  public:
    explicit WorkloadRunner(RunnerOptions options = RunnerOptions());

    /** Run one benchmark under one design and classify the outcome. */
    BenchmarkOutcome run(const SpecProfile &profile, CfiDesign design);

    /**
     * Baseline run without the modern devirtualization optimizations —
     * the version-specific baseline CCFI (LLVM 3.4) and CPI (LLVM 3.3)
     * are normalized against in §5 ("Baseline-CCFI"/"Baseline-CPI").
     */
    BenchmarkOutcome runOldBaseline(const SpecProfile &profile);

    /**
     * Relative performance of a design on a benchmark: baseline time /
     * design time (1.0 = no overhead). Uses the version-matched
     * baseline (devirtualization disabled for CCFI/CPI, as in §5).
     */
    double relativePerformance(const SpecProfile &profile,
                               CfiDesign design);

    const RunnerOptions &options() const { return _options; }

  private:
    /** Reference checksum from an uninstrumented run (cached). */
    std::uint64_t baselineChecksum(const SpecProfile &profile);

    /** Timed run; returns the outcome without classification. */
    BenchmarkOutcome execute(const SpecProfile &profile, CfiDesign design,
                             bool devirtualize_baseline);

    RunnerOptions _options;
    std::map<std::string, std::uint64_t> _checksum_cache;
};

} // namespace hq

#endif // HQ_WORKLOADS_RUNNER_H
