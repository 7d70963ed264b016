/**
 * @file
 * Simulated HerQules kernel module (paper §3.3).
 *
 * The real artifact is a Linux module that intercepts system calls via
 * kprobes/tracepoints and keeps a hash table of per-process contexts.
 * The paper's context holds a boolean synchronization variable: set by
 * the verifier upon receiving the process's System-Call message, reset
 * by the module when the system call resumes. This module generalizes
 * it to a pair of counters (syscalls retired / acks credited) so one
 * admission predicate expresses both the strict boolean contract
 * (speculation window 0) and bounded speculation up to
 * Config::speculation_window syscalls ahead of verification. If no
 * synchronization message arrives within a configurable epoch, the
 * kernel treats it as a policy violation and terminates the process.
 *
 * Here the interception point is explicit: the VM's syscall handler
 * calls syscallEnter(), which blocks with the same semantics. The
 * verifier talks to the module over the privileged channel modeled by
 * the syscallResume()/killProcess() methods — direct calls that the
 * monitored program has no access to.
 */

#ifndef HQ_KERNEL_KERNEL_H
#define HQ_KERNEL_KERNEL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"

namespace hq {

/** Observer interface the verifier implements to learn process events. */
class ProcessEventListener
{
  public:
    virtual ~ProcessEventListener() = default;

    /** A process enabled HerQules (registration step 1b in Figure 1). */
    virtual void onProcessEnabled(Pid pid) = 0;

    /** fork/clone: child inherits a copy of the parent's policy context. */
    virtual void onProcessForked(Pid parent, Pid child) = 0;

    /** Process terminated; its policy context is destroyed. */
    virtual void onProcessExited(Pid pid) = 0;

    /**
     * A monitored process trapped into a gated syscall. Fired from the
     * entering thread before the gate check, with no kernel locks
     * held: the listener's chance to drain that pid's backlog while
     * the syscall spins/blocks/yields instead of at its next poll
     * tick. Default no-op; implementations must only touch their own
     * wakeup machinery (the caller is on the monitored hot path).
     */
    virtual void
    onSyscallGate(Pid pid)
    {
        (void)pid;
    }
};

/** Per-process kernel statistics (exposed for tests and harnesses). */
struct KernelProcessStats
{
    std::uint64_t syscalls = 0;       //!< intercepted system calls
    std::uint64_t waits = 0;          //!< syscalls that had to block
    std::uint64_t epoch_timeouts = 0; //!< syncs that timed out
    std::uint64_t spec_syscalls = 0;  //!< retired ahead of their own ack
    std::uint64_t max_spec_depth = 0; //!< peak unacked retirement depth
};

class KernelModule
{
  public:
    /** Upper bound on Config::speculation_window. */
    static constexpr std::size_t kMaxSpeculationWindow = 64;

    /** Configuration of bounded asynchronous validation. */
    struct Config
    {
        /** Epoch: max wait for the verifier's resume signal. */
        std::chrono::milliseconds epoch{2000};
        /**
         * Spin window before blocking: the pipelined System-Call
         * message is usually processed within the syscall's own entry
         * latency, so a short spin avoids the sleep/wake round trip.
         */
        std::chrono::microseconds spin{50};
        /**
         * Elide synchronization for read-only system calls (§5.3.3
         * lists this as a potential improvement): syscalls without
         * externally-visible side effects need no pause, because a
         * compromised program cannot use them to attack the system.
         */
        bool elide_readonly_syscalls = false;
        /**
         * Bounded speculation: how many system calls a process may
         * retire ahead of the verifier's acknowledgements. 0 (the
         * default) is the paper's strict gate — every syscall blocks
         * until its own System-Call message is acked. K > 0 trades
         * detection delay for tail latency: the process runs up to K
         * syscalls ahead, and a violation landing inside the window
         * still kills it before syscall K+1 retires (the soundness
         * bound; DESIGN.md §13). Clamped to [0, kMaxSpeculationWindow]
         * at construction, like Verifier::Config::poll_batch.
         * Speculation-barrier syscalls (isSpeculationBarrier) always
         * enforce the strict contract regardless of this setting.
         */
        std::size_t speculation_window = 0;
    };

    /** One coalesced acknowledgement (syscallResumeBatch element). */
    struct SyscallAck
    {
        Pid pid = 0;
        std::uint32_t count = 1; //!< System-Call messages acked
    };

    /** True for syscalls with no externally-visible side effects. */
    static bool isReadOnlySyscall(std::uint64_t sysno);

    /**
     * True for syscalls whose effects cannot be contained by a
     * delayed kill: process-image and control transfers (execve,
     * fork/clone, exit, kill). The gate always enforces the strict
     * ack-before-retire contract for these, regardless of
     * Config::speculation_window — a speculated execve would hand
     * control to a possibly-compromised image the verifier has not
     * cleared yet, voiding the bounded-detection-delay argument.
     */
    static bool isSpeculationBarrier(std::uint64_t sysno);

    KernelModule();
    explicit KernelModule(Config config);

    /** Attach the verifier's event listener (module load order). */
    void setListener(ProcessEventListener *listener);

    /**
     * Detach `listener` iff it is the one currently attached. A dying
     * verifier must use this instead of setListener(nullptr) so it
     * cannot clobber the registration of a replacement verifier that
     * already re-attached (crash-recovery path).
     */
    void clearListener(ProcessEventListener *listener);

    /**
     * Crash recovery: replay every live (non-killed) process to
     * `listener` via onProcessEnabled, so a restarted verifier can
     * rebuild its per-process policy state before it starts polling.
     * Emits a `verifier_restart` event-log record when a log is active.
     * @return number of processes replayed.
     */
    std::size_t replayProcessesTo(ProcessEventListener *listener);

    // --- Process lifecycle (invoked by the monitored runtime) --------

    /** A process enables HerQules during startup (step 1a). */
    Status enableProcess(Pid pid);

    /** fork/clone interception: allocate the child's kernel context. */
    Status forkProcess(Pid parent, Pid child);

    /** exit interception: tear down the kernel context. */
    void exitProcess(Pid pid);

    // --- System-call interception (kprobes analog) -------------------

    /**
     * Pause the process at a system call until the verifier confirms
     * all in-flight messages were processed without violations.
     *
     * @return Ok to resume the syscall; PolicyViolation when the process
     *         was killed or the epoch expired.
     */
    /**
     * @param spin_fast_path spin briefly before sleeping (the pipelined
     *        design's ack usually arrives within the window). The naive
     *        synchronous design always pays the sleep/wake round trip.
     */
    Status syscallEnter(Pid pid, std::uint64_t sysno,
                        bool spin_fast_path = true);

    // --- Privileged verifier channel ---------------------------------

    /** Verifier saw the System-Call message: credit one ack. */
    void syscallResume(Pid pid);

    /**
     * Coalesced epoch acknowledgements: credit every entry's acks,
     * grouped by process-table bucket so a flush costs one lock
     * acquisition per touched bucket instead of one per message.
     * Per-pid ack credit is clamped to (retired syscalls + 1), so a
     * forged flood of System-Call messages can never bank more than
     * the one legitimate pipelined pre-ack.
     */
    void syscallResumeBatch(const SyscallAck *acks, std::size_t n);

    /** Verifier detected a policy violation: terminate the process. */
    void killProcess(Pid pid, const std::string &reason);

    // --- Introspection ------------------------------------------------

    bool isEnabled(Pid pid) const;
    bool isKilled(Pid pid) const;
    KernelProcessStats statsFor(Pid pid) const;
    /** Syscalls retired ahead of their acks right now (0 = in sync). */
    std::uint64_t speculationDepth(Pid pid) const;
    const Config &config() const { return _config; }

  private:
    /** Kernel context for one HerQules-enabled process. */
    struct ProcessContext
    {
        /// Gate entries retired (1-based count of admitted syscalls).
        std::uint64_t sc_gated = 0;
        /// Verifier acks credited. Clamped to sc_gated + 1 on every
        /// resume: the pipelined design legitimately acks one syscall
        /// before its gate entry, but nothing beyond that may bank.
        std::uint64_t sc_acked = 0;
        bool killed = false;
        std::string kill_reason;
        KernelProcessStats stats;
        std::condition_variable cv;
    };

    /**
     * Process-table buckets, keyed by the same pid->shard hash the
     * verifier uses (shardIndexFor in verifier/shard.h). With a sharded
     * verifier, epoch acknowledgements and violation kills for one
     * shard's pids land on that shard's buckets only, so shard workers
     * never contend on a single kernel lock (the real module's
     * per-bucket hash-table locking).
     */
    static constexpr std::size_t kBucketCount = 16;

    struct Bucket
    {
        mutable std::mutex mutex;
        // Contexts are shared so a syscallEnter() waiter keeps its
        // context (and condition variable) alive even if exitProcess()
        // races with it.
        std::unordered_map<Pid, std::shared_ptr<ProcessContext>>
            processes;
        /// Stats snapshots of exited processes (harness post-mortem).
        std::unordered_map<Pid, KernelProcessStats> exited_stats;
    };

    Bucket &bucketFor(Pid pid);
    const Bucket &bucketFor(Pid pid) const;

    /** Lookup within one bucket; the caller holds bucket.mutex. */
    static std::shared_ptr<ProcessContext> find(const Bucket &bucket,
                                                Pid pid);

    /** Credit one coalesced ack; the caller holds bucket.mutex. */
    void applyResumeLocked(Bucket &bucket, const SyscallAck &ack);

    Config _config;
    /// Atomic: lifecycle paths read it after dropping the bucket lock,
    /// and a crash-recovery verifier swap must not tear.
    std::atomic<ProcessEventListener *> _listener{nullptr};
    Bucket _buckets[kBucketCount];
};

} // namespace hq

#endif // HQ_KERNEL_KERNEL_H
