/**
 * @file
 * The HerQules verifier (paper §3.4), sharded.
 *
 * A user-space process that maintains a policy context per monitored
 * application. It receives messages over AppendWrite channels, is
 * notified of process events (enable/fork/exit) by the kernel module
 * over the privileged channel, and notifies the kernel to resume paused
 * system calls once all of a process's outstanding messages have been
 * processed without a policy violation.
 *
 * The paper's verifier is one polling loop; because per-process policy
 * state is independent and validation is asynchronous anyway, this
 * implementation shards the loop: each monitored pid is assigned to one
 * of Config::num_shards worker shards by a consistent hash at process
 * start (src/verifier/shard.h), and that shard owns the pid's channels,
 * policy context (OrderedMap tables), lag-envelope matching, and metrics.
 * The per-message hot path never takes a cross-shard lock; shards
 * coordinate only at process start/exit and crash-recovery replay via
 * the ShardRegistry. Device-stamped channels (FPGA) may carry messages
 * for any pid, so their poller resolves the pid's home shard by the
 * same hash and processes against that shard's state.
 *
 * Integrity is always checked, whatever the configuration: the drain's
 * decode step rejects any v1 message whose CRC guard mismatches and any
 * v2 frame whose header or body CRC mismatches (CorruptMsg, never
 * interpreted), and every message's sequence counter must follow its
 * predecessor's on the channel (SeqGap otherwise) — the paper's AFU
 * drop detection, applied to every transport.
 *
 * By default monitored programs are killed upon policy violation, but —
 * as in the paper's evaluation, which continues execution to count false
 * positives — this behavior is configurable.
 */

#ifndef HQ_VERIFIER_VERIFIER_H
#define HQ_VERIFIER_VERIFIER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "ipc/channel.h"
#include "kernel/kernel.h"
#include "policy/policy.h"
#include "telemetry/events.h"
#include "telemetry/health.h"
#include "telemetry/telemetry.h"
#include "verifier/shard.h"

namespace hq {

/** Per-process verifier statistics (§5.4 metrics). */
struct VerifierProcessStats
{
    std::uint64_t messages = 0;     //!< messages processed
    std::uint64_t violations = 0;   //!< failed policy checks
    std::uint64_t syscall_acks = 0; //!< resume notifications sent
    std::size_t max_entries = 0;    //!< peak policy metadata entries
};

class Verifier : public ProcessEventListener
{
  public:
    /** Upper bound on Config::poll_batch (sizes poll()'s stack buffer). */
    static constexpr std::size_t kMaxPollBatch = 256;

    /** Upper bound on Config::num_shards (and the auto default). */
    static constexpr std::size_t kMaxShards = 16;

    struct Config
    {
        /** Ask the kernel to kill the process on a violation. */
        bool kill_on_violation = true;
        /**
         * Kill still-running monitored processes when the verifier
         * terminates (the paper's default for unexpected verifier
         * termination; configurable, §3.4).
         */
        bool kill_on_verifier_exit = false;
        /**
         * Messages drained per channel per poll round. Validated at
         * construction: values outside [1, kMaxPollBatch] are clamped
         * (poll()'s stack buffer is sized by kMaxPollBatch, so an
         * over-limit config must never reach the drain loop). One
         * lock acquisition, one tryPeekSpan/consumeSlots pair, and one
         * telemetry scope are amortized over each batch; the bound
         * doubles as a round-robin fairness cap, so one busy channel
         * cannot starve the others.
         */
        std::size_t poll_batch = 64;
        /**
         * Verification-lag SLO watermark in nanoseconds. Each message
         * whose enqueue-to-check lag (measured via the channel's lag
         * sidecar) exceeds this increments `verifier.lag_slo_breaches`.
         * 0 disables the check. Only meaningful while telemetry is on.
         */
        std::uint64_t lag_slo_ns = 1'000'000;
        /**
         * Worker shards. 0 = auto: std::thread::hardware_concurrency,
         * clamped to [1, kMaxShards]. With 1 shard the verifier is the
         * paper's serial polling loop. start() spawns one event-loop
         * thread per shard; poll() drains every shard on the caller's
         * thread either way, so deterministic tests are unaffected.
         */
        std::size_t num_shards = 0;
        /**
         * Run the shard health watchdog (telemetry::HealthMonitor):
         * every shard bumps a heartbeat per drain pass, the watchdog
         * samples heartbeats / per-channel queue depth / syscall-ack
         * age and publishes OK/DEGRADED/STALLED per shard. Off by
         * default: when disabled no watchdog thread exists and the
         * heartbeat is the only (relaxed, per-drain-pass) cost.
         */
        bool health_enabled = false;
        /** Watchdog thresholds; used only when health_enabled. */
        telemetry::HealthConfig health{};
    };

    /**
     * @param kernel the kernel module (privileged channel peer)
     * @param policy policy whose contexts govern monitored processes
     */
    Verifier(KernelModule &kernel, std::shared_ptr<Policy> policy);
    Verifier(KernelModule &kernel, std::shared_ptr<Policy> policy,
             Config config);
    ~Verifier() override;

    /**
     * Register a message channel owned by one monitored process. The
     * channel joins its owner's shard: that shard's worker becomes the
     * only consumer, preserving the SPSC contract of the ring-backed
     * transports. For device-stamped channels (FPGA) the message PID
     * field is trusted; for software channels the registered owner
     * identifies the sender, mirroring kernel-arbitrated channel
     * creation.
     *
     * @param device_stamped message.pid comes from trusted hardware
     */
    void attachChannel(Channel *channel, Pid owner,
                       bool device_stamped = false);

    /**
     * Remove a previously attached channel. Serializes against an
     * in-flight drain (the drain-list snapshot holds raw entry
     * pointers), and — the churn edge — reclaims the owner's
     * policy-table slice when this was the pid's last channel and the
     * pid is no longer live: an exited process's slice is kept for
     * post-mortem inspection only while a channel could still name it.
     * No-op if the channel was never attached.
     */
    void detachChannel(Channel *channel);

    /** Start one event-loop thread per shard. */
    void start();

    /** Drain remaining messages and stop the event-loop threads. */
    void stop();

    /**
     * Process pending messages synchronously on the caller's thread,
     * draining every shard in index order. Used by deterministic unit
     * tests instead of start()/stop().
     * @return number of messages processed.
     */
    std::size_t poll();

    /**
     * Drain one shard's channels on the caller's thread. Safe against
     * a concurrently running shard worker (a per-shard drain mutex
     * serializes consumers).
     * @return number of messages processed.
     */
    std::size_t pollShard(std::size_t shard_index);

    // --- ProcessEventListener (privileged kernel notifications) ------
    void onProcessEnabled(Pid pid) override;
    void onProcessForked(Pid parent, Pid child) override;
    void onProcessExited(Pid pid) override;
    void onSyscallGate(Pid pid) override;

    // --- Introspection -------------------------------------------------
    bool hasViolation(Pid pid) const;
    VerifierProcessStats statsFor(Pid pid) const;

    /** Policy context for a pid (test hook); nullptr when unknown. */
    PolicyContext *contextFor(Pid pid);

    /** Resolved shard count (Config::num_shards after auto/clamping). */
    std::size_t numShards() const { return _shards.size(); }

    /** Shard that owns pid's state (consistent hash; always valid). */
    std::size_t
    shardOf(Pid pid) const
    {
        return _registry.shardOf(pid);
    }

    /** Live-pid registry (tests and harness introspection). */
    const ShardRegistry &registry() const { return _registry; }

    /** Messages processed by one shard (always on; tests). */
    std::uint64_t shardMessages(std::size_t shard_index) const;

    /**
     * Policy-table slice entries across all shards (live + retained
     * post-mortem). The churn regression tests assert this returns to
     * baseline after attach/exit/detach cycles.
     */
    std::size_t policySliceCount() const;

    /** Attached channels across all shards. */
    std::size_t channelCount() const;

    /** Health watchdog (nullptr unless Config::health_enabled). */
    telemetry::HealthMonitor *healthMonitor() { return _health.get(); }

    /** Current health state of one shard (Ok when no watchdog). */
    telemetry::HealthState healthState(std::size_t shard_index) const
    {
        return _health ? _health->state(shard_index)
                       : telemetry::HealthState::Ok;
    }

    /** One deterministic watchdog sample on the caller's thread. */
    void
    sampleHealthOnce()
    {
        if (_health)
            _health->sampleOnce();
    }

    /** Pending (undrained) messages across one shard's channels. */
    std::uint64_t shardQueueDepth(std::size_t shard_index) const;

    /** Effective configuration (poll_batch/num_shards after clamping). */
    const Config &config() const { return _config; }

    /** Total messages processed across all processes. */
    std::uint64_t totalMessages() const
    {
        return _total_messages.load(std::memory_order_relaxed);
    }

    /**
     * True once an injected VerifierCrash fault killed this verifier.
     * A crashed verifier processes nothing further (poll() returns 0);
     * recovery is a *new* Verifier re-attaching the channels and
     * rebuilding state via KernelModule::replayProcessesTo.
     */
    bool crashed() const
    {
        return _crashed.load(std::memory_order_relaxed);
    }

  private:
    struct ChannelEntry
    {
        Channel *channel = nullptr;
        Pid owner = 0;
        bool device_stamped = false;
        std::uint32_t expected_seq = 0;
        bool seq_started = false;
        /// Messages drained from this channel so far; index of the next
        /// message, used to match lag-sidecar envelopes by sequence.
        std::uint64_t recv_index = 0;
        /// A peek reported a bad producer cursor (and its CorruptMsg
        /// was recorded); the channel lends nothing more.
        bool cursor_rejected = false;
        /// Cached per-owner lag histogram (`verifier.lag_ns.pid_<N>`);
        /// resolved on first lag sample (channels are per-process).
        telemetry::Histogram *pid_lag = nullptr;
    };

    struct ProcessEntry
    {
        std::unique_ptr<PolicyContext> context;
        VerifierProcessStats stats;
        bool violated = false;
        bool exited = false;
    };

    /**
     * Memo of the last pid -> ProcessEntry resolution, carrying the
     * home shard's state lock. Channels are per-process, so within one
     * drained batch the shard-hash + map lookup resolves once instead
     * of per message; the lock follows the memo (released/reacquired
     * only when a device-stamped batch switches pids across shards),
     * so the common case pays one lock acquisition per batch.
     */
    struct PidMemo
    {
        Pid pid = 0;
        ProcessEntry *entry = nullptr;
        bool valid = false;
        /// Home shard of `pid` (violations/acks are attributed here).
        std::size_t home_shard = 0;
        std::unique_lock<std::mutex> lock;
    };

    /** One verifier worker: owns its channels and process state. */
    struct Shard
    {
        /// Shard index (flight records attribute work to it).
        std::size_t index = 0;
        /// Drain passes completed; the health watchdog's liveness
        /// signal. Bumped once per pollShard call (relaxed; off the
        /// per-message path).
        std::atomic<std::uint64_t> heartbeat{0};
        /// monotonicRawNs() of the last syscall ack sent by this shard
        /// (0 = never). Only stamped while the watchdog exists.
        std::atomic<std::uint64_t> last_ack_ns{0};
        /**
         * Serializes draining: ring transports are single-consumer, so
         * only one thread may poll a shard at a time (the shard worker
         * in steady state; test threads / exit-drain otherwise).
         */
        std::mutex drain_mutex;
        /**
         * Guards processes and the channels list. Never held across a
         * channel peek: the drain loop snapshots channel pointers once
         * per round and locks per pid-run while checking.
         */
        mutable std::mutex state_mutex;
        std::vector<std::unique_ptr<ChannelEntry>> channels;
        std::unordered_map<Pid, ProcessEntry> processes;
        /// Scratch channel-pointer snapshot (touched under drain_mutex).
        std::vector<ChannelEntry *> drain_list;
        /// Syscall acks coalesced during the current drain round,
        /// flushed to the kernel in one syscallResumeBatch call per
        /// round (touched only under drain_mutex). Adjacent acks for
        /// the same pid merge into one entry's count.
        std::vector<KernelModule::SyscallAck> pending_acks;
        /// monotonicRawNs() at which each pending ack message was
        /// queued — one stamp per message, not per merged entry —
        /// feeding the verifier.ack_latency_ns histogram at flush.
        /// Only populated while telemetry is enabled.
        std::vector<std::uint64_t> pending_ack_ns;
        /// Gate-kick wakeup: onSyscallGate bumps gate_kicks and
        /// notifies, so the worker's wait (spinning or parked) ends the
        /// moment one of its pids traps into a syscall instead of at
        /// the drain quantum.
        std::mutex wake_mutex;
        std::condition_variable wake_cv;
        std::atomic<std::uint64_t> gate_kicks{0};
        /// Set by a drain whose peek found a channel's ring full (its
        /// producer is blocked); the worker clears it and re-polls at
        /// once instead of waiting.
        std::atomic<bool> ring_full{false};
        std::thread thread;
        /// Always-on per-shard message count (tests, cheap roll-ups).
        std::atomic<std::uint64_t> messages{0};
        // Per-shard metrics (`verifier.shard<i>.*`), resolved once at
        // construction; the unprefixed `verifier.*` metrics remain the
        // global roll-up (every shard records into both).
        telemetry::Counter *messages_metric = nullptr;
        telemetry::Counter *violations_metric = nullptr;
        telemetry::Counter *syscall_acks_metric = nullptr;
        telemetry::Counter *idle_sleeps_metric = nullptr;
        telemetry::Counter *drain_passes_metric = nullptr;
    };

    /// Sentinel for "no lag sample matched this message".
    static constexpr std::uint64_t kNoLag = ~std::uint64_t{0};

    void shardLoop(std::size_t shard_index);
    /** Resolve pid's ProcessEntry via the memo, locking its home shard. */
    ProcessEntry *lookupProcess(Pid pid, PidMemo &memo);
    /**
     * Drain at most one poll-batch from a channel: peek its queued
     * slots once, then decode, check and consume them run by run in
     * place. Decoding is where integrity is decided for both wire
     * formats: a v1 run is the CRC-clean prefix of a contiguous
     * stretch of messages, a v2 run is one frame whose header and body
     * CRCs matched (decoded and unpacked into scratch). A corrupt v1
     * message or v2 frame is recorded and skipped, never interpreted.
     * @return number of messages (records) processed.
     */
    std::size_t drainChannel(Shard &shard, ChannelEntry &entry,
                             Message *scratch, std::size_t batch_max);
    /**
     * Feed n integrity-checked messages drained from entry through lag
     * matching and handleMessage; advances
     * entry.recv_index and the batch telemetry. n must be > 0.
     */
    void processBatch(Shard &shard, ChannelEntry &entry,
                      const Message *batch, std::size_t n);
    /**
     * CorruptMsg violation for a message or frame that failed its CRC
     * check in the decode step, or for a ring whose producer cursor
     * is out of range, attributed to the channel's registered owner
     * (fail closed: nothing of it is interpreted, not even its pid).
     * `message` is the offending v1 message, or an empty one.
     */
    void recordCorruption(ChannelEntry &entry, const char *reason,
                          const Message &message = Message{});
    void handleMessage(Shard &shard, ChannelEntry &entry,
                       const Message &message, PidMemo &memo,
                       std::uint64_t lag_ns);
    /** Queue one syscall ack on the polling shard (drain_mutex held). */
    void queueAck(Shard &shard, Pid pid);
    /**
     * Send the round's coalesced acks in one syscallResumeBatch call.
     * A crashed verifier drops them unsent: its death must look like
     * silence to the kernel (fail closed, epoch timeout).
     */
    void flushAcks(Shard &shard);
    void recordViolation(std::size_t home_shard, Pid pid,
                         ProcessEntry &process, const std::string &reason,
                         const Message &message,
                         telemetry::Event event,
                         std::uint64_t lag_ns);
    /// Match lag-sidecar envelopes for the batch just drained from
    /// `entry`, filling lag_ns[0..n) (kNoLag when unmatched) and
    /// recording the lag histograms/SLO metrics and flow-end events.
    void recordBatchLag(Shard &shard, ChannelEntry &entry, std::size_t n,
                        std::uint64_t *lag_ns);

    KernelModule &_kernel;
    std::shared_ptr<Policy> _policy;
    Config _config;

    ShardRegistry _registry;
    std::vector<std::unique_ptr<Shard>> _shards;

    std::atomic<bool> _running{false};
    std::atomic<bool> _crashed{false};
    std::atomic<std::uint64_t> _total_messages{0};
    /// Device-stamped channels currently attached (any shard). While
    /// nonzero, exited slices are always retained: a device channel can
    /// carry any pid's messages, so post-mortem lookups stay valid.
    std::atomic<std::size_t> _device_channels{0};

    /// Declared after _shards (samples them via callback); stopped in
    /// stop() before the channels can go away under it.
    std::unique_ptr<telemetry::HealthMonitor> _health;
};

} // namespace hq

#endif // HQ_VERIFIER_VERIFIER_H
