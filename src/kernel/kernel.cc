#include "kernel/kernel.h"

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "faultinject/fault.h"
#include "telemetry/events.h"
#include "telemetry/trace.h"
#include "verifier/shard.h" // shardIndexFor: the verifier's pid hash

namespace hq {

namespace {

HQ_TELEMETRY_HANDLE(syscallPauseHist, Histogram, "kernel.syscall_pause_ns")
HQ_TELEMETRY_HANDLE(syscallsCounter, Counter, "kernel.syscalls")
// High-water speculation depth (Gauge::set keeps the max): how far
// ahead of verification any process has retired syscalls.
HQ_TELEMETRY_HANDLE(specDepthGauge, Gauge, "kernel.spec_depth")

} // namespace

KernelModule::KernelModule() : KernelModule(Config{}) {}

KernelModule::KernelModule(Config config) : _config(config)
{
    // Clamp at config time, like Verifier::Config::poll_batch: an
    // unbounded window would void the bounded-detection-delay argument
    // (and the soundness tests sweep exactly [0, kMaxSpeculationWindow]).
    _config.speculation_window = std::min<std::size_t>(
        _config.speculation_window, kMaxSpeculationWindow);
}

KernelModule::Bucket &
KernelModule::bucketFor(Pid pid)
{
    return _buckets[shardIndexFor(pid, kBucketCount)];
}

const KernelModule::Bucket &
KernelModule::bucketFor(Pid pid) const
{
    return _buckets[shardIndexFor(pid, kBucketCount)];
}

void
KernelModule::setListener(ProcessEventListener *listener)
{
    _listener.store(listener, std::memory_order_release);
}

void
KernelModule::clearListener(ProcessEventListener *listener)
{
    _listener.compare_exchange_strong(listener, nullptr,
                                      std::memory_order_acq_rel);
}

std::size_t
KernelModule::replayProcessesTo(ProcessEventListener *listener)
{
    if (listener == nullptr)
        return 0;
    std::vector<Pid> live;
    for (const Bucket &bucket : _buckets) {
        std::lock_guard<std::mutex> guard(bucket.mutex);
        for (const auto &[pid, context] : bucket.processes) {
            if (!context->killed)
                live.push_back(pid);
        }
    }
    for (Pid pid : live)
        listener->onProcessEnabled(pid);
    telemetry::emit(telemetry::Event::VerifierRestart,
                    {.arg0 = live.size(),
                     .reason = "verifier re-attached; live processes "
                               "replayed"});
    logInfo("kernel: replayed ", live.size(),
            " live process(es) to a restarted verifier");
    return live.size();
}

std::shared_ptr<KernelModule::ProcessContext>
KernelModule::find(const Bucket &bucket, Pid pid)
{
    auto it = bucket.processes.find(pid);
    return it == bucket.processes.end() ? nullptr : it->second;
}

Status
KernelModule::enableProcess(Pid pid)
{
    Bucket &bucket = bucketFor(pid);
    {
        std::lock_guard<std::mutex> guard(bucket.mutex);
        if (bucket.processes.count(pid)) {
            return Status::error(StatusCode::AlreadyExists,
                                 "process already enabled");
        }
        bucket.processes[pid] = std::make_shared<ProcessContext>();
    }
    if (ProcessEventListener *listener =
            _listener.load(std::memory_order_acquire))
        listener->onProcessEnabled(pid);
    logDebug("kernel: enabled HQ for pid ", pid);
    return Status::ok();
}

Status
KernelModule::forkProcess(Pid parent, Pid child)
{
    // Parent and child may hash to different buckets: validate the
    // parent under its bucket lock, insert the child under its own.
    // Never hold both (they may be the same mutex).
    {
        Bucket &parent_bucket = bucketFor(parent);
        std::lock_guard<std::mutex> guard(parent_bucket.mutex);
        if (!parent_bucket.processes.count(parent)) {
            return Status::error(StatusCode::NotFound,
                                 "parent not enabled");
        }
    }
    Bucket &child_bucket = bucketFor(child);
    {
        std::lock_guard<std::mutex> guard(child_bucket.mutex);
        if (child_bucket.processes.count(child)) {
            return Status::error(StatusCode::AlreadyExists,
                                 "child pid in use");
        }
        child_bucket.processes[child] =
            std::make_shared<ProcessContext>();
    }
    if (ProcessEventListener *listener =
            _listener.load(std::memory_order_acquire))
        listener->onProcessForked(parent, child);
    return Status::ok();
}

void
KernelModule::exitProcess(Pid pid)
{
    Bucket &bucket = bucketFor(pid);
    {
        std::lock_guard<std::mutex> guard(bucket.mutex);
        auto it = bucket.processes.find(pid);
        if (it == bucket.processes.end())
            return;
        // Wake any waiter before the context disappears, and keep a
        // stats snapshot for post-mortem inspection.
        it->second->killed = true;
        it->second->cv.notify_all();
        bucket.exited_stats[pid] = it->second->stats;
        bucket.processes.erase(it);
    }
    if (ProcessEventListener *listener =
            _listener.load(std::memory_order_acquire))
        listener->onProcessExited(pid);
}

bool
KernelModule::isSpeculationBarrier(std::uint64_t sysno)
{
    switch (sysno) {
      case 56:  // clone
      case 57:  // fork
      case 58:  // vfork
      case 59:  // execve
      case 60:  // exit
      case 62:  // kill
      case 231: // exit_group
      case 322: // execveat
        return true;
      default:
        return false;
    }
}

bool
KernelModule::isReadOnlySyscall(std::uint64_t sysno)
{
    switch (sysno) {
      case 39:  // getpid
      case 63:  // uname
      case 79:  // getcwd
      case 96:  // gettimeofday
      case 102: // getuid
      case 110: // getppid
      case 186: // gettid
      case 228: // clock_gettime
      case 318: // getrandom
        return true;
      default:
        return false;
    }
}

Status
KernelModule::syscallEnter(Pid pid, std::uint64_t sysno,
                           bool spin_fast_path)
{
    if (_config.elide_readonly_syscalls && isReadOnlySyscall(sysno))
        return Status::ok(); // no pause needed: no external side effects

    // Kick the verifier before gating: the System-Call message is
    // already in the ring, and waking its consumer now (rather than at
    // the consumer's next poll tick) is what keeps the ack pipeline
    // ahead of the gate. No kernel locks are held yet.
    if (ProcessEventListener *listener =
            _listener.load(std::memory_order_acquire))
        listener->onSyscallGate(pid);

    Bucket &bucket = bucketFor(pid);
    std::unique_lock<std::mutex> lock(bucket.mutex);
    std::shared_ptr<ProcessContext> context = find(bucket, pid);
    if (!context) {
        // Process never enabled HerQules: the module does not intercept.
        return Status::ok();
    }
    ++context->stats.syscalls;

    // Bounded-asynchronous-validation pause latency (the paper's key
    // kernel-side metric): everything from interception to resumption,
    // spin window and sleep included.
    telemetry::ScopedTimer pause_timer(syscallPauseHist());
    telemetry::TraceScope pause_scope("kernel.syscall_pause");
    if (telemetry::enabled())
        syscallsCounter().inc();

    // The one admission predicate. Entry n = sc_gated + 1 may retire
    // once sc_acked >= n - window: strict gating (window 0) demands the
    // ack for this very syscall's System-Call message, a window of K
    // lets the process run up to K syscalls ahead. Barrier syscalls
    // (execve/fork/exit-class) are always strict: their effects cannot
    // be contained by a delayed kill. Acks are clamped to sc_gated + 1,
    // so depth <= window holds by construction. A kill ends every wait.
    const std::uint64_t entry = context->sc_gated + 1;
    const std::uint64_t window = isSpeculationBarrier(sysno)
                                     ? 0
                                     : _config.speculation_window;
    const std::uint64_t required = entry > window ? entry - window : 0;
    const auto decided = [&context, required] {
        return context->killed || context->sc_acked >= required;
    };

    if (spin_fast_path && !decided()) {
        // Fast path: spin briefly — the verifier normally consumes the
        // pipelined System-Call message within this window (§2.2).
        const auto spin_deadline =
            std::chrono::steady_clock::now() + _config.spin;
        while (!decided() &&
               std::chrono::steady_clock::now() < spin_deadline) {
            lock.unlock();
            std::this_thread::yield();
            lock.lock();
        }
    }

    if (!decided()) {
        ++context->stats.waits;
        auto epoch = _config.epoch;
        if (faultinject::fire(faultinject::Site::KernelEpochDelay)) {
            // Epoch advance delayed by one extra period: denial still
            // happens, just later — fail closed is preserved.
            epoch += _config.epoch;
        }
        if (faultinject::fire(faultinject::Site::KernelSpuriousWake)) {
            // One predicate-less wait models a spurious wakeup; the
            // predicate wait below re-checks and re-blocks, so a
            // spurious wake must never turn into a spurious resume.
            context->cv.wait_for(lock, std::chrono::microseconds(100));
        }
        if (!context->cv.wait_for(lock, epoch, decided)) {
            // No synchronization message within the epoch: treat as a
            // policy violation and terminate the monitored program.
            ++context->stats.epoch_timeouts;
            context->killed = true;
            context->kill_reason = "synchronization epoch expired";
            telemetry::emit(
                telemetry::Event::EpochTimeout,
                {.pid = pid,
                 .op = "Syscall",
                 .arg0 = static_cast<std::uint64_t>(sysno),
                 .arg1 = static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         epoch)
                         .count()),
                 .reason = context->kill_reason});
            logWarn("kernel: epoch expired for pid ", pid, " at syscall ",
                    sysno);
        }
    }

    // Killed before entry, while waiting, or by the epoch expiring.
    if (context->killed) {
        return Status::error(StatusCode::PolicyViolation,
                             context->kill_reason.empty()
                                 ? "process killed"
                                 : context->kill_reason);
    }

    // Retire the gate entry (the strict contract's "reset the
    // synchronization variable upon resumption", §3.3).
    context->sc_gated = entry;
    if (context->sc_acked < entry) {
        // Retiring ahead of this syscall's own ack: bounded
        // speculation. Track the depth — it is exactly the detection
        // delay a late violation would have enjoyed.
        const std::uint64_t depth = entry - context->sc_acked;
        ++context->stats.spec_syscalls;
        context->stats.max_spec_depth =
            std::max(context->stats.max_spec_depth, depth);
        if (telemetry::enabled())
            specDepthGauge().set(depth);
    }

    // The gate is open and the syscall proceeds into the (simulated)
    // kernel. A real trap is a scheduling point, so model it: on a
    // loaded or single-CPU host this is where the verifier thread gets
    // cycles to drain the pipelined backlog concurrently with the
    // syscall body, rather than only when the gate blocks. The pause
    // histogram above covers gate-blocked time only — the trap itself
    // costs the same in every gating mode.
    pause_timer.stop();
    lock.unlock();
    std::this_thread::yield();
    return Status::ok();
}

void
KernelModule::applyResumeLocked(Bucket &bucket, const SyscallAck &ack)
{
    if (faultinject::fire(faultinject::Site::KernelLostNotify)) {
        // The verifier's resume never reaches the waiter: the paused
        // syscall must eventually hit the epoch timeout (fail closed).
        logDebug("kernel: injected lost notification for pid ", ack.pid);
        return;
    }
    std::shared_ptr<ProcessContext> context = find(bucket, ack.pid);
    if (!context)
        return;
    // Clamp the credit to one pipelined pre-ack beyond what has
    // retired: the verifier acks at most one System-Call message per
    // gate entry, so anything past sc_gated + 1 is a forged flood
    // trying to bank admissions.
    context->sc_acked = std::min<std::uint64_t>(
        context->sc_acked + ack.count, context->sc_gated + 1);
    telemetry::emit(telemetry::Event::SyscallResume,
                    {.pid = ack.pid,
                     .arg0 = ack.count,
                     .arg1 = context->sc_acked});
    context->cv.notify_all();
}

void
KernelModule::syscallResume(Pid pid)
{
    const SyscallAck ack{pid, 1};
    syscallResumeBatch(&ack, 1);
}

void
KernelModule::syscallResumeBatch(const SyscallAck *acks, std::size_t n)
{
    // Group by process-table bucket: one lock acquisition per touched
    // bucket per flush, however many pids/messages the batch carries.
    for (std::size_t b = 0; b < kBucketCount; ++b) {
        std::size_t i = 0;
        while (i < n && shardIndexFor(acks[i].pid, kBucketCount) != b)
            ++i;
        if (i == n)
            continue;
        Bucket &bucket = _buckets[b];
        std::lock_guard<std::mutex> guard(bucket.mutex);
        for (; i < n; ++i) {
            if (shardIndexFor(acks[i].pid, kBucketCount) == b)
                applyResumeLocked(bucket, acks[i]);
        }
    }
}

void
KernelModule::killProcess(Pid pid, const std::string &reason)
{
    Bucket &bucket = bucketFor(pid);
    std::lock_guard<std::mutex> guard(bucket.mutex);
    std::shared_ptr<ProcessContext> context = find(bucket, pid);
    if (!context)
        return;
    context->killed = true;
    context->kill_reason = reason;
    // A kill landing while the process ran ahead of verification is
    // the bounded detection delay made visible: audit the in-window
    // depth so operators can see how far the program got.
    const std::uint64_t depth = context->sc_gated > context->sc_acked
                                    ? context->sc_gated - context->sc_acked
                                    : 0;
    telemetry::emit(telemetry::Event::ProcessKilled,
                    {.pid = pid, .arg0 = depth});
    if (depth > 0) {
        telemetry::emit(telemetry::Event::SpecKill,
                        {.pid = pid,
                         .op = "Syscall",
                         .arg0 = depth,
                         .arg1 = _config.speculation_window,
                         .reason = reason});
    }
    context->cv.notify_all();
}

bool
KernelModule::isEnabled(Pid pid) const
{
    const Bucket &bucket = bucketFor(pid);
    std::lock_guard<std::mutex> guard(bucket.mutex);
    return find(bucket, pid) != nullptr;
}

bool
KernelModule::isKilled(Pid pid) const
{
    const Bucket &bucket = bucketFor(pid);
    std::lock_guard<std::mutex> guard(bucket.mutex);
    std::shared_ptr<ProcessContext> context = find(bucket, pid);
    return context && context->killed;
}

std::uint64_t
KernelModule::speculationDepth(Pid pid) const
{
    const Bucket &bucket = bucketFor(pid);
    std::lock_guard<std::mutex> guard(bucket.mutex);
    std::shared_ptr<ProcessContext> context = find(bucket, pid);
    return context && context->sc_gated > context->sc_acked
               ? context->sc_gated - context->sc_acked
               : 0;
}

KernelProcessStats
KernelModule::statsFor(Pid pid) const
{
    const Bucket &bucket = bucketFor(pid);
    std::lock_guard<std::mutex> guard(bucket.mutex);
    std::shared_ptr<ProcessContext> context = find(bucket, pid);
    if (context)
        return context->stats;
    auto it = bucket.exited_stats.find(pid);
    return it == bucket.exited_stats.end() ? KernelProcessStats{}
                                           : it->second;
}

} // namespace hq
