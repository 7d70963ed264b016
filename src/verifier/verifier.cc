#include "verifier/verifier.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.h"
#include "faultinject/fault.h"
#include "telemetry/events.h"
#include "telemetry/trace.h"

namespace hq {

namespace {

// Metric handles are resolved once and cached: registry lookups stay
// off the per-message path. These are the global roll-up; each shard
// additionally records into its own `verifier.shard<i>.*` counters,
// resolved once at construction (Verifier::Verifier).
HQ_TELEMETRY_HANDLE(msgLatencyHist, Histogram, "verifier.msg_latency_ns")
HQ_TELEMETRY_HANDLE(messagesCounter, Counter, "verifier.messages")
HQ_TELEMETRY_HANDLE(policyEntriesGauge, Gauge, "verifier.policy_entries")
HQ_TELEMETRY_HANDLE(idleSleepsCounter, Counter, "verifier.idle_sleeps")
HQ_TELEMETRY_HANDLE(drainPassesCounter, Counter, "verifier.drain_passes")
HQ_TELEMETRY_HANDLE(lagHist, Histogram, "verifier.lag_ns")
HQ_TELEMETRY_HANDLE(lagHighWater, Gauge, "verifier.lag_high_water_ns")
// Async-ack pipeline: total acks delivered through coalesced
// syscallResumeBatch flushes, and queue-to-flush latency per ack
// message (breaches feed the same lag SLO counter as verification lag).
HQ_TELEMETRY_HANDLE(acksBatchedCounter, Counter, "verifier.acks_batched")
HQ_TELEMETRY_HANDLE(ackLatencyHist, Histogram, "verifier.ack_latency_ns")

/// Pause hint for a spin-wait: tells the core this is a wait loop
/// without touching memory.
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

std::size_t
resolveNumShards(std::size_t requested)
{
    if (requested == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        requested = hw == 0 ? 1 : hw;
    }
    return std::clamp<std::size_t>(requested, 1, Verifier::kMaxShards);
}

} // namespace

Verifier::Verifier(KernelModule &kernel, std::shared_ptr<Policy> policy)
    : Verifier(kernel, std::move(policy), Config{})
{
}

Verifier::Verifier(KernelModule &kernel, std::shared_ptr<Policy> policy,
                   Config config)
    : _kernel(kernel), _policy(std::move(policy)), _config(config),
      _registry(resolveNumShards(config.num_shards))
{
    _config.num_shards = _registry.numShards();
    // Clamp at config time: poll's stack buffer is sized by
    // kMaxPollBatch, so an over-limit value must never reach the drain
    // loop; 0 would drain nothing forever.
    _config.poll_batch =
        std::clamp<std::size_t>(_config.poll_batch, 1, kMaxPollBatch);

    _shards.reserve(_config.num_shards);
    auto &registry = telemetry::Registry::instance();
    for (std::size_t i = 0; i < _config.num_shards; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->index = i;
        const std::string prefix =
            "verifier.shard" + std::to_string(i) + ".";
        shard->messages_metric = &registry.counter(prefix + "messages");
        shard->violations_metric =
            &registry.counter(prefix + "violations");
        shard->syscall_acks_metric =
            &registry.counter(prefix + "syscall_acks");
        shard->idle_sleeps_metric =
            &registry.counter(prefix + "idle_sleeps");
        shard->drain_passes_metric =
            &registry.counter(prefix + "drain_passes");
        _shards.push_back(std::move(shard));
    }

    if (_config.health_enabled) {
        _health = std::make_unique<telemetry::HealthMonitor>(
            _config.num_shards, _config.health,
            [this](std::size_t i) {
                telemetry::ShardHealthSample sample;
                Shard &shard = *_shards[i];
                sample.heartbeat =
                    shard.heartbeat.load(std::memory_order_relaxed);
                sample.queue_depth = shardQueueDepth(i);
                const std::uint64_t ack =
                    shard.last_ack_ns.load(std::memory_order_relaxed);
                if (ack != 0) {
                    const std::uint64_t now = telemetry::monotonicRawNs();
                    sample.ack_age_ns = now > ack ? now - ack : 0;
                }
                return sample;
            });
    }

    _kernel.setListener(this);
}

Verifier::~Verifier()
{
    stop();
    // Detach only if we are still the registered listener: a
    // replacement verifier may already have re-attached itself
    // (crash-recovery path), and its registration must survive.
    _kernel.clearListener(this);
}

void
Verifier::attachChannel(Channel *channel, Pid owner, bool device_stamped)
{
    auto entry = std::make_unique<ChannelEntry>();
    entry->channel = channel;
    entry->owner = owner;
    entry->device_stamped = device_stamped;
    if (device_stamped)
        _device_channels.fetch_add(1, std::memory_order_relaxed);
    Shard &shard = *_shards[_registry.shardOf(owner)];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    shard.channels.push_back(std::move(entry));
}

void
Verifier::detachChannel(Channel *channel)
{
    for (auto &shard_ptr : _shards) {
        Shard &shard = *shard_ptr;
        // drain_mutex first: an in-flight pollShard holds it for the
        // whole round and its drain_list snapshot carries raw pointers
        // into shard.channels, so the entry must not be freed (nor the
        // vector resized) under a running drain. Same order as
        // pollShard (drain, then state), so no lock-order inversion.
        std::lock_guard<std::mutex> drain_guard(shard.drain_mutex);
        std::lock_guard<std::mutex> state_guard(shard.state_mutex);
        Pid owner = 0;
        bool found = false;
        for (auto it = shard.channels.begin(); it != shard.channels.end();
             ++it) {
            if ((*it)->channel == channel) {
                owner = (*it)->owner;
                found = true;
                if ((*it)->device_stamped) {
                    _device_channels.fetch_sub(1,
                                               std::memory_order_relaxed);
                }
                shard.channels.erase(it);
                break;
            }
        }
        if (!found)
            continue;
        // The snapshot may still point at the freed entry; clear it so
        // the next round rebuilds from the live list.
        shard.drain_list.clear();
        // Churn-edge reclamation: onProcessExited keeps the exited
        // process's policy-table slice for post-mortem inspection, but
        // once its *last* channel detaches nothing can reference the
        // slice again — a stale entry per churned pid would grow the
        // shard's process map without bound under attach/detach churn.
        bool owner_has_channels = false;
        for (const auto &remaining : shard.channels) {
            if (remaining->owner == owner) {
                owner_has_channels = true;
                break;
            }
        }
        if (!owner_has_channels && !_registry.isLive(owner)) {
            auto it = shard.processes.find(owner);
            if (it != shard.processes.end() && it->second.exited)
                shard.processes.erase(it);
        }
        return;
    }
}

std::size_t
Verifier::policySliceCount() const
{
    std::size_t total = 0;
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> guard(shard->state_mutex);
        total += shard->processes.size();
    }
    return total;
}

std::size_t
Verifier::channelCount() const
{
    std::size_t total = 0;
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> guard(shard->state_mutex);
        total += shard->channels.size();
    }
    return total;
}

void
Verifier::start()
{
    bool expected = false;
    if (!_running.compare_exchange_strong(expected, true))
        return;
    for (std::size_t i = 0; i < _shards.size(); ++i)
        _shards[i]->thread = std::thread([this, i] { shardLoop(i); });
    if (_health)
        _health->start();
}

void
Verifier::stop()
{
    // The watchdog goes first: it samples the shards' channels through
    // the sampler callback, so it must be quiescent before the exit
    // drain (and any teardown the caller does afterwards).
    if (_health)
        _health->stop();
    const bool was_running = _running.exchange(false);
    const bool was_crashed = _crashed.load(std::memory_order_relaxed);
    // Always reap the worker threads: an injected crash clears _running
    // from inside a shard loop, so the early-return shortcut of a plain
    // "was it running" check would leak joinable threads (and
    // std::terminate in the destructor).
    for (auto &shard : _shards) {
        if (shard->thread.joinable())
            shard->thread.join();
    }
    if (!was_running && !was_crashed)
        return;
    // Drain anything that arrived during shutdown — unless the
    // verifier crashed, in which case it drains nothing: its death is
    // precisely what the kernel epoch timeout must catch.
    if (!was_crashed)
        poll();
    if (_config.kill_on_verifier_exit) {
        // Without a verifier no violations can be detected, so
        // monitored programs must not keep running (§3.4). Sweep every
        // shard; collect under the shard lock, kill outside it.
        std::vector<Pid> doomed;
        for (auto &shard : _shards) {
            std::lock_guard<std::mutex> guard(shard->state_mutex);
            for (auto &[pid, process] : shard->processes) {
                if (!process.exited)
                    doomed.push_back(pid);
            }
        }
        for (Pid pid : doomed)
            _kernel.killProcess(pid, "verifier terminated");
    }
}

void
Verifier::shardLoop(std::size_t shard_index)
{
    // Pace the worker, not the program. A drain that found a full
    // batch, or a full ring, means the producer is outrunning the
    // worker, so it re-polls at once. After any shorter drain the
    // worker waits before it peeks again: until a gate kick for this
    // shard, stop(), or one drain quantum. The wait reads only
    // gate_kicks and _running, never a ring cursor or a slot, so the
    // producer fills whole cache lines the worker does not hold
    // instead of having each one pulled across cores while it is still
    // being written. A kick ends the wait at once, so a gated syscall's
    // ack is never a quantum late; between syscalls a violation is
    // flagged at most one quantum (plus the drain) after it was sent.
    //
    // While the last drains found work the wait spins on the pause hint
    // (yielding now and then, so a producer sharing this core still
    // runs). After kSpinsBeforeSleep empty drains the shard is idle and
    // parks on wake_cv for the quantum instead, so an idle verifier
    // stops burning its core.
    constexpr int kSpinsBeforeSleep = 64;
    constexpr auto kDrainQuantum = std::chrono::microseconds(20);
    constexpr unsigned kPausesPerYield = 64;
    int idle_rounds = 0;
    bool wedged = false;
    Shard &shard = *_shards[shard_index];
    while (_running.load(std::memory_order_relaxed)) {
        // Injected stall: the worker stays joinable (stop() still
        // works) but never drains again and never bumps its heartbeat,
        // which is exactly the failure the health watchdog must catch.
        // Sticky by design — a wedged loop does not recover; it waits
        // like an idle one.
        if (!wedged &&
            faultinject::fire(faultinject::Site::VerifierShardStall)) {
            wedged = true;
            logWarn("verifier: injected stall wedges shard ",
                    shard_index);
        }
        // Sampled before the drain, so a kick that lands during it ends
        // the wait below at once.
        const std::uint64_t kicks_seen =
            shard.gate_kicks.load(std::memory_order_acquire);
        const std::size_t found = wedged ? 0 : pollShard(shard_index);
        const bool ring_full =
            shard.ring_full.exchange(false, std::memory_order_relaxed);
        idle_rounds = found > 0 ? 0 : idle_rounds + 1;
        if (found >= kMaxPollBatch || ring_full)
            continue;

        const auto woken = [&] {
            return shard.gate_kicks.load(std::memory_order_acquire) !=
                       kicks_seen ||
                   !_running.load(std::memory_order_relaxed);
        };
        if (idle_rounds >= kSpinsBeforeSleep) {
            if (telemetry::enabled()) {
                idleSleepsCounter().inc();
                shard.idle_sleeps_metric->inc();
            }
            std::unique_lock<std::mutex> lk(shard.wake_mutex);
            shard.wake_cv.wait_for(lk, kDrainQuantum, woken);
        } else {
            const auto deadline =
                std::chrono::steady_clock::now() + kDrainQuantum;
            for (unsigned spins = 1;
                 !woken() && std::chrono::steady_clock::now() < deadline;
                 ++spins) {
                if (spins % kPausesPerYield == 0)
                    std::this_thread::yield();
                else
                    cpuRelax();
            }
        }
    }
}

std::size_t
Verifier::poll()
{
    std::size_t processed = 0;
    for (std::size_t i = 0; i < _shards.size(); ++i) {
        processed += pollShard(i);
        if (_crashed.load(std::memory_order_relaxed))
            break;
    }
    return processed;
}

std::size_t
Verifier::pollShard(std::size_t shard_index)
{
    if (shard_index >= _shards.size())
        return 0;
    Shard &shard = *_shards[shard_index];
    // One consumer per shard at a time: the ring transports are SPSC,
    // and test threads / the exit-drain path may poll concurrently with
    // the shard's own worker.
    std::lock_guard<std::mutex> drain_guard(shard.drain_mutex);
    // Liveness signal for the health watchdog: one relaxed increment
    // per drain pass, whoever drives it (worker thread or poll()).
    shard.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
        drainPassesCounter().inc();
        shard.drain_passes_metric->inc();
    }
    if (_crashed.load(std::memory_order_relaxed))
        return 0; // a dead verifier verifies nothing
    if (faultinject::fire(faultinject::Site::VerifierSlowPoll))
        std::this_thread::sleep_for(std::chrono::microseconds(500));

    Message batch[kMaxPollBatch];
    const std::size_t batch_max = _config.poll_batch; // ctor-clamped
    std::size_t processed = 0;

    // Round-robin over the shard's channels, draining at most one batch
    // per channel per round. The cap keeps one flooding channel from
    // starving the rest; the channel list is snapshotted per round so
    // attachChannel can run concurrently with a long drain.
    bool progress = true;
    while (progress) {
        progress = false;
        {
            std::lock_guard<std::mutex> state_guard(shard.state_mutex);
            shard.drain_list.clear();
            for (auto &entry : shard.channels)
                shard.drain_list.push_back(entry.get());
        }
        for (ChannelEntry *entry_ptr : shard.drain_list) {
            const std::size_t records =
                drainChannel(shard, *entry_ptr, batch, batch_max);
            if (records == 0)
                continue;
            progress = true;
            processed += records;
            if (_crashed.load(std::memory_order_relaxed))
                break;
        }
        // Coalesced resume: one syscallResumeBatch per round covers
        // every pid drained above, bounding added ack latency to the
        // round that produced the ack. A crashed verifier drops the
        // queue unsent (flushAcks checks).
        flushAcks(shard);
        if (_crashed.load(std::memory_order_relaxed))
            break;
    }
    if (processed > 0)
        _total_messages.fetch_add(processed, std::memory_order_relaxed);
    return processed;
}

std::size_t
Verifier::drainChannel(Shard &shard, ChannelEntry &entry, Message *scratch,
                       std::size_t batch_max)
{
    // One loop for every transport and wire format: borrow the queued
    // slots in place, decode the next run, check it, and only then
    // release its slots. Only the decode step depends on the format.
    std::size_t records = 0;
    RecvSpan span;
    const PeekResult peeked = entry.channel->tryPeekSpan(span);
    if (peeked.kind == PeekResult::BadCursor && !entry.cursor_rejected) {
        // The producer wrote its ring cursor out of range. Fail closed
        // once, against the registered owner; the ring lends nothing
        // more, so nothing behind the lie is ever interpreted.
        entry.cursor_rejected = true;
        recordCorruption(entry, "producer cursor out of range");
    }
    if (!peeked)
        return 0;
    const bool framed = entry.channel->format() == WireFormat::V2;
    const std::size_t cap = entry.channel->recvCapacity();
    // A full ring blocks its producer until this drain consumes, so
    // the worker must re-poll at once rather than wait out a quantum.
    if (cap != 0 && span.total() >= cap)
        shard.ring_full.store(true, std::memory_order_relaxed);
    // v2 decode budgets: the ring bound rejects headers whose footprint
    // can never fit (waiting for them would hang the drain); the record
    // bound is the hard scratch-buffer ceiling, not the per-round
    // fairness cap — fairness is enforced below at run granularity.
    const frame::DecodeLimits limits{
        cap != 0 ? cap : frame::kMaxFrameSlots, kMaxPollBatch};
    while (span.total() != 0 && records < batch_max) {
        std::size_t slots;
        if (!framed) {
            // v1: the CRC-clean prefix of the next contiguous run,
            // checked where it sits.
            const Message *run = span.seg[0].data;
            const std::size_t limit =
                std::min(span.seg[0].count, batch_max - records);
            slots = 0;
            while (slots < limit && run[slots].pad == messageCrc(run[slots]))
                ++slots;
            if (slots != 0) {
                processBatch(shard, entry, run, slots);
                records += slots;
            } else {
                // Bits flipped in flight: fail closed without trusting
                // any field, not even the pid. Drop exactly this slot
                // and advance the record cursor past it so lag matching
                // stays aligned with the sender's stamping.
                recordCorruption(entry,
                                 "message corruption detected (CRC mismatch)",
                                 run[0]);
                slots = 1;
                entry.recv_index += 1;
            }
        } else {
            frame::FrameView view;
            const frame::DecodeStatus status =
                frame::decode(span, limits, view);
            if (status == frame::DecodeStatus::NeedMore)
                break; // producer mid-publish; the tail arrives shortly
            if (status == frame::DecodeStatus::BadHeader) {
                // The slot is not a valid frame header. Fail closed:
                // record the corruption, drop exactly one slot, resync
                // on the next. A garbage run yields one CorruptMsg per
                // slot — noisy, but never a silent accept.
                recordCorruption(entry, "frame header rejected (v2 decode)");
                slots = 1;
            } else if (status == frame::DecodeStatus::BadBody) {
                // Authentic header, corrupt records: skip the frame
                // whole — never partially applied — and advance the
                // record cursor by the header's count so lag matching
                // stays aligned with the sender's per-record stamping.
                recordCorruption(entry, "frame body CRC mismatch (v2 decode)");
                slots = view.slots;
                entry.recv_index += view.count;
            } else {
                // The first frame is always taken so a frame larger
                // than the remaining budget cannot wedge the drain
                // (kMaxRecords <= kMaxPollBatch keeps scratch in
                // bounds).
                if (records != 0 && records + view.count > batch_max)
                    break;
                frame::unpackAll(span, view, scratch);
                processBatch(shard, entry, scratch, view.count);
                slots = view.slots;
                records += view.count;
            }
        }
        entry.channel->consumeSlots(slots);
        span.advance(slots);
        if (_crashed.load(std::memory_order_relaxed))
            break;
    }
    return records;
}

void
Verifier::processBatch(Shard &shard, ChannelEntry &entry,
                       const Message *batch, std::size_t n)
{
    // One telemetry scope per batch: a single clock-read pair and one
    // histogram lock record the amortized per-message latency n times
    // (so counts still mean "messages").
    const bool telemetry_on = telemetry::enabled();
    const std::uint64_t batch_start =
        telemetry_on ? telemetry::nowNs() : 0;
    telemetry::TraceScope check_scope("verifier.check_batch");

    // Match lag envelopes before the checks so per-message lag is
    // available to the event log on a violation.
    std::uint64_t lag_ns[kMaxPollBatch];
    if (telemetry_on)
        recordBatchLag(shard, entry, n, lag_ns);

    telemetry::emit(telemetry::Event::DrainBatch,
                    {.pid = entry.owner,
                     .shard = static_cast<std::int32_t>(shard.index),
                     .arg0 = n,
                     .arg1 = entry.channel->channelId()});

    {
        // The memo holds the pid's home-shard state lock for the
        // duration of the batch (released when it leaves scope, or
        // swapped when a device-stamped batch switches to a pid hashing
        // elsewhere).
        PidMemo memo;
        for (std::size_t i = 0; i < n; ++i) {
            handleMessage(shard, entry, batch[i], memo,
                          telemetry_on ? lag_ns[i] : kNoLag);
            if (_crashed.load(std::memory_order_relaxed))
                break; // messages behind the crash are lost
        }
        entry.recv_index += n;

        if (telemetry_on) {
            const std::uint64_t elapsed =
                telemetry::nowNs() - batch_start;
            msgLatencyHist().record(elapsed / n, n);
            messagesCounter().add(n);
            shard.messages_metric->add(n);
            if (memo.entry != nullptr)
                policyEntriesGauge().set(memo.entry->stats.max_entries);
        }
    }
    shard.messages.fetch_add(n, std::memory_order_relaxed);
}

void
Verifier::recordCorruption(ChannelEntry &entry, const char *reason,
                           const Message &message)
{
    PidMemo memo;
    ProcessEntry *owner = lookupProcess(entry.owner, memo);
    if (owner == nullptr || owner->exited)
        return;
    recordViolation(memo.home_shard, entry.owner, *owner, reason, message,
                    telemetry::Event::CorruptMsg, kNoLag);
}

void
Verifier::recordBatchLag(Shard &shard, ChannelEntry &entry, std::size_t n,
                         std::uint64_t *lag_ns)
{
    telemetry::LagSidecar *sidecar = entry.channel->lagSidecar();
    // One clock read per batch: every message checked in this drain
    // shares the same "checked at" instant, which is what bounded
    // asynchronous validation promises anyway (the batch is validated
    // as a unit before any syscall ack).
    const std::uint64_t check_ns = telemetry::monotonicRawNs();
    const std::uint32_t channel_id = entry.channel->channelId();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t index = entry.recv_index + i;
        std::uint64_t enqueue_ns = 0;
        if (sidecar == nullptr ||
            !sidecar->consumeUpTo(index, enqueue_ns)) {
            lag_ns[i] = kNoLag;
            continue;
        }
        const std::uint64_t lag =
            check_ns > enqueue_ns ? check_ns - enqueue_ns : 0;
        lag_ns[i] = lag;
        lagHist().record(lag);
        if (entry.pid_lag == nullptr)
            entry.pid_lag = &telemetry::Registry::instance().histogram(
                "verifier.lag_ns.pid_" + std::to_string(entry.owner));
        entry.pid_lag->record(lag);
        lagHighWater().set(lag); // Gauge keeps the high-water mark
        if (_config.lag_slo_ns != 0 && lag > _config.lag_slo_ns) {
            telemetry::emit(telemetry::Event::SloBreach,
                            {.pid = entry.owner,
                             .shard = static_cast<std::int32_t>(shard.index),
                             .arg0 = lag,
                             .arg1 = _config.lag_slo_ns});
        }
        // Close the Perfetto flow opened by Channel::send; "bp":"e"
        // binds the arrow head into the enclosing check_batch slice.
        telemetry::traceFlowEnd("lag", lagFlowId(channel_id, index));
    }
}

void
Verifier::recordViolation(std::size_t home_shard, Pid pid,
                          ProcessEntry &process,
                          const std::string &reason,
                          const Message &message,
                          telemetry::Event event,
                          std::uint64_t lag_ns)
{
    process.violated = true;
    ++process.stats.violations;
    if (telemetry::enabled())
        _shards[home_shard]->violations_metric->inc();
    // Policy-family attribution: a policy verdict carries the family of
    // the context (module) that raised it; transport integrity failures
    // (CRC, seq gaps) are not any policy's verdict.
    const char *policy = "transport";
    if (event == telemetry::Event::Violation)
        policy = process.context ? process.context->violationFamily() : "";
    telemetry::emit(event,
                    {.pid = pid,
                     .shard = static_cast<std::int32_t>(home_shard),
                     .policy = policy,
                     .op = opcodeName(message.op),
                     .arg0 = message.arg0,
                     .arg1 = message.arg1,
                     .seq = message.seq,
                     .lag_ns = lag_ns == kNoLag ? 0 : lag_ns,
                     .reason = reason});
    logDebug("verifier: violation for pid ", pid, ": ", reason);
    if (_config.kill_on_violation)
        _kernel.killProcess(pid, reason);
}

Verifier::ProcessEntry *
Verifier::lookupProcess(Pid pid, PidMemo &memo)
{
    // Channels are per-process, so consecutive messages in a batch
    // almost always share a pid: memoize the shard hash and map lookup
    // (negative results included, so an unknown-pid flood stays cheap).
    if (memo.valid && memo.pid == pid)
        return memo.entry;
    const std::size_t home = _registry.shardOf(pid);
    Shard &shard = *_shards[home];
    // Device-stamped channels can interleave pids whose home shards
    // differ from the polling shard: move the lock to the new home
    // (unique_lock move-assign releases the old mutex first, so at most
    // one state mutex is ever held — no lock-order cycles possible).
    if (memo.lock.mutex() != &shard.state_mutex)
        memo.lock = std::unique_lock<std::mutex>(shard.state_mutex);
    auto it = shard.processes.find(pid);
    memo.pid = pid;
    memo.home_shard = home;
    memo.entry =
        it == shard.processes.end() ? nullptr : &it->second;
    memo.valid = true;
    return memo.entry;
}

void
Verifier::handleMessage(Shard &shard, ChannelEntry &entry,
                        const Message &message, PidMemo &memo,
                        std::uint64_t lag_ns)
{
    if (_crashed.load(std::memory_order_relaxed))
        return;
    if (faultinject::fire(faultinject::Site::VerifierCrash)) {
        // The verifier dies mid-message: no further message is ever
        // processed, no syscall ack is ever sent. The monitored
        // program's next syscall must hit the kernel epoch timeout.
        _crashed.store(true, std::memory_order_relaxed);
        _running.store(false, std::memory_order_relaxed);
        logWarn("verifier: injected crash while handling message ",
                message.toString());
        return;
    }

    // Authenticity: trust the hardware-stamped PID when present,
    // otherwise the kernel-arbitrated channel registration.
    const Pid pid = entry.device_stamped ? message.pid : entry.owner;

    ProcessEntry *found = lookupProcess(pid, memo);
    if (found == nullptr) {
        logDebug("verifier: message for unknown pid ", pid, ": ",
                 message.toString());
        return;
    }
    ProcessEntry &process = *found;
    if (process.exited || !process.context)
        return; // stale message from an already-exited process
    ++process.stats.messages;

    // Message-integrity: the FPGA path has no back-pressure, so the
    // verifier requires consecutive sequence counters; software
    // channels carry the send-wrapper's counter with the same contract.
    // A gap means messages were dropped (or repeated) in flight and the
    // program must be terminated. The first message observed on a
    // channel establishes the baseline, so a restarted verifier resyncs
    // to the live stream instead of reporting a spurious gap.
    if (entry.seq_started && message.seq != entry.expected_seq) {
        recordViolation(memo.home_shard, pid, process,
                        "message sequence gap: integrity violated", message,
                        telemetry::Event::SeqGap, lag_ns);
    }
    entry.seq_started = true;
    entry.expected_seq = message.seq + 1;

    const Status status = process.context->handleMessage(message);
    if (!status.isOk())
        recordViolation(memo.home_shard, pid, process, status.message(),
                        message, telemetry::Event::Violation,
                        lag_ns);

    process.stats.max_entries =
        std::max(process.stats.max_entries, process.context->entryCount());

    if (message.op == Opcode::Syscall) {
        // All earlier messages on this (in-order) channel have been
        // processed; queue an epoch acknowledgement for the kernel,
        // unless the process was violated and kill-on-violation is set.
        // Acks coalesce on the polling shard and reach the kernel in
        // one syscallResumeBatch per drain round (flushAcks).
        if (!(process.violated && _config.kill_on_violation)) {
            ++process.stats.syscall_acks;
            if (telemetry::enabled())
                _shards[memo.home_shard]->syscall_acks_metric->inc();
            telemetry::emit(
                telemetry::Event::SyscallAck,
                {.pid = pid,
                 .shard = static_cast<std::int32_t>(memo.home_shard),
                 .arg0 = process.stats.syscall_acks});
            queueAck(shard, pid);
        }
    }
}

void
Verifier::queueAck(Shard &shard, Pid pid)
{
    // Channels are per-process, so a drained batch's acks are almost
    // always one pid: merge adjacent entries into a single count.
    if (!shard.pending_acks.empty() &&
        shard.pending_acks.back().pid == pid) {
        ++shard.pending_acks.back().count;
    } else {
        shard.pending_acks.push_back(KernelModule::SyscallAck{pid, 1});
    }
    if (telemetry::enabled())
        shard.pending_ack_ns.push_back(telemetry::monotonicRawNs());
}

void
Verifier::flushAcks(Shard &shard)
{
    if (shard.pending_acks.empty())
        return;
    if (_crashed.load(std::memory_order_relaxed)) {
        // Death before the flush: the acks must never arrive, so the
        // monitored processes hit the epoch timeout (fail closed).
        shard.pending_acks.clear();
        shard.pending_ack_ns.clear();
        return;
    }
    _kernel.syscallResumeBatch(shard.pending_acks.data(),
                               shard.pending_acks.size());
    if (_health) {
        shard.last_ack_ns.store(telemetry::monotonicRawNs(),
                                std::memory_order_relaxed);
    }
    if (telemetry::enabled()) {
        std::uint64_t total = 0;
        for (const KernelModule::SyscallAck &ack : shard.pending_acks)
            total += ack.count;
        acksBatchedCounter().add(total);
        // Queue-to-flush latency per ack message; a breach feeds the
        // same SLO counter as end-to-end verification lag (both delay
        // the monitored process's resume).
        const std::uint64_t now = telemetry::monotonicRawNs();
        for (const std::uint64_t queued : shard.pending_ack_ns) {
            const std::uint64_t lat = now > queued ? now - queued : 0;
            ackLatencyHist().record(lat);
            if (_config.lag_slo_ns != 0 && lat > _config.lag_slo_ns) {
                telemetry::emit(
                    telemetry::Event::SloBreach,
                    {.shard = static_cast<std::int32_t>(shard.index),
                     .arg0 = lat,
                     .arg1 = _config.lag_slo_ns});
            }
        }
    }
    shard.pending_acks.clear();
    shard.pending_ack_ns.clear();
}

void
Verifier::onProcessEnabled(Pid pid)
{
    const std::size_t home = _registry.assign(pid);
    ProcessEntry entry;
    entry.context = _policy->makeContext(pid);
    Shard &shard = *_shards[home];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    shard.processes[pid] = std::move(entry);
}

void
Verifier::onSyscallGate(Pid pid)
{
    // Called on the monitored thread's syscall hot path with no kernel
    // locks held: bump the home shard's kick counter and wake its
    // worker. Nothing else — the drain itself stays on the worker.
    Shard &shard = *_shards[_registry.shardOf(pid)];
    shard.gate_kicks.fetch_add(1, std::memory_order_release);
    {
        // Empty critical section pairs with the worker's predicate
        // check under wake_mutex, closing the missed-wakeup window.
        std::lock_guard<std::mutex> guard(shard.wake_mutex);
    }
    shard.wake_cv.notify_one();
}

void
Verifier::onProcessForked(Pid parent, Pid child)
{
    // Clone under the parent's home-shard lock, insert under the
    // child's — never both at once (the pids may share a shard).
    std::unique_ptr<PolicyContext> child_context;
    {
        Shard &parent_shard = *_shards[_registry.shardOf(parent)];
        std::lock_guard<std::mutex> guard(parent_shard.state_mutex);
        auto it = parent_shard.processes.find(parent);
        if (it == parent_shard.processes.end()) {
            logWarn("verifier: fork from unknown parent ", parent);
            return;
        }
        child_context = it->second.context->cloneForChild(child);
    }
    const std::size_t home = _registry.assign(child);
    ProcessEntry entry;
    entry.context = std::move(child_context);
    Shard &shard = *_shards[home];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    shard.processes[child] = std::move(entry);
}

void
Verifier::onProcessExited(Pid pid)
{
    // Drain in-flight messages before tearing the process down: the
    // exit notification arrives over the privileged channel and must
    // not outrun the message stream. Device-stamped channels can carry
    // this pid's messages on any shard, so drain them all.
    poll();
    Shard &shard = *_shards[_registry.shardOf(pid)];
    {
        std::lock_guard<std::mutex> guard(shard.state_mutex);
        auto it = shard.processes.find(pid);
        if (it == shard.processes.end())
            return;
        // The policy context is kept for post-mortem inspection by the
        // harnesses; the exited flag stops further message processing.
        // Unless the pid's channels are already gone (detachChannel ran
        // first): with nothing left to name the slice, keeping it would
        // leak one entry per churned pid. A device-stamped channel
        // anywhere can carry any pid's messages, so its presence keeps
        // every slice post-mortem.
        bool has_channels =
            _device_channels.load(std::memory_order_relaxed) != 0;
        for (const auto &entry : shard.channels) {
            if (has_channels)
                break;
            if (entry->owner == pid)
                has_channels = true;
        }
        if (has_channels)
            it->second.exited = true;
        else
            shard.processes.erase(it);
    }
    _registry.release(pid);
}

bool
Verifier::hasViolation(Pid pid) const
{
    const Shard &shard = *_shards[_registry.shardOf(pid)];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    auto it = shard.processes.find(pid);
    return it != shard.processes.end() && it->second.violated;
}

VerifierProcessStats
Verifier::statsFor(Pid pid) const
{
    const Shard &shard = *_shards[_registry.shardOf(pid)];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    auto it = shard.processes.find(pid);
    return it == shard.processes.end() ? VerifierProcessStats{}
                                       : it->second.stats;
}

PolicyContext *
Verifier::contextFor(Pid pid)
{
    Shard &shard = *_shards[_registry.shardOf(pid)];
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    auto it = shard.processes.find(pid);
    return it == shard.processes.end() ? nullptr
                                       : it->second.context.get();
}

std::uint64_t
Verifier::shardMessages(std::size_t shard_index) const
{
    return shard_index < _shards.size()
               ? _shards[shard_index]->messages.load(
                     std::memory_order_relaxed)
               : 0;
}

std::uint64_t
Verifier::shardQueueDepth(std::size_t shard_index) const
{
    if (shard_index >= _shards.size())
        return 0;
    Shard &shard = *_shards[shard_index];
    // Under the state lock so attachChannel cannot resize the list
    // mid-walk; pending() is a relaxed cursor subtraction per channel.
    std::lock_guard<std::mutex> guard(shard.state_mutex);
    std::uint64_t depth = 0;
    for (const auto &entry : shard.channels)
        depth += entry->channel->pending();
    return depth;
}

} // namespace hq
