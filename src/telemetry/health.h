/**
 * @file
 * Shard health watchdog: detects wedged verifier drain loops.
 *
 * Bounded asynchronous validation only holds while every shard keeps
 * draining: a shard whose worker is stuck (livelock, scheduler
 * starvation, injected stall) silently stops enforcing its pids'
 * syscall gating budget. The watchdog samples each shard's heartbeat
 * (bumped once per drain pass), its channels' queue depth (the v2
 * accounting via Channel::pending), and the age of its last syscall
 * ack, and drives a per-shard state machine:
 *
 *     OK --(no heartbeat progress while backlog > 0,
 *            `degraded_after` consecutive samples)--> DEGRADED
 *     DEGRADED --(`stalled_after` total samples)----> STALLED
 *     any --(heartbeat advanced or backlog drained)-> OK
 *
 * Transitions publish to the metrics registry (and therefore the
 * statsboard): `verifier.shard<i>.health` (0=ok 1=degraded 2=stalled),
 * `.heartbeat`, `.queue_depth` (Gauge::max = the high-water mark) and
 * `.ack_age_ns`; they also append `health_change` records to the JSONL
 * event log and the flight recorder. Entering STALLED triggers a
 * flight-recorder dump so the evidence of what the shard did last is
 * preserved before an operator (or the fleet daemon, someday) restarts
 * it.
 *
 * The monitor owns no verifier state: it reads through a Sampler
 * callback, so tests can drive the state machine deterministically with
 * sampleOnce() and scripted samples.
 */

#ifndef HQ_TELEMETRY_HEALTH_H
#define HQ_TELEMETRY_HEALTH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hq {
namespace telemetry {

class Gauge;

enum class HealthState : int {
    Ok = 0,
    Degraded = 1,
    Stalled = 2,
};

const char *healthStateName(HealthState state);

struct HealthConfig
{
    /** Watchdog sampling period. */
    std::chrono::milliseconds interval{100};
    /** Consecutive no-progress samples (with backlog) before DEGRADED. */
    int degraded_after = 3;
    /** Consecutive no-progress samples (with backlog) before STALLED. */
    int stalled_after = 10;
};

/** What the watchdog sees of one shard at one instant. */
struct ShardHealthSample
{
    std::uint64_t heartbeat = 0;   //!< drain passes since start
    std::uint64_t queue_depth = 0; //!< pending messages across channels
    std::uint64_t ack_age_ns = 0;  //!< ns since last syscall ack (0=never)
};

class HealthMonitor
{
  public:
    using Sampler = std::function<ShardHealthSample(std::size_t shard)>;

    /**
     * @param num_shards shards to watch (gauges registered up front)
     * @param config     thresholds and sampling period
     * @param sampler    reads one shard's live counters; called with the
     *                   sample mutex held, never concurrently
     */
    HealthMonitor(std::size_t num_shards, HealthConfig config,
                  Sampler sampler);
    ~HealthMonitor();

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** Start the watchdog thread (idempotent). */
    void start();

    /** Stop and join the watchdog thread (idempotent). */
    void stop();

    /**
     * Take one sample of every shard and advance the state machines on
     * the caller's thread. Deterministic tests call this instead of
     * start(); safe concurrently with a running watchdog.
     */
    void sampleOnce();

    HealthState state(std::size_t shard) const;

    /** Total state transitions published (tests). */
    std::uint64_t transitions() const
    {
        return _transitions.load(std::memory_order_relaxed);
    }

    std::size_t numShards() const { return _shards.size(); }
    const HealthConfig &config() const { return _config; }

  private:
    struct ShardHealth
    {
        std::atomic<int> state{0}; //!< HealthState (readable lock-free)
        std::uint64_t last_heartbeat = 0;
        int bad_samples = 0;
        bool seen = false;
        Gauge *health = nullptr;
        Gauge *heartbeat = nullptr;
        Gauge *queue_depth = nullptr;
        Gauge *ack_age = nullptr;
    };

    void sampleShard(std::size_t index);
    void publishTransition(std::size_t index, HealthState from,
                           HealthState to, const ShardHealthSample &sample);

    HealthConfig _config;
    Sampler _sampler;
    std::vector<std::unique_ptr<ShardHealth>> _shards;

    mutable std::mutex _sample_mutex;
    std::thread _thread;
    std::atomic<bool> _running{false};
    std::atomic<std::uint64_t> _transitions{0};
};

} // namespace telemetry
} // namespace hq

#endif // HQ_TELEMETRY_HEALTH_H
