/**
 * @file
 * Shared pieces of the end-to-end benchmark: statistics, clocks, the
 * in-memory span tracer, the syscall-pause sink, captured message
 * streams, and the report every workload fills.
 *
 * The benchmark drives HerQules only through its public APIs and builds
 * each harness (kernel module, verifier, channel, runtime) itself, so
 * every layer can be timed from outside without touching src/.
 */

#ifndef HQ_PERFBENCH_BENCH_H
#define HQ_PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cfi/design.h"
#include "ipc/channel.h"
#include "ipc/shm_channel.h"
#include "ir/module.h"
#include "runtime/vm.h"
#include "workloads/spec_profiles.h"

namespace hqbench {

// --- Options -----------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and short legs: exercises every path in seconds. */
    bool smoke = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string trace_out;
    std::string commit = "unknown";
};

// --- Statistics --------------------------------------------------------

struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

/** Median and quartiles, with the method of Python's
 *  statistics.quantiles(values, n=4) (the "exclusive" method). */
Quartiles quartiles(std::vector<double> values);

/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

/** splitmix64: the benchmark's only source of seeded choices. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}
    std::uint64_t next();
    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t _state;
};

// --- Clocks and resources ----------------------------------------------

std::uint64_t monoNs();
double secondsSince(std::uint64_t start_ns);
double threadCpuSeconds();
double processCpuSeconds();
double peakRssMb();

/**
 * Pins the calling thread for its lifetime, then restores the full
 * mask: to CPU `slot` (modulo the CPUs the process may use), or, with
 * Mode::AllBut, to every CPU except that one. Threads started meanwhile
 * inherit the mask.
 *
 * On a shared host the CPUs are not equally fast, and a timed thread
 * that stays on one of them makes a whole run read fast or slow.
 * Trials therefore pin their timed thread by slot and rotate the slot,
 * so every run spreads its timed work evenly over all CPUs. The
 * threads a harness starts (verifier shards) are started
 * under AllBut, so they never share the timed thread's CPU, as on a
 * host that gives the verifier a core of its own.
 */
class CpuSlot
{
  public:
    enum class Mode { Only, AllBut };

    explicit CpuSlot(std::size_t slot, Mode mode = Mode::Only);
    ~CpuSlot();
    CpuSlot(const CpuSlot &) = delete;
    CpuSlot &operator=(const CpuSlot &) = delete;

  private:
    bool _pinned = false;
};

// --- Span tracer -------------------------------------------------------

/**
 * In-memory span recorder for the traced run. Spans are recorded only
 * from the benchmark's own thread, around calls into each layer; each
 * span names the span open around it (its cause) and the trial it
 * belongs to. Nothing is written until the run ends.
 */
class Tracer
{
  public:
    static Tracer &get();

    bool on() const { return _on; }
    void setOn(bool on) { _on = on; }
    /** Spans kept in total; later ones are only counted as dropped.
     *  Raised between phases so every phase leaves spans behind. */
    void setLimit(std::size_t limit) { _limit = limit; }
    void nextTrial() { ++_trial; }

    /** Open a span; returns its index (or npos when tracing is off). */
    std::size_t open(const char *name);
    void close(std::size_t index);
    /** Record an already-finished span under the currently open one. */
    void add(const char *name, std::uint64_t start_ns,
             std::uint64_t end_ns);

    /** Total and self (minus child spans) milliseconds per span name. */
    struct Totals
    {
        std::size_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    std::uint64_t dropped() const { return _dropped; }

    /** Write Chrome-trace JSON (loads in Perfetto / chrome://tracing). */
    bool write(const std::string &path) const;

    static constexpr std::size_t npos = ~std::size_t{0};

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint64_t trial;
        std::size_t parent;
    };
    bool _on = false;
    std::size_t _limit = 10'000; // set-up spans, before any trial
    std::uint64_t _trial = 0;
    std::uint64_t _dropped = 0;
    std::vector<Span> _spans;
    std::vector<std::size_t> _stack;
};

/** RAII span; free when tracing is off. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
        : _index(Tracer::get().on() ? Tracer::get().open(name)
                                    : Tracer::npos)
    {}
    ~SpanScope()
    {
        if (_index != Tracer::npos)
            Tracer::get().close(_index);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    std::size_t _index;
};

// --- Syscall pause sink ------------------------------------------------

/**
 * Observes the VM's instruction stream. onInstr() fires before each
 * instruction, so the gap between a Syscall instruction and the next
 * onInstr() is the kernel gate's pause as the program sees it. At each
 * Syscall it also samples the channel backlog (messages sent, not yet
 * drained). Attached to both sides of every pair so each pays the
 * same observation cost.
 */
class GateSink : public hq::CycleSink
{
  public:
    explicit GateSink(const hq::Channel *channel) : _channel(channel) {}

    void onInstr(const hq::ir::Instr &instr) override;

    std::uint64_t syscalls = 0;
    std::vector<double> pause_us;
    std::vector<double> backlog;

  private:
    const hq::Channel *_channel;
    std::uint64_t _syscall_start = 0;
    bool _in_syscall = false;
};

// --- Captured message streams -------------------------------------------

/**
 * A shared-memory channel that also records every message Channel::send
 * hands to the transport. Used once at set-up to capture what a real
 * instrumented run emits; the copy is replayed later without the VM.
 */
class RecordingChannel : public hq::ShmChannel
{
  public:
    explicit RecordingChannel(std::size_t capacity)
        : hq::ShmChannel(capacity)
    {}

    hq::Status sendImpl(const hq::Message &message) override;

    std::vector<hq::Message> recorded;
};

/** One benchmark program: a SPEC-like profile built and instrumented. */
struct Program
{
    const hq::SpecProfile *profile = nullptr;
    hq::CfiDesign design = hq::CfiDesign::HqSfeStk;
    double scale = 0.0;
    std::uint64_t work_items = 0;

    hq::ir::Module baseline;
    hq::ir::Module instrumented;
    double build_ms = 0.0;
    double instrument_ms = 0.0;
    std::uint64_t msg_sites = 0;

    // Reference facts from set-up runs; every later run must match.
    std::uint64_t checksum = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t messages = 0;
    std::uint64_t hq_ops = 0;
    std::uint64_t max_entries = 0;

    /** Messages the instrumented program sent, in order (pid cleared). */
    std::vector<hq::Message> stream;
};

/**
 * Build both variants of a program, take the baseline checksum, and
 * capture the instrumented message stream under a real strict gate,
 * with the runs placed like a trial's on CPU slot `slot` (CpuSlot).
 * Returns false (with a reason) when any set-up step misbehaves.
 */
bool prepareProgram(Program &program, std::size_t slot, std::string &why);

/** Static message-emitting ops in a module (the compiler's output). */
std::uint64_t countMessageSites(const hq::ir::Module &module);

// --- Reports -----------------------------------------------------------

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first few reasons, for stderr

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Quartiles of the in-run trials behind each timed metric. */
    std::map<std::string, Quartiles> spreads;
    std::map<std::string, double> info;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string &why);
    void check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok)
            fail(why);
    }
};

/** Fails the run unless HerQules telemetry is off (end-to-end legs). */
void requireTelemetryOff(const char *where);

// --- Workloads -----------------------------------------------------------

Report runSpecMix(const Options &options);
Report runNginxGate(const Options &options);
Report runVerifyReplay(const Options &options);

/** Profile names the spec-mix workload draws for a seed. */
std::vector<std::string> specMixDraw(std::uint64_t seed);

/** Profile names verify-replay captures its streams from. */
std::vector<std::string> replayDraw(std::uint64_t seed);

// --- Stage micro-legs (traced run) ----------------------------------------

/**
 * Drain and decode every complete v2 frame visible on a channel into
 * scratch (frame::kMaxRecords messages). Returns records decoded; sets
 * `bad` on any decode failure.
 */
std::size_t drainFrames(hq::Channel &channel, hq::Message *scratch,
                        bool &bad);

/** How a workload's verifier is fed, for the poll leg. */
enum class Transport {
    ModelV1, //!< AppendWrite-µarch model, v1 messages
    ShmV2,   //!< shared-memory ring, v2 frames
};

/**
 * Time each pipeline stage single-threaded on captured streams and add
 * per-layer metrics (ns/msg) to the report.
 */
void runStageLegs(const std::vector<const std::vector<hq::Message> *> &streams,
                  Transport transport, double seconds, Report &report);

} // namespace hqbench

#endif // HQ_PERFBENCH_BENCH_H
