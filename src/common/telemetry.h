/**
 * @file
 * Process-wide telemetry: a thread-safe metrics registry (named
 * counters, gauges and fixed-bucket histograms with percentile
 * extraction) plus a trace-span recorder exporting Chrome
 * trace_event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Every layer of the stack reports through this one surface: the
 * CDCL solver and portfolio (conflicts, propagations, GC spans,
 * per-instance race timelines), the descent loop (one span per
 * totalizer bound), the CompilerService (queue depth, latency
 * percentiles, cache counters) and the trajectory simulator. The
 * --metrics-json and --trace flags on the bench/example binaries
 * (see common/telemetry_flags.h) serialize it at exit.
 *
 * Key invariants:
 *  - The hot path is lock-free: Counter::add, Gauge::set and
 *    Histogram::record are relaxed atomic operations on storage
 *    allocated at registration. After a handle is obtained, no
 *    metric update ever allocates or takes a lock — registration
 *    (name lookup) is the only mutex-guarded step.
 *  - Tracing is off by default. A TraceSpan constructed while the
 *    recorder is disabled performs no clock read, no allocation
 *    and no synchronisation; enabling mid-run only affects spans
 *    constructed afterwards.
 *  - Handles returned by counter()/gauge()/histogram() are valid
 *    for the registry's lifetime (node-stable storage), and the
 *    same name always returns the same handle.
 *  - All timestamps come from the monotonic steady clock
 *    (common/timer.h): span timelines are immune to wall-clock
 *    adjustments and never go backwards.
 *  - metricsJson() snapshots are taken metric-by-metric with
 *    relaxed loads: totals are exact once writers are quiescent
 *    (the export points), merely approximate during concurrent
 *    hammering — never torn or corrupt.
 */

#ifndef FERMIHEDRAL_COMMON_TELEMETRY_H
#define FERMIHEDRAL_COMMON_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fermihedral::telemetry {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t amount = 1)
    {
        count.fetch_add(amount, std::memory_order_relaxed);
    }

    std::uint64_t
    get() const
    {
        return count.load(std::memory_order_relaxed);
    }

    /** Zero the counter. Quiescent-world only (tests, benches). */
    void
    reset()
    {
        count.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> count{0};
};

/** Last-write-wins instantaneous value (queue depth, DB size). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        current.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        current.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    get() const
    {
        return current.load(std::memory_order_relaxed);
    }

    /** Zero the gauge. Quiescent-world only (tests, benches). */
    void reset() { set(0); }

  private:
    std::atomic<std::int64_t> current{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts samples <= bounds[i];
 * one extra overflow bucket counts everything above the last
 * bound. Percentiles interpolate linearly inside the bucket the
 * rank falls into, clamped to the observed min/max so single-
 * sample and overflow-heavy distributions report honest values.
 */
class Histogram
{
  public:
    /** @param bounds Strictly increasing upper bucket bounds. */
    explicit Histogram(std::span<const double> bounds);

    void record(double value);

    /** Consistent-enough copy of the atomic state (see file docs). */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<double> bounds;
        /** bounds.size() + 1 entries; last = overflow. */
        std::vector<std::uint64_t> buckets;

        /** Interpolated percentile, p in [0, 100]. 0 when empty. */
        double percentile(double p) const;
        double p50() const { return percentile(50.0); }
        double p90() const { return percentile(90.0); }
        double p99() const { return percentile(99.0); }
        double
        mean() const
        {
            return count ? sum / static_cast<double>(count) : 0.0;
        }
    };

    Snapshot snapshot() const;

    /** Zero all state (bounds kept). Quiescent-world only. */
    void reset();

    /**
     * Default latency bounds: log-spaced from 10 microseconds to
     * ~100 seconds, three buckets per decade.
     */
    static std::span<const double> latencyBoundsSeconds();

  private:
    std::vector<double> bounds;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> minValue;
    std::atomic<double> maxValue;
};

/**
 * The named-metric registry. Use MetricsRegistry::global() for the
 * process-wide instance; local instances exist for tests.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry every subsystem reports into. */
    static MetricsRegistry &global();

    /** Find-or-create; the handle is stable for the registry life. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);

    /**
     * Find-or-create a histogram. `bounds` is consulted only on
     * creation (empty = latencyBoundsSeconds()); later calls with
     * the same name return the existing histogram unchanged.
     */
    Histogram &histogram(std::string_view name,
                         std::span<const double> bounds = {});

    /**
     * One JSON object: {"counters":{...},"gauges":{...},
     * "histograms":{name:{count,sum,mean,min,max,p50,p90,p99}}}.
     * Names are emitted sorted, so artifacts diff stably.
     */
    std::string metricsJson() const;

    /** Write metricsJson() to a file; warn + false on IO failure. */
    bool writeMetricsJson(const std::string &path) const;

    /** Zero every registered metric (tests and repeated benches). */
    void reset();

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
};

/** One completed span, ready for trace_event export. */
struct TraceEvent
{
    std::string name;
    /** Pre-rendered JSON object body for "args" ("" = none). */
    std::string args;
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
    std::uint32_t tid = 0;
};

/**
 * Collects TraceEvents process-wide. Disabled by default; the
 * bench/example --trace flag (or a test) enables it.
 */
class TraceRecorder
{
  public:
    static TraceRecorder &global();

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    void setEnabled(bool enable);

    /** Nanoseconds since this recorder's (steady-clock) epoch. */
    std::uint64_t nowNs() const;

    /** Small dense id for the calling thread (cached per thread). */
    std::uint32_t currentThreadId();

    /** Append one completed event (span destructors call this). */
    void record(TraceEvent event);

    /** Drop all recorded events. */
    void clear();

    /** Number of recorded events. */
    std::size_t eventCount() const;

    /**
     * The Chrome trace_event document:
     * {"traceEvents":[{"name","cat","ph":"X","ts","dur","pid",
     * "tid","args"},...]} with ts/dur in microseconds. Loadable
     * in Perfetto and chrome://tracing.
     */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to a file; warn + false on failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    TraceRecorder();

    std::atomic<bool> on{false};
    /** Steady-clock ns at construction: the trace's t = 0. */
    std::uint64_t epochNs;

    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint32_t nextThreadId = 0;
};

/**
 * RAII span: times a scope and records it into the global
 * TraceRecorder on destruction. When the recorder is disabled at
 * construction the span is inert — no clock read, no allocation.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(std::string_view name);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a key/value to the span's args (active spans only). */
    void arg(std::string_view key, std::string_view text);
    void arg(std::string_view key, const char *text)
    {
        arg(key, std::string_view(text));
    }
    void arg(std::string_view key, std::uint64_t number);
    void arg(std::string_view key, std::int64_t number);
    void arg(std::string_view key, int number)
    {
        arg(key, static_cast<std::int64_t>(number));
    }
    void arg(std::string_view key, double number);
    void arg(std::string_view key, bool boolean);

    bool active() const { return live; }

  private:
    void appendArgKey(std::string_view key);

    bool live;
    std::uint64_t startNs = 0;
    std::string name;
    std::string args;
};

} // namespace fermihedral::telemetry

#endif // FERMIHEDRAL_COMMON_TELEMETRY_H
