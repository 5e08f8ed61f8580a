/**
 * @file
 * Tests for the telemetry layer: lock-free metric exactness under
 * concurrent hammering, histogram percentile edge cases, Chrome
 * trace JSON well-formedness, and the zero-allocation guarantee of
 * disabled instrumentation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"

// --------------------------------------------------------------------
// Counting allocator: replaces the global operator new so the
// zero-allocation regression below can assert that disabled
// telemetry never touches the heap. Counting only — behaviour is
// unchanged for the rest of the binary. The nothrow overloads are
// replaced too (std::stable_sort's temporary buffer uses them), so
// every allocation the replaced deletes free came from malloc.
// --------------------------------------------------------------------

namespace {
std::atomic<std::size_t> allocationCount{0};
}

void *
operator new(std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void operator delete(void *ptr) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void operator delete[](void *ptr) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

namespace fermihedral::telemetry {
namespace {

// --------------------------------------------------------------------
// Minimal recursive-descent JSON validator (syntax only), used to
// assert the exported documents are well-formed without trusting
// the writer that produced them.
// --------------------------------------------------------------------

class MiniJson
{
  public:
    static bool
    valid(std::string_view text)
    {
        MiniJson parser{text};
        parser.skipWs();
        if (!parser.parseValue())
            return false;
        parser.skipWs();
        return parser.pos == text.size();
    }

  private:
    explicit MiniJson(std::string_view text) : text(text) {}

    char
    peek() const
    {
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    eat(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    parseLiteral(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    bool
    parseString()
    {
        if (!eat('"'))
            return false;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: not escaped
            if (c == '\\') {
                if (pos >= text.size())
                    return false;
                const char esc = text[pos++];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (!std::isxdigit(static_cast<unsigned char>(
                                peek())))
                            return false;
                        ++pos;
                    }
                } else if (esc != '"' && esc != '\\' &&
                           esc != '/' && esc != 'b' &&
                           esc != 'f' && esc != 'n' &&
                           esc != 'r' && esc != 't') {
                    return false;
                }
            }
        }
        return false; // unterminated
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos;
        eat('-');
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
        if (eat('.')) {
            while (std::isdigit(
                static_cast<unsigned char>(peek())))
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            while (std::isdigit(
                static_cast<unsigned char>(peek())))
                ++pos;
        }
        return pos > start;
    }

    bool
    parseValue()
    {
        skipWs();
        switch (peek()) {
        case '{': {
            ++pos;
            skipWs();
            if (eat('}'))
                return true;
            for (;;) {
                skipWs();
                if (!parseString())
                    return false;
                skipWs();
                if (!eat(':'))
                    return false;
                if (!parseValue())
                    return false;
                skipWs();
                if (eat('}'))
                    return true;
                if (!eat(','))
                    return false;
            }
        }
        case '[': {
            ++pos;
            skipWs();
            if (eat(']'))
                return true;
            for (;;) {
                if (!parseValue())
                    return false;
                skipWs();
                if (eat(']'))
                    return true;
                if (!eat(','))
                    return false;
            }
        }
        case '"':
            return parseString();
        case 't':
            return parseLiteral("true");
        case 'f':
            return parseLiteral("false");
        case 'n':
            return parseLiteral("null");
        default:
            return parseNumber();
        }
    }

    std::string_view text;
    std::size_t pos = 0;
};

// --------------------------------------------------------------------
// Counters and gauges
// --------------------------------------------------------------------

TEST(TelemetryCounter, ConcurrentHammeringSumsExactly)
{
    MetricsRegistry registry;
    Counter &counter = registry.counter("test.hammer");
    const std::size_t iterations = 100000;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        counter.reset();
        ThreadPool pool(threads);
        pool.forEach(iterations, [&](std::size_t i) {
            counter.add();
            if (i % 10 == 0)
                counter.add(3);
        });
        EXPECT_EQ(counter.get(),
                  iterations + 3 * (iterations / 10))
            << threads << " threads";
    }
}

TEST(TelemetryGauge, ConcurrentDeltasSumExactly)
{
    MetricsRegistry registry;
    Gauge &gauge = registry.gauge("test.depth");
    ThreadPool pool(4);
    // +1 then -1 per index, plus one net +1 every 4th: the final
    // value is exact regardless of interleaving.
    pool.forEach(10000, [&](std::size_t i) {
        gauge.add(1);
        if (i % 4 != 0)
            gauge.add(-1);
    });
    EXPECT_EQ(gauge.get(), 2500);
    gauge.set(-7);
    EXPECT_EQ(gauge.get(), -7);
    gauge.reset();
    EXPECT_EQ(gauge.get(), 0);
}

// --------------------------------------------------------------------
// Histograms
// --------------------------------------------------------------------

TEST(TelemetryHistogram, ConcurrentRecordingIsExact)
{
    MetricsRegistry registry;
    Histogram &histogram = registry.histogram("test.latency");
    const std::size_t samples = 50000;
    ThreadPool pool(4);
    // Unit-valued samples: the CAS-accumulated double sum is exact
    // for integer totals far below 2^53.
    pool.forEach(samples, [&](std::size_t) {
        histogram.record(1.0);
    });
    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, samples);
    EXPECT_EQ(snap.sum, static_cast<double>(samples));
    EXPECT_EQ(snap.min, 1.0);
    EXPECT_EQ(snap.max, 1.0);
}

TEST(TelemetryHistogram, EmptyPercentilesAreZero)
{
    MetricsRegistry registry;
    const Histogram::Snapshot snap =
        registry.histogram("test.empty").snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.percentile(50.0), 0.0);
    EXPECT_EQ(snap.p99(), 0.0);
    EXPECT_EQ(snap.mean(), 0.0);
    EXPECT_EQ(snap.min, 0.0);
    EXPECT_EQ(snap.max, 0.0);
}

TEST(TelemetryHistogram, SingleSampleReportsItsValue)
{
    MetricsRegistry registry;
    Histogram &histogram = registry.histogram("test.single");
    histogram.record(0.42);
    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 1u);
    // Every percentile of a one-sample distribution is the sample:
    // interpolation must clamp to the observed min/max.
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 0.42);
    EXPECT_DOUBLE_EQ(snap.p50(), 0.42);
    EXPECT_DOUBLE_EQ(snap.p99(), 0.42);
    EXPECT_DOUBLE_EQ(snap.percentile(100.0), 0.42);
}

TEST(TelemetryHistogram, OverflowSamplesClampToObservedMax)
{
    MetricsRegistry registry;
    Histogram &histogram = registry.histogram("test.overflow");
    // Far beyond the last default bound (100 s): lands in the
    // overflow bucket, whose upper edge is the observed max.
    histogram.record(1e6);
    const Histogram::Snapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.buckets.back(), 1u);
    EXPECT_DOUBLE_EQ(snap.p50(), 1e6);
    EXPECT_DOUBLE_EQ(snap.p99(), 1e6);
}

TEST(TelemetryHistogram, PercentilesAreOrdered)
{
    MetricsRegistry registry;
    Histogram &histogram = registry.histogram("test.ordered");
    // Long-tailed latencies across several decades.
    for (int i = 1; i <= 1000; ++i)
        histogram.record(1e-4 * i);
    histogram.record(5.0);
    histogram.record(500.0); // overflow
    const Histogram::Snapshot snap = histogram.snapshot();
    const double p50 = snap.p50();
    const double p90 = snap.p90();
    const double p99 = snap.p99();
    EXPECT_LE(snap.min, p50);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, snap.max);
    EXPECT_GT(p50, 0.0);
}

TEST(TelemetryHistogram, InvalidBoundsPanic)
{
    const double unsorted[] = {1.0, 1.0};
    EXPECT_THROW(Histogram{std::span<const double>(unsorted)},
                 PanicError);
    EXPECT_THROW(Histogram{std::span<const double>()}, PanicError);
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

TEST(TelemetryRegistry, HandlesAreStableAndSurviveReset)
{
    MetricsRegistry registry;
    Counter &counter = registry.counter("stable.counter");
    Gauge &gauge = registry.gauge("stable.gauge");
    Histogram &histogram = registry.histogram("stable.histogram");
    counter.add(5);
    gauge.set(9);
    histogram.record(0.1);

    EXPECT_EQ(&registry.counter("stable.counter"), &counter);
    EXPECT_EQ(&registry.gauge("stable.gauge"), &gauge);
    EXPECT_EQ(&registry.histogram("stable.histogram"), &histogram);

    registry.reset();
    // Same handles, zeroed in place.
    EXPECT_EQ(counter.get(), 0u);
    EXPECT_EQ(gauge.get(), 0);
    EXPECT_EQ(histogram.snapshot().count, 0u);
    EXPECT_EQ(&registry.counter("stable.counter"), &counter);
}

TEST(TelemetryRegistry, MetricsJsonIsWellFormedAndSorted)
{
    MetricsRegistry registry;
    registry.counter("b.second").add(2);
    registry.counter("a.first").add(1);
    registry.gauge("depth").set(-3);
    registry.histogram("lat").record(0.5);
    const std::string json = registry.metricsJson();
    EXPECT_TRUE(MiniJson::valid(json)) << json;
    EXPECT_LT(json.find("\"a.first\":1"),
              json.find("\"b.second\":2"));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"depth\":-3"), std::string::npos);
    for (const char *field :
         {"\"count\":", "\"mean\":", "\"p50\":", "\"p90\":",
          "\"p99\":", "\"min\":", "\"max\":"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

// --------------------------------------------------------------------
// Trace recorder and spans
// --------------------------------------------------------------------

TEST(TelemetryTrace, DisabledSpansRecordNothing)
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.setEnabled(false);
    recorder.clear();
    {
        TraceSpan span("invisible");
        span.arg("k", std::uint64_t{1});
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(recorder.eventCount(), 0u);
}

TEST(TelemetryTrace, ChromeTraceJsonRoundTrips)
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    {
        TraceSpan outer("outer \"span\"");
        outer.arg("text", "line\nbreak \"quoted\"");
        outer.arg("count", std::uint64_t{42});
        outer.arg("delta", std::int64_t{-5});
        outer.arg("ratio", 0.25);
        outer.arg("flag", true);
        TraceSpan inner("inner");
        EXPECT_TRUE(inner.active());
    }
    recorder.setEnabled(false);
    EXPECT_EQ(recorder.eventCount(), 2u);

    const std::string json = recorder.chromeTraceJson();
    EXPECT_TRUE(MiniJson::valid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Escaped name and args survive the export intact.
    EXPECT_NE(json.find("outer \\\"span\\\""), std::string::npos);
    EXPECT_NE(json.find("line\\nbreak \\\"quoted\\\""),
              std::string::npos);
    EXPECT_NE(json.find("\"count\":42"), std::string::npos);
    EXPECT_NE(json.find("\"delta\":-5"), std::string::npos);
    EXPECT_NE(json.find("\"flag\":true"), std::string::npos);
    for (const char *field : {"\"name\":", "\"cat\":", "\"ph\":\"X\"",
                              "\"ts\":", "\"dur\":", "\"pid\":",
                              "\"tid\":"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    recorder.clear();
}

TEST(TelemetryTrace, EnablingMidRunOnlyAffectsNewSpans)
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.setEnabled(false);
    recorder.clear();
    TraceSpan before("constructed-while-disabled");
    recorder.setEnabled(true);
    {
        TraceSpan after("constructed-while-enabled");
    }
    recorder.setEnabled(false);
    // `before` was inert at construction and stays inert.
    EXPECT_FALSE(before.active());
    EXPECT_EQ(recorder.eventCount(), 1u);
    recorder.clear();
}

TEST(TelemetryTrace, PoolThreadsGetDistinctThreadIds)
{
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    ThreadPool pool(4);
    std::vector<std::uint32_t> ids(64);
    pool.forEach(ids.size(), [&](std::size_t i) {
        ids[i] = recorder.currentThreadId();
        TraceSpan span("worker");
    });
    recorder.setEnabled(false);
    EXPECT_EQ(recorder.eventCount(), ids.size());
    for (const std::uint32_t id : ids)
        EXPECT_LT(id, 64u); // dense small ids, not hashes
    recorder.clear();
}

// --------------------------------------------------------------------
// Zero-allocation regression
// --------------------------------------------------------------------

TEST(TelemetryOverhead, DisabledInstrumentationDoesNotAllocate)
{
    // Pay all registration costs up front.
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.setEnabled(false);
    MetricsRegistry registry;
    Counter &counter = registry.counter("overhead.counter");
    Gauge &gauge = registry.gauge("overhead.gauge");
    Histogram &histogram = registry.histogram("overhead.histogram");

    const std::size_t before =
        allocationCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        TraceSpan span("hot-path");
        span.arg("i", std::uint64_t(i));
        span.arg("label", "text");
        counter.add();
        gauge.set(i);
        histogram.record(0.001 * i);
    }
    const std::size_t after =
        allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}

} // namespace
} // namespace fermihedral::telemetry
