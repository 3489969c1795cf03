/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms, built for hot-path recording.
 *
 * Design constraints (docs/OBSERVABILITY.md):
 *
 *  - No hot-path locks. Every recording primitive is a relaxed
 *    atomic operation on a per-thread *shard* — a cache-line-padded
 *    cell selected by a thread-local index — so concurrent writers
 *    never contend on the same line. Readers aggregate across shards
 *    (sum of relaxed loads), which is exact for counters (no add is
 *    ever lost) and monotone-consistent for histograms: a snapshot
 *    taken concurrently with writers sees some prefix of each
 *    thread's recordings, never a torn value.
 *  - Registration is cold and lock-protected (annotated pade::Mutex):
 *    metric objects are heap-allocated, looked up by name, and never
 *    destroyed until process exit, so the references handed out by
 *    Registry::counter()/gauge()/histogram() stay valid forever and
 *    call sites cache them in function-local statics.
 *  - Compiled to no-ops when the CMake option PADE_TELEMETRY is OFF:
 *    only the *recording* inlines vanish (add/set/record become empty
 *    and the optimizer deletes the call); registry, snapshot, and
 *    JSON export always compile and report zeros, so tooling that
 *    consumes the artifacts works against either build. Query
 *    `kTelemetryEnabled` to branch on the mode at compile time.
 *
 * Naming convention: "subsystem.metric" in snake_case, with the unit
 * suffixed when the value is dimensional ("pool.idle_us",
 * "kv.bytes_appended"). Durations are recorded in microseconds.
 */

#ifndef PADE_OBS_TELEMETRY_H
#define PADE_OBS_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/mutex.h"

#ifndef PADE_TELEMETRY_ENABLED
#define PADE_TELEMETRY_ENABLED 1
#endif

namespace pade::obs {

/** True when the library was built with telemetry recording. */
inline constexpr bool kTelemetryEnabled = PADE_TELEMETRY_ENABLED != 0;

namespace detail {

/** Writer shards per metric; power of two so the modulo is a mask. */
inline constexpr std::size_t kShards = 16;

/**
 * This thread's shard index in [0, kShards): assigned round-robin on
 * first use, cached thread-locally. Distinct live threads therefore
 * spread across cells; reuse after kShards threads only costs
 * contention, never correctness.
 */
std::size_t shardIndex();

/** One cache line of counter state; padded to defeat false sharing. */
struct alignas(64) CounterCell
{
    std::atomic<uint64_t> v{0};
};

} // namespace detail

/**
 * Monotone event counter. add() is one relaxed fetch_add on this
 * thread's shard; value() sums the shards.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(uint64_t delta = 1)
    {
#if PADE_TELEMETRY_ENABLED
        cells_[detail::shardIndex()].v.fetch_add(
            delta, std::memory_order_relaxed);
#else
        (void)delta;
#endif
    }

    /** Sum over shards; exact once writers have quiesced. */
    uint64_t value() const;

  private:
    std::array<detail::CounterCell, detail::kShards> cells_;
};

/**
 * Last-write-wins instantaneous value (queue depth, resident bytes).
 * Unsharded: a gauge is a single value by definition, and a relaxed
 * store is already contention-free.
 */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(double v)
    {
#if PADE_TELEMETRY_ENABLED
        v_.store(v, std::memory_order_relaxed);
#else
        (void)v;
#endif
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Fixed-bucket histogram over non-negative samples with power-of-two
 * bucket edges: bucket 0 holds [0, 1), bucket b >= 1 holds
 * [2^(b-1), 2^b), and the last bucket absorbs everything above. The
 * geometry trades resolution for a recording path that is three
 * relaxed atomics plus a CAS-loop max — no allocation, no sorting —
 * at the cost of percentile *estimates* quantized to bucket upper
 * bounds (within 2x of the true nearest-rank value). Exact
 * count/sum/mean/max are tracked alongside.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 40;

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void
    record(double v)
    {
#if PADE_TELEMETRY_ENABLED
        Shard &s = shards_[detail::shardIndex() % kHistShards];
        s.buckets[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        s.count.fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
        double m = s.max.load(std::memory_order_relaxed);
        while (v > m && !s.max.compare_exchange_weak(
                            m, v, std::memory_order_relaxed))
        {
        }
#else
        (void)v;
#endif
    }

    /** Bucket index of @p v (0 for negatives and NaN). */
    static std::size_t bucketOf(double v);

    /** Inclusive upper edge of bucket @p b (1.0 for bucket 0). */
    static double bucketUpperBound(std::size_t b);

  private:
    friend class Registry;

    /** Fewer shards than Counter: a histogram shard is ~3 lines. */
    static constexpr std::size_t kHistShards = 8;

    struct alignas(64) Shard
    {
        std::array<std::atomic<uint64_t>, kBuckets> buckets{};
        std::atomic<uint64_t> count{0};
        std::atomic<double> sum{0.0};
        std::atomic<double> max{0.0};
    };

    std::array<Shard, kHistShards> shards_;
};

/** Aggregated (shard-summed) state of one histogram at one instant. */
struct HistogramStat
{
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::array<uint64_t, Histogram::kBuckets> buckets{};

    double
    mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }

    /**
     * Nearest-rank percentile estimate, quantized to the upper bound
     * of the bucket holding the ceil(q * count)-th sample; 0 when
     * empty.
     */
    double percentile(double q) const;
};

/**
 * Point-in-time copy of every registered metric, in name order.
 * Cheap to take (one pass of relaxed loads under the registry lock
 * for the *name list* only), comparable via delta() to isolate one
 * run's activity from process-lifetime totals.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramStat>> histograms;

    /** Counter value by name; 0 when absent. */
    uint64_t counter(std::string_view name) const;
    /** Histogram by name; nullptr when absent. */
    const HistogramStat *histogram(std::string_view name) const;

    /**
     * after - before, per metric: counters and histogram
     * counts/sums/buckets subtract (metrics absent from @p before
     * count from zero); gauges and histogram max are instantaneous
     * and taken from @p after unchanged.
     */
    static MetricsSnapshot delta(const MetricsSnapshot &before,
                                 const MetricsSnapshot &after);

    /**
     * Stable JSON object:
     *   {"schema":"pade-metrics-v1","enabled":...,
     *    "counters":{...},"gauges":{...},
     *    "histograms":{name:{count,sum,mean,max,p50,p95,p99,p999}}}
     * Keys appear in name order; parses under python3 -m json.tool.
     */
    std::string toJson() const;
};

/**
 * The process-wide metric namespace. Lookup interns the name on first
 * use and returns a reference that stays valid for the process
 * lifetime; call sites cache it (function-local static) so steady
 * state never touches the registry lock.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(std::string_view name) PADE_EXCLUDES(mu_);
    Gauge &gauge(std::string_view name) PADE_EXCLUDES(mu_);
    Histogram &histogram(std::string_view name) PADE_EXCLUDES(mu_);

    /** Aggregate every metric; safe concurrently with writers. */
    MetricsSnapshot snapshot() const PADE_EXCLUDES(mu_);

  private:
    Registry() = default;

    mutable Mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_ PADE_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges_ PADE_GUARDED_BY(mu_);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_ PADE_GUARDED_BY(mu_);
};

} // namespace pade::obs

#endif // PADE_OBS_TELEMETRY_H
