/**
 * @file
 * Telemetry subsystem tests (src/obs): metric registry semantics,
 * histogram bucket geometry, snapshot deltas and JSON export, trace
 * span recording / ring wrap / Chrome export — plus the two
 * system-level contracts PR 9 rides on: concurrent writers against a
 * concurrent snapshot/export reader (the TSan stress target), and
 * bit-identity of serving outputs with telemetry recording on vs off.
 *
 * Compile-mode note: in a PADE_TELEMETRY=OFF build the recording
 * paths are no-ops by design; tests asserting counters move are
 * skipped there (obs::kTelemetryEnabled), while the export-validity
 * and bit-identity tests run in both modes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serving/continuous_batcher.h"
#include "serving/layer_engine.h"
#include "workload/generator.h"

namespace pade {
namespace {

using obs::Histogram;
using obs::HistogramStat;
using obs::MetricsSnapshot;
using obs::Registry;

// ---------------------------------------------------------------------
// Counters, gauges, histograms.
// ---------------------------------------------------------------------

TEST(ObsCounter, ShardsSumOnRead)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    obs::Counter &c = Registry::instance().counter("test.ctr_basic");
    const uint64_t before = c.value();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
}

TEST(ObsCounter, ConcurrentAddsAreExact)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    obs::Counter &c =
        Registry::instance().counter("test.ctr_concurrent");
    const uint64_t before = c.value();
    constexpr int kThreads = 8;
    constexpr uint64_t kAdds = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kAdds; i++)
                c.add();
        });
    for (std::thread &t : threads)
        t.join();
    // Relaxed atomics lose no adds: the total is exact, not
    // approximate — the property that makes deltas trustworthy.
    EXPECT_EQ(c.value(), before + kThreads * kAdds);
}

TEST(ObsCounter, SameNameSameObject)
{
    obs::Counter &a = Registry::instance().counter("test.ctr_alias");
    obs::Counter &b = Registry::instance().counter("test.ctr_alias");
    obs::Counter &c = Registry::instance().counter("test.ctr_other");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
}

TEST(ObsGauge, LastWriteWins)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    obs::Gauge &g = Registry::instance().gauge("test.gauge");
    g.set(3.0);
    g.set(7.5);
    EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(ObsHistogram, BucketGeometry)
{
    // Bucket 0 is [0, 1); bucket b >= 1 is [2^(b-1), 2^b).
    EXPECT_EQ(Histogram::bucketOf(0.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(0.99), 0u);
    EXPECT_EQ(Histogram::bucketOf(-5.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1.0), 1u);
    EXPECT_EQ(Histogram::bucketOf(1.5), 1u);
    EXPECT_EQ(Histogram::bucketOf(2.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(3.9), 2u);
    EXPECT_EQ(Histogram::bucketOf(4.0), 3u);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 11u);
    EXPECT_EQ(Histogram::bucketOf(1e30), Histogram::kBuckets - 1);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(11), 2048.0);
}

TEST(ObsHistogram, ExactMomentsAndQuantizedPercentiles)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    obs::Histogram &h =
        Registry::instance().histogram("test.hist_moments");
    for (int i = 1; i <= 100; i++)
        h.record(static_cast<double>(i));
    const MetricsSnapshot snap = Registry::instance().snapshot();
    const HistogramStat *stat = snap.histogram("test.hist_moments");
    ASSERT_NE(stat, nullptr);
    EXPECT_EQ(stat->count, 100u);
    EXPECT_DOUBLE_EQ(stat->sum, 5050.0);
    EXPECT_DOUBLE_EQ(stat->mean(), 50.5);
    EXPECT_DOUBLE_EQ(stat->max, 100.0);
    // Percentile estimates quantize to bucket upper bounds: the p50
    // sample (50) lives in bucket (32, 64], so the estimate is 64 —
    // an upper bound within 2x of the true nearest-rank value.
    EXPECT_DOUBLE_EQ(stat->percentile(0.50), 64.0);
    EXPECT_DOUBLE_EQ(stat->percentile(0.99), 128.0);
    EXPECT_GE(stat->percentile(0.50), 50.0);
    EXPECT_LE(stat->percentile(0.50), 2.0 * 50.0);
}

// ---------------------------------------------------------------------
// Snapshots: delta semantics and JSON export.
// ---------------------------------------------------------------------

TEST(ObsSnapshot, DeltaIsolatesOneRun)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    obs::Counter &c = Registry::instance().counter("test.ctr_delta");
    obs::Histogram &h =
        Registry::instance().histogram("test.hist_delta");
    c.add(100);
    h.record(10.0);

    const MetricsSnapshot before = Registry::instance().snapshot();
    c.add(5);
    h.record(20.0);
    h.record(30.0);
    const MetricsSnapshot after = Registry::instance().snapshot();

    const MetricsSnapshot d = MetricsSnapshot::delta(before, after);
    EXPECT_EQ(d.counter("test.ctr_delta"), 5u);
    const HistogramStat *hd = d.histogram("test.hist_delta");
    ASSERT_NE(hd, nullptr);
    EXPECT_EQ(hd->count, 2u);
    EXPECT_DOUBLE_EQ(hd->sum, 50.0);
    // max is instantaneous (absolute over the histogram's lifetime).
    EXPECT_GE(hd->max, 30.0);
    EXPECT_EQ(d.counter("test.never_registered"), 0u);
}

TEST(ObsSnapshot, JsonIsWellFormed)
{
    Registry::instance().counter("test.ctr_json").add(3);
    Registry::instance().gauge("test.gauge_json").set(1.25);
    Registry::instance().histogram("test.hist_json").record(7.0);
    const std::string json = Registry::instance().snapshot().toJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"schema\":\"pade-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    // Balanced braces — cheap structural sanity without a parser
    // (CI additionally runs python3 -m json.tool on the artifact).
    int depth = 0;
    for (const char ch : json) {
        depth += ch == '{';
        depth -= ch == '}';
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    if (obs::kTelemetryEnabled) {
        EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
        EXPECT_NE(json.find("\"test.ctr_json\""), std::string::npos);
    } else {
        EXPECT_NE(json.find("\"enabled\":false"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------

/** RAII guard: every trace test leaves tracing off and empty. */
struct TraceSandbox
{
    TraceSandbox()
    {
        obs::setTraceEnabled(false);
        obs::clearTrace();
    }
    ~TraceSandbox()
    {
        obs::setTraceEnabled(false);
        obs::setTraceCapacity(16384); // restore the default
        obs::clearTrace();
    }
};

TEST(ObsTrace, SpanRecordsCompleteEvent)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    TraceSandbox sandbox;
    obs::setTraceEnabled(true);
    {
        const obs::ScopedSpan span("test.span",
                                   {{"layer", 3}, {"pos", 17}});
    }
    obs::traceInstant("test.instant", {{"request", 9}});
    obs::setTraceEnabled(false);

    EXPECT_EQ(obs::traceStats().recorded, 2u);
    const std::string json = obs::chromeTraceJson();
    EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"layer\":3"), std::string::npos);
    EXPECT_NE(json.find("\"pos\":17"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test.instant\""),
              std::string::npos);
    // Instant events carry a scope so Perfetto renders them.
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(ObsTrace, DisabledRecordsNothing)
{
    TraceSandbox sandbox;
    {
        const obs::ScopedSpan span("test.dead_span");
    }
    obs::traceInstant("test.dead_instant");
    EXPECT_EQ(obs::traceStats().recorded, 0u);
    // The exporter still emits a valid (empty) document.
    const std::string json = obs::chromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.find("test.dead_span"), std::string::npos);
}

TEST(ObsTrace, RingWrapsAndCountsDrops)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    TraceSandbox sandbox;
    obs::setTraceCapacity(16);
    obs::setTraceEnabled(true);
    for (int i = 0; i < 40; i++)
        obs::traceInstant("test.wrap");
    obs::setTraceEnabled(false);
    const obs::TraceStats stats = obs::traceStats();
    EXPECT_EQ(stats.recorded, 40u);
    EXPECT_EQ(stats.dropped, 24u); // oldest overwritten, not lost count
}

TEST(ObsTrace, WritesParseableFile)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    TraceSandbox sandbox;
    obs::setTraceEnabled(true);
    {
        const obs::ScopedSpan span("test.file_span");
    }
    obs::setTraceEnabled(false);

    const std::string path =
        testing::TempDir() + "pade_test_trace.json";
    ASSERT_TRUE(writeTextFile(path, obs::chromeTraceJson()));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        content.append(buf, got);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(content.find("test.file_span"), std::string::npos);
    EXPECT_NE(content.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Concurrency: writers vs snapshot/export reader (TSan target).
// ---------------------------------------------------------------------

class ObsStress : public testing::TestWithParam<int>
{
};

TEST_P(ObsStress, WritersAgainstConcurrentReader)
{
    const int writers = GetParam();
    TraceSandbox sandbox;
    obs::setTraceEnabled(true);

    obs::Counter &ctr =
        Registry::instance().counter("test.stress_ctr");
    obs::Histogram &hist =
        Registry::instance().histogram("test.stress_hist");
    const uint64_t ctr_before = ctr.value();

    constexpr int kIters = 4000;
    std::atomic<bool> stop{false};
    std::thread reader([&stop] {
        // Hammer every aggregate path while writers run: snapshots,
        // JSON serialization, trace export, stats. TSan watches.
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot snap =
                Registry::instance().snapshot();
            (void)snap.toJson();
            (void)obs::chromeTraceJson();
            (void)obs::traceStats();
        }
    });

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(writers));
    for (int t = 0; t < writers; t++)
        threads.emplace_back([&ctr, &hist, t] {
            for (int i = 0; i < kIters; i++) {
                ctr.add();
                hist.record(static_cast<double>(i % 97));
                const obs::ScopedSpan span("test.stress_span",
                                           {{"writer", t}});
                if (i % 16 == 0)
                    obs::traceInstant("test.stress_instant");
            }
        });
    for (std::thread &t : threads)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    obs::setTraceEnabled(false);

    if (obs::kTelemetryEnabled) {
        EXPECT_EQ(ctr.value(),
                  ctr_before +
                      static_cast<uint64_t>(writers) * kIters);
        EXPECT_GT(obs::traceStats().recorded, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ObsStress,
                         testing::Values(2, 8));

// ---------------------------------------------------------------------
// Bit-identity: recording must never perturb computation.
// ---------------------------------------------------------------------

/** A small two-layer serving trace for the traced-vs-plain tests. */
std::vector<ServingRequest>
identityTrace()
{
    TraceSpec ts;
    ts.num_requests = 6;
    ts.rate_per_s = 500.0;
    ts.prompt_min = 24;
    ts.prompt_max = 48;
    ts.decode_min = 2;
    ts.decode_max = 6;
    ts.seed = 99;
    return poissonArrivalTrace(ts);
}

BatcherOptions
identityOptions()
{
    BatcherOptions opt;
    opt.threads = 2;
    opt.max_active = 3;
    opt.prefill_chunk = 16;
    opt.layers = 2;
    opt.heads = 2;
    opt.kv_heads = 1;
    opt.head_dim = 32;
    opt.fixed_round_ms = 1.0;
    return opt;
}

TEST(ObsBitIdentity, BatcherChecksumsUnchangedByTracing)
{
    TraceSandbox sandbox;
    const std::vector<ServingRequest> trace = identityTrace();
    BatcherOptions opt = identityOptions();

    const ServingReport plain = ContinuousBatcher(opt).run(trace);
    opt.trace_file =
        testing::TempDir() + "pade_test_identity_trace.json";
    const ServingReport traced = ContinuousBatcher(opt).run(trace);
    std::remove(opt.trace_file.c_str());

    EXPECT_EQ(plain.checksum, traced.checksum);
    EXPECT_EQ(plain.prefill_checksum, traced.prefill_checksum);
    EXPECT_EQ(plain.tokens_prefilled, traced.tokens_prefilled);
    EXPECT_EQ(plain.tokens_decoded, traced.tokens_decoded);
    ASSERT_EQ(plain.sessions.size(), traced.sessions.size());
    for (std::size_t i = 0; i < plain.sessions.size(); i++) {
        EXPECT_EQ(plain.sessions[i].checksum,
                  traced.sessions[i].checksum);
        EXPECT_EQ(plain.sessions[i].prefill_checksum,
                  traced.sessions[i].prefill_checksum);
    }
    // The traced run carries a telemetry blob either way (all zeros
    // when compiled out), and it is always structurally valid.
    EXPECT_NE(traced.telemetry.find(
                  "\"schema\":\"pade-serving-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(
        traced.telemetry.find("\"pipeline_bubble_ratio\""),
        std::string::npos);
    EXPECT_NE(traced.telemetry.find("\"kv_bytes_per_token\""),
              std::string::npos);
}

TEST(ObsBitIdentity, UnwritableTraceFileIsReportedAndServes)
{
    TraceSandbox sandbox;
    const std::vector<ServingRequest> trace = identityTrace();
    BatcherOptions opt = identityOptions();

    const ServingReport plain = ContinuousBatcher(opt).run(trace);
    opt.trace_file = testing::TempDir() + "pade_no_such_dir/t.json";
    testing::internal::CaptureStderr();
    const ServingReport traced = ContinuousBatcher(opt).run(trace);
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(plain.checksum, traced.checksum);
    EXPECT_EQ(plain.prefill_checksum, traced.prefill_checksum);
    EXPECT_NE(err.find("cannot write trace file " + opt.trace_file),
              std::string::npos)
        << err;
    EXPECT_FALSE(plain.trace_written); // no trace requested
    EXPECT_FALSE(traced.trace_written);

    opt.trace_file = testing::TempDir() + "pade_writable_trace.json";
    const ServingReport written = ContinuousBatcher(opt).run(trace);
    EXPECT_TRUE(written.trace_written);
    EXPECT_EQ(plain.checksum, written.checksum);
    std::remove(opt.trace_file.c_str());
}

TEST(ObsBitIdentity, LayerOutputsAndPruneStatsUnchangedByTracing)
{
    TraceSandbox sandbox;
    LayerSpec spec;
    spec.heads = 4;
    spec.kv_heads = 2;
    spec.head_dim = 32;
    spec.prompt_len = 40;
    spec.decode_steps = 8;
    spec.bits = 8;
    spec.seed = 7;
    const LayerWorkload lw = generateLayerWorkload(spec);

    LayerEngineConfig lc;
    lc.heads = spec.heads;
    lc.kv_heads = spec.kv_heads;
    lc.head_dim = spec.head_dim;
    lc.bits = spec.bits;

    const auto serve = [&](bool traced, std::vector<float> &flat,
                           PruneStats &stats) {
        obs::setTraceEnabled(traced);
        std::vector<float> v_scales;
        std::vector<float> logit_scales;
        for (const QuantizedHead &g : lw.groups) {
            v_scales.push_back(g.v.params.scale);
            logit_scales.push_back(g.logit_scale);
        }
        LayerEngine layer(lc, v_scales);
        MatrixI8 k(lc.kv_heads, lc.head_dim);
        MatrixI8 v(lc.kv_heads, lc.head_dim);
        MatrixI8 q(lc.heads, lc.head_dim);
        MatrixF out(lc.heads, lc.head_dim);
        for (int pos = 0; pos < spec.positions(); pos++) {
            lw.stageKv(pos, k, v);
            layer.appendToken(k, v);
            if (pos < spec.prompt_len)
                continue;
            lw.stageQueries(pos, q);
            layer.decode(q, logit_scales, out, nullptr);
            for (int r = 0; r < out.rows(); r++)
                for (const float x : out.row(r))
                    flat.push_back(x);
        }
        stats = layer.stats();
        obs::setTraceEnabled(false);
    };

    std::vector<float> out_plain;
    std::vector<float> out_traced;
    PruneStats st_plain;
    PruneStats st_traced;
    serve(false, out_plain, st_plain);
    serve(true, out_traced, st_traced);

    ASSERT_EQ(out_plain.size(), out_traced.size());
    for (std::size_t i = 0; i < out_plain.size(); i++)
        ASSERT_EQ(out_plain[i], out_traced[i]) << "at " << i;
    EXPECT_EQ(st_plain.planes_processed, st_traced.planes_processed);
    EXPECT_EQ(st_plain.planes_total, st_traced.planes_total);
    EXPECT_EQ(st_plain.keys_retained, st_traced.keys_retained);
    EXPECT_EQ(st_plain.keys_total, st_traced.keys_total);
    EXPECT_EQ(st_plain.ops_bs, st_traced.ops_bs);
    EXPECT_EQ(st_plain.ops_naive, st_traced.ops_naive);
    EXPECT_EQ(st_plain.max_updates, st_traced.max_updates);
    EXPECT_EQ(st_plain.rescale_ops, st_traced.rescale_ops);
    EXPECT_EQ(st_plain.threshold_updates,
              st_traced.threshold_updates);
}

// ---------------------------------------------------------------------
// Wiring: a serving run moves the subsystem counters it claims to.
// ---------------------------------------------------------------------

TEST(ObsWiring, ServingRunPopulatesSubsystemCounters)
{
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    TraceSandbox sandbox;
    TraceSpec ts;
    ts.num_requests = 4;
    ts.rate_per_s = 500.0;
    ts.prompt_min = 64;
    ts.prompt_max = 96;
    ts.decode_min = 2;
    ts.decode_max = 4;
    ts.prefix_groups = 1;
    ts.prefix_tokens = 64;
    ts.seed = 3;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    BatcherOptions opt;
    opt.threads = 2;
    opt.max_active = 2;
    opt.prefill_chunk = 32;
    opt.layers = 2;
    opt.heads = 2;
    opt.kv_heads = 1;
    opt.head_dim = 32;
    opt.page_tokens = 32;
    opt.prefix_cache = true;
    opt.fixed_round_ms = 1.0;

    const MetricsSnapshot before = Registry::instance().snapshot();
    const ServingReport report = ContinuousBatcher(opt).run(trace);
    const MetricsSnapshot d = MetricsSnapshot::delta(
        before, Registry::instance().snapshot());

    EXPECT_GT(d.counter("kv.tokens_appended"), 0u);
    EXPECT_GT(d.counter("kv.bytes_appended"), 0u);
    EXPECT_GT(d.counter("kv.bytes_shared"), 0u); // prefix adoption
    EXPECT_GT(d.counter("decode.steps"), 0u);
    EXPECT_GT(d.counter("decode.keys_scanned"), 0u);
    EXPECT_GT(d.counter("decode.planes_total"), 0u);
    EXPECT_GE(d.counter("decode.planes_total"),
              d.counter("decode.planes_consumed"));
    EXPECT_GT(d.counter("model.rounds"), 0u);
    EXPECT_GT(d.counter("model.unit_busy_us"), 0u);
    EXPECT_GT(d.counter("model.round_capacity_us"), 0u);
    EXPECT_GT(d.counter("prefix.lookups"), 0u);
    // The batcher clamps its fan-out to the hardware width: on a
    // single-core host every round legitimately runs inline on the
    // scheduler thread and the run may submit no pool tasks at all.
    if (ThreadPool::hardwareThreads() > 1) {
        EXPECT_GT(d.counter("pool.tasks"), 0u);
    }
    const HistogramStat *lat = d.histogram("serving.latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 4u);
    EXPECT_GE(report.pipeline_bubble_ratio, 0.0);
    EXPECT_LE(report.pipeline_bubble_ratio, 1.0);
    EXPECT_GT(report.kv_bytes_per_token, 0.0);
}

} // namespace
} // namespace pade
