/**
 * @file
 * Concurrency stress tests, written for the ThreadSanitizer CI leg
 * (-DPADE_SANITIZE=thread). Each test exercises one of the documented
 * concurrency contracts under real thread contention:
 *
 *  - ContinuousBatcher: many sessions advanced concurrently across a
 *    round share only the pool and the prefix index — outputs and
 *    schedule-derived aggregates must be bit-identical to the serial
 *    1-thread oracle at every thread count, and TSan must see no
 *    unsynchronized access;
 *  - ThreadPool: nested parallelFor under heavy contention (the
 *    help-drain path runs on many threads at once);
 *  - KvCache: the "const accessors are safe across concurrent readers
 *    between mutations" contract — the GQA decode path's foundation —
 *    with several DecodeEngines scanning ONE shared cache at once.
 *
 * The assertions also run (and pass) in plain builds; under TSan they
 * double as data-race detectors for the serving stack.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/telemetry.h"
#include "runtime/thread_pool.h"
#include "serving/continuous_batcher.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "serving/model_engine.h"
#include "serving/prefix_index.h"
#include "workload/generator.h"

namespace pade {
namespace {

// ---------------------------------------------------------------------
// ContinuousBatcher: many sessions, rounds fanned across the pool.
// ---------------------------------------------------------------------

std::vector<ServingRequest>
stressTrace(int requests, uint64_t seed)
{
    TraceSpec ts;
    ts.num_requests = requests;
    ts.rate_per_s = 8000.0; // dense arrivals => full rounds
    ts.prompt_min = 8;
    ts.prompt_max = 32;
    ts.decode_min = 2;
    ts.decode_max = 6;
    ts.seed = seed;
    return poissonArrivalTrace(ts);
}

/** Long enough prompts to outgrow runStress's 16+32-token retention
 *  window, so eviction actually happens. */
std::vector<ServingRequest>
windowedTrace()
{
    TraceSpec ts;
    ts.num_requests = 8;
    ts.rate_per_s = 8000.0;
    ts.prompt_min = 48;
    ts.prompt_max = 96;
    ts.decode_min = 6;
    ts.decode_max = 12;
    ts.seed = 90210;
    return poissonArrivalTrace(ts);
}

ServingReport
runStress(const std::vector<ServingRequest> &trace, int threads,
          bool pipeline = true, bool windowed = false)
{
    BatcherOptions opt;
    opt.threads = threads;
    opt.max_active = 6; // > threads for 2, < for 8: both schedules
    opt.prefill_chunk = 8;
    opt.layers = 2; // >1 so pipeline rounds expose multiple units
    opt.heads = 4;
    opt.kv_heads = 2; // GQA: grouped heads share one cache
    opt.head_dim = 32;
    opt.page_tokens = 16; // small pages => frequent page turnover
    opt.pipeline = pipeline;
    if (windowed) {
        // Tight sink+recency window: long prompts stream through it,
        // so the windowed scan order and the middle-page reclamation
        // are genuinely exercised, under contention.
        opt.retention.sink_tokens = 16;
        opt.retention.recency_tokens = 32;
    }
    // Deterministic virtual clock: co-residency (and so peak KV
    // bytes) must be a pure function of the trace, not of how long
    // rounds happened to take on a loaded host.
    opt.fixed_round_ms = 0.25;
    return ContinuousBatcher(opt).run(trace);
}

/** Field-by-field schedule equivalence of two reports on one trace. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b,
                       std::size_t requests)
{
    ASSERT_EQ(a.sessions.size(), requests);
    ASSERT_EQ(b.sessions.size(), requests);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.prefill_checksum, b.prefill_checksum);
    for (std::size_t i = 0; i < requests; i++) {
        EXPECT_EQ(a.sessions[i].checksum, b.sessions[i].checksum)
            << "session " << i;
        EXPECT_EQ(a.sessions[i].prefill_checksum,
                  b.sessions[i].prefill_checksum)
            << "session " << i;
    }
    EXPECT_EQ(a.tokens_decoded, b.tokens_decoded);
    EXPECT_EQ(a.tokens_prefilled, b.tokens_prefilled);
    EXPECT_EQ(a.peak_cache_bytes, b.peak_cache_bytes);
    EXPECT_EQ(a.peak_active, b.peak_active);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_GT(a.peak_cache_bytes, 0u);
}

TEST(ConcurrencyStress, BatcherManySessionsIdenticalAtThreads2And8)
{
    const std::vector<ServingRequest> trace = stressTrace(12, 2024);
    const ServingReport a = runStress(trace, 2);
    const ServingReport b = runStress(trace, 8);

    ASSERT_EQ(a.sessions.size(), trace.size());
    ASSERT_EQ(b.sessions.size(), trace.size());
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.prefill_checksum, b.prefill_checksum);
    for (std::size_t i = 0; i < trace.size(); i++) {
        EXPECT_EQ(a.sessions[i].checksum, b.sessions[i].checksum);
        EXPECT_EQ(a.sessions[i].prefill_checksum,
                  b.sessions[i].prefill_checksum);
    }
    EXPECT_EQ(a.tokens_decoded, b.tokens_decoded);
    EXPECT_EQ(a.tokens_prefilled, b.tokens_prefilled);
    // Resident KV bytes are summed after each round's barrier and
    // fixed_round_ms pins the admission schedule, so the peak is
    // thread-invariant too.
    EXPECT_EQ(a.peak_cache_bytes, b.peak_cache_bytes);
    EXPECT_EQ(a.peak_active, b.peak_active);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_GT(a.peak_cache_bytes, 0u);
}

TEST(ConcurrencyStress, BatcherRepeatedRoundsStayDeterministic)
{
    // Same trace served repeatedly on a contended pool: any hidden
    // shared state between runs (or a race inside one) would show up
    // as checksum drift — and as a TSan report in the sanitizer leg.
    const std::vector<ServingRequest> trace = stressTrace(8, 7);
    const ServingReport first = runStress(trace, 8);
    for (int round = 0; round < 3; round++) {
        const ServingReport again = runStress(trace, 8);
        EXPECT_EQ(again.checksum, first.checksum);
        EXPECT_EQ(again.prefill_checksum, first.prefill_checksum);
    }
}

// The batcher's differential oracle: same trace, same fixed virtual
// clock — sessions co-scheduled in one parallel round, at every thread
// count, must reproduce the 1-thread serial-engine run's outputs AND
// its schedule-derived aggregates (peak KV bytes, peak co-residency,
// round count) exactly. On a multi-core host the widths cross every
// round shape: inline (1 thread), sessions with nested engine fan-outs
// (fewer sessions than lanes), and sessions filling the lanes.
void
expectMatchesSerialOracleAtEveryWidth(
    const std::vector<ServingRequest> &trace, bool windowed)
{
    const ServingReport oracle =
        runStress(trace, 1, /*pipeline=*/false, windowed);
    for (const int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(threads);
        expectReportsIdentical(
            oracle, runStress(trace, threads, /*pipeline=*/true, windowed),
            trace.size());
    }
}

TEST(ConcurrencyStress, CoscheduledMatchesPerSessionAtThreads128)
{
    // Retention off. The name predates the single round schedule:
    // "co-scheduled" sessions are those sharing one parallel round,
    // checked against the serial oracle at widths 1, 2, 4 and 8.
    expectMatchesSerialOracleAtEveryWidth(stressTrace(12, 515),
                                          /*windowed=*/false);
}

TEST(ConcurrencyStress, CoscheduledWindowedRetentionMatchesPerSession)
{
    // Retention on: eviction decisions, page reclamation and the
    // windowed scan order must be schedule-invariant. Under TSan this
    // also races the windowed path's per-head scratch and page
    // reclamation against the round fan-out.
    expectMatchesSerialOracleAtEveryWidth(windowedTrace(),
                                          /*windowed=*/true);
}

TEST(ConcurrencyStress, OneWorkerServesOnTheCallingThread)
{
    // threads = 1 means one executing thread: the whole serve runs
    // inline on the caller and hands the pool no task, so 1-worker
    // timings measure one core. Outputs match a 4-thread serve.
    if (!obs::kTelemetryEnabled)
        GTEST_SKIP() << "built with PADE_TELEMETRY=OFF";
    const std::vector<ServingRequest> trace = stressTrace(12, 2024);
    const obs::MetricsSnapshot before =
        obs::Registry::instance().snapshot();
    const ServingReport one = runStress(trace, 1);
    const obs::MetricsSnapshot delta = obs::MetricsSnapshot::delta(
        before, obs::Registry::instance().snapshot());
    EXPECT_EQ(delta.counter("pool.tasks"), 0u);
    expectReportsIdentical(one, runStress(trace, 4), trace.size());
}

// ---------------------------------------------------------------------
// ThreadPool: nested fan-out under contention.
// ---------------------------------------------------------------------

TEST(ConcurrencyStress, NestedParallelForUnderContention)
{
    // Every outer task immediately nests another parallelFor, so the
    // workers AND the outer waiters all run the help-drain path at
    // once. Counts prove exactly-once execution; TSan watches the
    // parallelFor State and the pool queue.
    for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        std::atomic<int> inner{0};
        std::atomic<int> outer{0};
        parallelFor(pool, 16, [&pool, &inner, &outer](int) {
            outer++;
            parallelFor(pool, 16, [&inner](int) { inner++; });
        });
        EXPECT_EQ(outer.load(), 16);
        EXPECT_EQ(inner.load(), 16 * 16);
    }
}

TEST(ConcurrencyStress, SubmitWaitIdleChurn)
{
    // Interleave submit bursts with waitIdle from the main thread
    // while workers drain: stresses cv_task_/cv_idle_ signalling.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int burst = 0; burst < 20; burst++) {
        for (int i = 0; i < 25; i++)
            pool.submit([&done] { done++; });
        pool.waitIdle();
        EXPECT_EQ(done.load(), (burst + 1) * 25);
    }
}

// ---------------------------------------------------------------------
// KvCache: concurrent readers of one shared cache.
// ---------------------------------------------------------------------

TEST(ConcurrencyStress, ConcurrentStepGroupOverSharedCacheMatchesSerial)
{
    // One KV stream, several reader threads. Each thread owns a
    // private DecodeEngine (engines hold mutable scratch) but scans
    // the SAME KvCache concurrently — the documented contract: const
    // accessors are safe between mutations. Every thread's outputs
    // must be bit-identical to a serial reference engine's.
    const int head_dim = 32;
    const int bits = 8;
    const int prompt = 96;
    const int group = 4; // grouped query heads sharing the KV head

    WorkloadSpec spec;
    spec.seq_len = prompt;
    spec.query_len = group;
    spec.head_dim = head_dim;
    spec.seed = 4242;
    const AttentionHead fh = generateHead(spec);
    const QuantizedHead full = quantizeHead(fh, bits);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.bits = bits;
    kc.page_tokens = 16;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);
    for (int t = 0; t < prompt; t++)
        cache.appendToken(full.k.values.row(t), full.v.values.row(t));

    // Serial reference: one engine, one grouped step.
    PadeConfig cfg;
    MatrixF ref(group, head_dim);
    {
        DecodeEngine engine(cfg);
        engine.stepGroup(cache, full.q.values, 0, group,
                         full.logit_scale, ref, 0);
    }

    const int readers = 8;
    std::vector<MatrixF> outs;
    outs.reserve(static_cast<std::size_t>(readers));
    for (int r = 0; r < readers; r++)
        outs.emplace_back(group, head_dim);

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(readers));
    for (int r = 0; r < readers; r++) {
        threads.emplace_back([&cache, &full, &outs, r] {
            DecodeEngine engine{PadeConfig{}};
            // Re-scan several times to lengthen the overlap window.
            for (int rep = 0; rep < 4; rep++)
                engine.stepGroup(cache, full.q.values, 0, group,
                                 full.logit_scale,
                                 outs[static_cast<std::size_t>(r)],
                                 0);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int r = 0; r < readers; r++)
        for (int g = 0; g < group; g++)
            for (int d = 0; d < head_dim; d++)
                EXPECT_EQ(std::bit_cast<uint32_t>(
                              outs[static_cast<std::size_t>(r)].at(
                                  g, d)),
                          std::bit_cast<uint32_t>(ref.at(g, d)))
                    << "reader " << r << " head " << g << " dim "
                    << d;
}

TEST(ConcurrencyStress, ReadersInterleavedWithSerializedMutations)
{
    // The full contract: mutations serialized by the owner, readers
    // concurrent BETWEEN mutations. Alternate append phases (single
    // thread) with concurrent read phases and check reader outputs
    // against a serial engine at every phase boundary.
    const int head_dim = 32;
    const int bits = 8;
    const int total = 64;
    const int phase_tokens = 16;

    WorkloadSpec spec;
    spec.seq_len = total;
    spec.query_len = 1;
    spec.head_dim = head_dim;
    spec.seed = 99;
    const AttentionHead fh = generateHead(spec);
    const QuantizedHead full = quantizeHead(fh, bits);

    KvCacheConfig kc;
    kc.head_dim = head_dim;
    kc.bits = bits;
    kc.page_tokens = 8;
    kc.v_scale = full.v.params.scale;
    KvCache cache(kc);

    std::vector<float> ref(static_cast<std::size_t>(head_dim));
    for (int base = 0; base < total; base += phase_tokens) {
        // Mutation phase: owner appends a batch of tokens.
        for (int t = base; t < base + phase_tokens; t++)
            cache.appendToken(full.k.values.row(t),
                              full.v.values.row(t));

        // Reference scan for this history length.
        {
            DecodeEngine engine{PadeConfig{}};
            engine.step(cache, full.q.values.row(0),
                        full.logit_scale, ref);
        }

        // Concurrent read phase.
        const int readers = 4;
        std::vector<std::vector<float>> outs(
            static_cast<std::size_t>(readers),
            std::vector<float>(static_cast<std::size_t>(head_dim)));
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(readers));
        for (int r = 0; r < readers; r++) {
            threads.emplace_back([&cache, &full, &outs, r] {
                DecodeEngine engine{PadeConfig{}};
                engine.step(cache, full.q.values.row(0),
                            full.logit_scale,
                            outs[static_cast<std::size_t>(r)]);
            });
        }
        for (std::thread &t : threads)
            t.join();

        for (int r = 0; r < readers; r++)
            for (int d = 0; d < head_dim; d++)
                EXPECT_EQ(
                    std::bit_cast<uint32_t>(
                        outs[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(d)]),
                    std::bit_cast<uint32_t>(
                        ref[static_cast<std::size_t>(d)]))
                    << "history " << base + phase_tokens << " reader "
                    << r << " dim " << d;
    }
}

// ---------------------------------------------------------------------
// Pipelined ModelEngine sessions sharing ONE PrefixIndex and pool.
// ---------------------------------------------------------------------

uint64_t
mixWord(uint64_t acc, uint32_t word)
{
    uint64_t state = acc + word;
    return splitMix64(state);
}

/**
 * Run one whole-model session to completion and return the mix of
 * each retired token's outputs, in retirement (= position) order.
 * @p index, when given, is the SHARED prefix index: the session
 * acquires/adopts the first two chain depths before prefilling and
 * releases them at the end.
 */
std::vector<uint64_t>
runModelSession(const ModelSpec &spec, int page_tokens, bool pipeline,
                ThreadPool *pool, PrefixIndex *index)
{
    ModelWorkload work(spec);
    std::vector<uint64_t> mixes;

    ModelEngineConfig mc;
    mc.layers = spec.layers;
    mc.pipeline = pipeline;
    mc.layer.heads = spec.heads;
    mc.layer.kv_heads = spec.kv_heads;
    mc.layer.head_dim = spec.head_dim;
    mc.layer.bits = spec.bits;
    mc.layer.page_tokens = page_tokens;

    const auto streams = static_cast<std::size_t>(spec.layers) *
        static_cast<std::size_t>(spec.kv_heads);
    const std::vector<float> v_scales(streams, work.vScale());
    const std::vector<float> logit_scales(streams, work.logitScale());
    ModelEngine engine(
        mc, v_scales, logit_scales,
        [&work](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                MatrixI8 &q) {
            work.stageKv(layer, pos, k, v);
            work.stageQueries(layer, pos, q);
        },
        [&mixes](const TokenResult &tr) {
            uint64_t mix = 0;
            for (const MatrixF &out : tr.outs)
                for (int r = 0; r < out.rows(); r++)
                    for (float v : out.row(r))
                        mix = mixWord(mix,
                                      std::bit_cast<uint32_t>(v));
            mixes.push_back(mix);
        });

    int next = 0;
    std::vector<uint64_t> chain;
    int acquired = 0;
    if (index) {
        chain = work.prefixPageChain(page_tokens);
        const PrefixMatch match = index->acquire(chain);
        acquired = match.pages;
        for (int d = 0; d < match.pages; d++)
            engine.adoptPrefixPages(
                std::span<const std::shared_ptr<const KvPage>>(
                    match.shared)
                    .subspan(static_cast<std::size_t>(d) * streams,
                             streams));
        next = match.pages * page_tokens;
    }

    while (next < spec.prompt_len) {
        for (int c = 0; c < 4 && next < spec.prompt_len; c++)
            engine.feed(next++, spec.prompt_len);
        engine.drain(pool);
    }
    for (int s = 0; s < spec.decode_steps; s++) {
        engine.feed(spec.prompt_len + s, spec.prompt_len);
        engine.drain(pool);
    }
    EXPECT_EQ(engine.pending(), 0);
    if (index && acquired > 0)
        index->release(chain, acquired);
    return mixes;
}

TEST(ConcurrencyStress, PipelinedSessionsShareOnePrefixIndexAndPool)
{
    // The serving hot path under maximal sharing: several pipelined
    // ModelEngines, each on its own thread, adopt the SAME published
    // prefix pages from ONE PrefixIndex (concurrent acquire/release
    // on its mutex) and drain their layer pipelines on ONE ThreadPool
    // (concurrent parallelFor from many external threads). Every
    // session's token stream must be bit-identical to its private
    // serial reference — shared pages share even their cached
    // PlaneWork, so TSan watches the whole read-side.
    const int page_tokens = 8;
    const int sessions = 6;
    ModelSpec base;
    base.layers = 2;
    base.heads = 4;
    base.kv_heads = 2;
    base.head_dim = 32;
    base.bits = 8;
    base.prompt_len = 26;
    base.decode_steps = 4;
    base.prefix_len = 16; // exactly 2 shared pages
    base.prefix_seed = 0xabcdef12u;

    // Donor publishes the prefix pages once.
    PrefixIndexOptions pio;
    pio.streams = base.layers * base.kv_heads;
    PrefixIndex index(pio);
    {
        ModelSpec donor = base;
        donor.seed = 4000;
        ModelWorkload donor_work(donor);
        ModelEngineConfig mc;
        mc.layers = donor.layers;
        mc.pipeline = false;
        mc.layer.heads = donor.heads;
        mc.layer.kv_heads = donor.kv_heads;
        mc.layer.head_dim = donor.head_dim;
        mc.layer.bits = donor.bits;
        mc.layer.page_tokens = page_tokens;
        const auto streams = static_cast<std::size_t>(pio.streams);
        const std::vector<float> vs(streams, donor_work.vScale());
        const std::vector<float> ls(streams,
                                    donor_work.logitScale());
        ModelEngine eng(
            mc, vs, ls,
            [&donor_work](int layer, int pos, MatrixI8 &k,
                          MatrixI8 &v, MatrixI8 &q) {
                donor_work.stageKv(layer, pos, k, v);
                donor_work.stageQueries(layer, pos, q);
            },
            [](const TokenResult &) {});
        for (int p = 0; p < donor.prompt_len; p++)
            eng.feed(p, donor.prompt_len);
        eng.drain(nullptr);
        std::vector<std::shared_ptr<const KvPage>> pages;
        eng.sharePrefixPages(0, pages);
        eng.sharePrefixPages(1, pages);
        const std::vector<uint64_t> chain =
            donor_work.prefixPageChain(page_tokens);
        ASSERT_EQ(index.publish(chain, pages), 2);
    }

    // Private serial references, one per session seed.
    std::vector<ModelSpec> specs;
    std::vector<std::vector<uint64_t>> refs;
    for (int s = 0; s < sessions; s++) {
        ModelSpec spec = base;
        spec.seed = 5000 + static_cast<uint64_t>(s);
        refs.push_back(runModelSession(spec, page_tokens, false,
                                       nullptr, nullptr));
        specs.push_back(spec);
    }

    // Concurrent adopters: own engine per thread, shared pool+index.
    ThreadPool pool(4);
    std::vector<std::vector<uint64_t>> got(
        static_cast<std::size_t>(sessions));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; s++) {
        threads.emplace_back([&, s] {
            got[static_cast<std::size_t>(s)] = runModelSession(
                specs[static_cast<std::size_t>(s)], page_tokens,
                true, &pool, &index);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const int skipped = base.prefix_len; // adopted, never retired
    for (int s = 0; s < sessions; s++) {
        const auto &ref = refs[static_cast<std::size_t>(s)];
        const auto &adopted = got[static_cast<std::size_t>(s)];
        ASSERT_EQ(ref.size(),
                  adopted.size() + static_cast<std::size_t>(skipped))
            << "session " << s;
        for (std::size_t i = 0; i < adopted.size(); i++)
            EXPECT_EQ(adopted[i],
                      ref[i + static_cast<std::size_t>(skipped)])
                << "session " << s << " token " << i;
    }

    const PrefixIndexStats st = index.stats();
    EXPECT_EQ(st.published, 2u);
    EXPECT_EQ(st.hit_pages,
              static_cast<uint64_t>(sessions) * 2u);
    EXPECT_EQ(index.readersOf(
                  ModelWorkload(specs[0]).prefixPageChain(
                      page_tokens)),
              0);
}

} // namespace
} // namespace pade
