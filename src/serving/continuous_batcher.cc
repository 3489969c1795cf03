#include "serving/continuous_batcher.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>

#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "serving/model_engine.h"

namespace pade {

namespace {

/** Mix one 32-bit word into a running checksum. */
uint64_t
mixChecksum(uint64_t acc, uint32_t word)
{
    uint64_t state = acc + word;
    return splitMix64(state);
}

/** Mix a whole output matrix (all heads of one position). */
uint64_t
mixMatrix(uint64_t acc, const MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r))
            acc = mixChecksum(acc, std::bit_cast<uint32_t>(v));
    return acc;
}

/**
 * The ServingReport::telemetry blob: the run's registry delta plus
 * the derived ratios ROADMAP items 2 and 4 asked for, one JSON
 * document. Well-formed in every build; all-zero when telemetry is
 * compiled out.
 */
std::string
telemetryReportJson(const obs::MetricsSnapshot &delta,
                    const ServingReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.value("schema", "pade-serving-telemetry-v1");
    w.value("enabled", obs::kTelemetryEnabled);
    w.beginObject("derived");
    w.value("pipeline_bubble_ratio", report.pipeline_bubble_ratio);
    w.value("kv_bytes_per_token", report.kv_bytes_per_token);
    w.value("prefix_lookups", delta.counter("prefix.lookups"));
    w.value("prefix_hit_pages", delta.counter("prefix.hit_pages"));
    w.value("prefix_evictions", delta.counter("prefix.evictions"));
    w.value("pool_steals", delta.counter("pool.steals"));
    w.endObject();
    w.raw("metrics", delta.toJson());
    w.endObject();
    return w.str();
}

/** Lane capacity of the run's batcher rounds (lanes x round wall);
 *  the denominator of the lane-idle ratio. */
obs::Counter &
roundCapacityUs()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("model.round_capacity_us");
    return c;
}

/** One in-flight request: its workload, KV state, and timeline. */
struct Session
{
    Session(const ServingRequest &r, std::size_t idx, double admit,
            int seq)
        : req(&r), index(idx), admit_ms(admit), admit_seq(seq)
    {
    }

    const ServingRequest *req;
    std::size_t index;
    double admit_ms;
    int admit_seq;
    double first_token_ms = -1.0;
    int prefilled = 0; //!< prompt tokens done (adopted + scored)
    int decoded = 0;
    uint64_t checksum = 0;
    uint64_t prefill_checksum = 0;

    std::optional<ModelWorkload> work;
    std::optional<ModelEngine> engine;

    // Prefix-cache state: the prompt's page chain, how many of its
    // nodes this session holds reader refs on (to release at
    // eviction), and what adoption saved.
    std::vector<uint64_t> chain;
    int chain_acquired = 0;
    bool published = false;
    int prefix_hit_tokens = 0;
    std::size_t prefix_bytes_saved = 0;

    /**
     * Finished = materialized, whole prompt prefilled+scored, every
     * token decoded. The prefill clause matters for decode_steps == 0
     * (prefill-only) requests, which must still do their prompt work
     * before eviction.
     */
    bool
    done() const
    {
        return engine.has_value() && prefilled >= req->prompt_len &&
            decoded >= req->decode_steps;
    }
};

/**
 * Unit 1 of every session: materialize its whole-model workload
 * (static quantization scales, prefix-pure rows; see ModelWorkload)
 * and pipelined engine, then adopt any prefix pages an earlier
 * session already published. Touches only the session and the
 * (internally mutex'd) prefix index.
 */
void
materializeSession(Session &s, const BatcherOptions &opt,
                   PrefixIndex *index)
{
    const ServingRequest &req = *s.req;
    {
        const obs::ScopedSpan span(
            "batcher.materialize",
            {{"request", static_cast<int64_t>(s.index)}});
        ModelSpec spec;
        spec.layers = opt.layers;
        spec.heads = opt.heads;
        spec.kv_heads = opt.kv_heads;
        spec.head_dim = opt.head_dim;
        spec.prompt_len = req.prompt_len;
        spec.decode_steps = req.decode_steps;
        spec.bits = opt.bits;
        spec.prefix_len = req.prefix_len;
        spec.prefix_seed = req.prefix_seed;
        spec.concentration = opt.concentration;
        spec.locality = opt.locality;
        spec.seed = req.seed;
        s.work.emplace(spec);

        ModelEngineConfig mc;
        mc.layers = opt.layers;
        mc.pipeline = opt.pipeline;
        mc.layer.heads = opt.heads;
        mc.layer.kv_heads = opt.kv_heads;
        mc.layer.head_dim = opt.head_dim;
        mc.layer.bits = opt.bits;
        mc.layer.page_tokens = opt.page_tokens;
        mc.layer.pade = opt.pade;
        mc.layer.retention = opt.retention;
        const std::size_t streams =
            static_cast<std::size_t>(opt.layers) *
            static_cast<std::size_t>(opt.kv_heads);
        const std::vector<float> v_scales(streams, s.work->vScale());
        const std::vector<float> logit_scales(streams,
                                              s.work->logitScale());
        Session *self = &s;
        s.engine.emplace(
            mc, v_scales, logit_scales,
            [self](int layer, int pos, MatrixI8 &k, MatrixI8 &v,
                   MatrixI8 &q) {
                self->work->stageKv(layer, pos, k, v);
                self->work->stageQueries(layer, pos, q);
            },
            [self](const TokenResult &tr) {
                // Canonical emission order (feed order; layers
                // ascending within a token) in both engine schedules,
                // so sequential mixing is schedule-invariant. Prefix
                // positions are skipped entirely on a cache hit, so
                // they must not feed the checksum on a miss either.
                const ServingRequest &r = *self->req;
                if (tr.pos >= r.prompt_len) {
                    for (const MatrixF &out : tr.outs)
                        self->checksum =
                            mixMatrix(self->checksum, out);
                } else if (tr.pos >= r.prefix_len) {
                    for (const MatrixF &out : tr.outs)
                        self->prefill_checksum =
                            mixMatrix(self->prefill_checksum, out);
                }
            });

        if (index && req.prefix_len >= opt.page_tokens) {
            s.chain = s.work->prefixPageChain(opt.page_tokens);
            PrefixMatch match = index->acquire(s.chain);
            s.chain_acquired = match.pages;
            for (int d = 0; d < match.pages; d++)
                s.engine->adoptPrefixPages(
                    std::span<const std::shared_ptr<const KvPage>>(
                        match.shared)
                        .subspan(static_cast<std::size_t>(d) * streams,
                                 streams));
            s.prefilled = match.pages * opt.page_tokens;
            s.prefix_hit_tokens = s.prefilled;
            for (const auto &page : match.shared)
                s.prefix_bytes_saved += kvPageBytes(*page);
        }
    }
}

/**
 * Once a session's own prefix pages are complete, publish them for
 * later arrivals — unless the whole chain was adopted, in which case
 * the index already has them. Called on the scheduler thread after
 * each round's barrier.
 */
void
maybePublishPrefix(Session &s, const BatcherOptions &opt,
                   PrefixIndex *index)
{
    if (!index || s.published || s.chain.empty() ||
        s.prefilled < s.req->prefix_len)
        return;
    s.published = true;
    if (s.chain_acquired < static_cast<int>(s.chain.size())) {
        std::vector<std::shared_ptr<const KvPage>> pages;
        pages.reserve(s.chain.size() *
                      static_cast<std::size_t>(opt.layers) *
                      static_cast<std::size_t>(opt.kv_heads));
        for (std::size_t d = 0; d < s.chain.size(); d++)
            s.engine->sharePrefixPages(static_cast<int>(d), pages);
        index->publish(s.chain, pages);
    }
}

/**
 * Advance one session by one scheduling unit: materialize it, score
 * one prefill chunk, or decode one token. Sessions touch disjoint
 * state, so a round runs them concurrently; @p pool, when given, also
 * fans the engine's pipeline rounds and KV-head reductions out
 * (parallelFor's caller help-draining keeps nested fan-outs on one
 * pool deadlock-free).
 */
void
stepSession(Session &s, const BatcherOptions &opt, ThreadPool *pool,
            PrefixIndex *index)
{
    const ServingRequest &req = *s.req;
    if (!s.engine) {
        materializeSession(s, opt, index);
        return;
    }

    if (s.prefilled < req.prompt_len) {
        const obs::ScopedSpan span(
            "batcher.prefill_chunk",
            {{"request", static_cast<int64_t>(s.index)},
             {"pos", s.prefilled}});
        // One prefill chunk: feed the chunk's positions into the
        // pipeline and drain it — appends and guarded causal scoring,
        // bit-identical to the serial layer loop for any chunking
        // (tile-by-tile over the ISTA order of the full prompt).
        const int n = std::min(opt.prefill_chunk,
                               req.prompt_len - s.prefilled);
        for (int t = 0; t < n; t++)
            s.engine->feed(s.prefilled + t, req.prompt_len);
        s.engine->drain(pool);
        s.prefilled += n;
        return;
    }

    // Decode one token through every layer: append its KV rows, run
    // the grouped guarded attention step over every (shared) cache,
    // then let the retention policy reclaim aged-out pages.
    const obs::ScopedSpan span(
        "batcher.decode_token",
        {{"request", static_cast<int64_t>(s.index)},
         {"token", s.decoded}});
    s.engine->feed(req.prompt_len + s.decoded, req.prompt_len);
    s.engine->drain(pool);
    s.decoded++;
}

/**
 * One scheduling round: every active session advances by one unit
 * through its own engine, the sessions fanned over the pool in one
 * parallelFor. With one lane, or one session, the round runs inline
 * on this thread, so a 1-worker serve executes on exactly one thread.
 * The pool goes down to the engines' nested fan-outs only while the
 * sessions alone cannot fill the @p lanes. Both choices are
 * scheduling only: every session's outputs are bit-identical either
 * way (disjoint sessions; the engines' ordered reductions).
 */
void
runRound(const std::vector<std::unique_ptr<Session>> &active,
         const BatcherOptions &opt, ThreadPool &pool, int lanes,
         PrefixIndex *index)
{
    const int sessions = static_cast<int>(active.size());
    ThreadPool *nested = sessions < lanes ? &pool : nullptr;
    const auto step = [&](int i) {
        stepSession(*active[static_cast<std::size_t>(i)], opt, nested,
                    index);
    };
    if (lanes > 1 && sessions > 1)
        parallelFor(pool, sessions, step);
    else
        for (int i = 0; i < sessions; i++)
            step(i);
}

} // namespace

ContinuousBatcher::ContinuousBatcher(BatcherOptions opt) : opt_(opt)
{
    // Admission invariants: a misconfigured batcher must die at
    // construction in every build type, not serve garbage — these
    // are PADE_CHECKs, not asserts, so Release servers fail loudly.
    PADE_CHECK_GT(opt_.max_active, 0);
    PADE_CHECK_GT(opt_.prefill_chunk, 0);
    PADE_CHECK_GE(opt_.layers, 1);
    PADE_CHECK_GE(opt_.heads, 1);
    PADE_CHECK_GE(opt_.kv_heads, 1);
    PADE_CHECK_EQ(opt_.heads % opt_.kv_heads, 0);
}

ServingReport
ContinuousBatcher::run(std::span<const ServingRequest> trace) const
{
    const auto run_t0 = std::chrono::steady_clock::now();

    // Bracket the run in metric snapshots: the delta isolates this
    // run's activity from process-lifetime totals (earlier runs,
    // tests in the same binary). Tracing turns on only when a trace
    // file was requested — recording is otherwise one relaxed load
    // per span site.
    const obs::MetricsSnapshot metrics_before =
        obs::Registry::instance().snapshot();
    if (!opt_.trace_file.empty())
        obs::setTraceEnabled(true);

    ServingReport report;
    report.sessions.resize(trace.size());
    // The admission loop's virtual-clock jumps assume a time-sorted
    // trace; an unsorted one would starve arrivals forever.
    for (std::size_t i = 0; i + 1 < trace.size(); i++)
        PADE_CHECK_LE(trace[i].arrival_ms, trace[i + 1].arrival_ms);

    ThreadPool pool(opt_.threads);
    // Lanes a round can really fill: an oversubscribed pool cannot
    // compute more than `cores` unit-seconds per second.
    const int lanes =
        std::min(pool.threadCount(), ThreadPool::hardwareThreads());
    // One prefix index per run, shared by every slot (internally
    // mutex'd; see serving/prefix_index.h). Streams = layers x
    // kv_heads pages per trie node, row-major by layer — the layout
    // ModelEngine::sharePrefixPages emits.
    std::optional<PrefixIndex> prefix_index;
    if (opt_.prefix_cache) {
        PrefixIndexOptions pio;
        pio.streams = opt_.layers * opt_.kv_heads;
        pio.max_bytes = opt_.prefix_cache_bytes;
        prefix_index.emplace(pio);
    }
    PrefixIndex *index = prefix_index ? &*prefix_index : nullptr;
    std::vector<std::unique_ptr<Session>> active;
    active.reserve(static_cast<std::size_t>(opt_.max_active));
    std::size_t next = 0;
    // Arrived-but-unadmitted trace indices, drained by priority.
    std::vector<std::size_t> pending;
    int admit_seq = 0;
    double now_ms = 0.0;

    std::vector<double> latency;
    std::vector<double> ttft;
    std::vector<double> tpot;
    latency.reserve(trace.size());
    ttft.reserve(trace.size());
    tpot.reserve(trace.size());

    while (next < trace.size() || !pending.empty() ||
           !active.empty()) {
        // Stage every arrived request, then admit by priority (higher
        // first), trace order breaking ties — a deterministic policy
        // independent of thread count or round timing jitter in the
        // sense that equal virtual clocks admit equal sets.
        while (next < trace.size() &&
               trace[next].arrival_ms <= now_ms)
            pending.push_back(next++);
        while (!pending.empty() &&
               static_cast<int>(active.size()) < opt_.max_active) {
            const auto best = std::min_element(
                pending.begin(), pending.end(),
                [&](std::size_t a, std::size_t b) {
                    if (trace[a].priority != trace[b].priority)
                        return trace[a].priority > trace[b].priority;
                    return a < b;
                });
            const std::size_t idx = *best;
            pending.erase(best);
            obs::traceInstant(
                "batcher.admit",
                {{"request", static_cast<int64_t>(idx)},
                 {"priority", trace[idx].priority}});
            active.push_back(std::make_unique<Session>(
                trace[idx], idx, now_ms, admit_seq++));
        }
        report.peak_active = std::max(
            report.peak_active, static_cast<int>(active.size()));

        if (active.empty()) {
            // Idle: free slots exist, so pending must be drained —
            // jump the virtual clock to the next arrival. A violation
            // here means the admission loop wedged; fail loudly
            // rather than spin forever.
            PADE_CHECK(pending.empty() && next < trace.size());
            now_ms = std::max(now_ms, trace[next].arrival_ms);
            continue;
        }

        // One scheduling round: every active session advances by one
        // unit, concurrently. The round's host wall time advances the
        // virtual clock, so latency reflects actual machine speed and
        // parallelism.
        const auto t0 = std::chrono::steady_clock::now();
        const obs::ScopedSpan round_span(
            "batcher.round",
            {{"active", static_cast<int64_t>(active.size())},
             {"round", report.rounds}});
        runRound(active, opt_, pool, lanes, index);
        const auto round_wall = std::chrono::steady_clock::now() - t0;
        // Every lane is offered work: sessions fill them, or the
        // nested fan-outs do when sessions are fewer.
        if constexpr (obs::kTelemetryEnabled)
            roundCapacityUs().add(
                static_cast<uint64_t>(lanes) *
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        round_wall)
                        .count()));
        now_ms += opt_.fixed_round_ms >= 0.0
                      ? opt_.fixed_round_ms
                      : std::chrono::duration<double, std::milli>(
                            round_wall)
                            .count();
        report.rounds++;

        // Post-round bookkeeping on the scheduler thread, after the
        // barrier: prefix publication (in session order, whatever the
        // thread count), resident KV bytes (adopted prefix pages count
        // once per adopter — the total is the bytes sessions
        // *reference*; the saving is reported separately), and
        // first-token times, which need the round-end virtual clock.
        std::size_t cache_bytes = 0;
        for (auto &s : active) {
            maybePublishPrefix(*s, opt_, index);
            if (s->engine)
                cache_bytes += s->engine->bytesUsed();
            if (s->decoded >= 1 && s->first_token_ms < 0.0)
                s->first_token_ms = now_ms;
        }
        report.peak_cache_bytes =
            std::max(report.peak_cache_bytes, cache_bytes);

        // Evict finished sessions: record the timeline, free the KV
        // pages, release the slot.
        for (std::size_t i = 0; i < active.size();) {
            Session &s = *active[i];
            if (!s.done()) {
                i++;
                continue;
            }
            SessionStats &st = report.sessions[s.index];
            st.arrival_ms = s.req->arrival_ms;
            st.admit_ms = s.admit_ms;
            st.admit_seq = s.admit_seq;
            st.priority = s.req->priority;
            st.first_token_ms = s.first_token_ms;
            st.finish_ms = now_ms;
            st.prompt_len = s.req->prompt_len;
            st.decode_steps = s.req->decode_steps;
            st.prefix_len = s.req->prefix_len;
            st.prefix_hit_tokens = s.prefix_hit_tokens;
            st.checksum = s.checksum;
            st.prefill_checksum = s.prefill_checksum;

            // Drop the session's reader refs so its prefix nodes
            // become evictable again (the pages themselves die with
            // the last referencing cache).
            if (prefix_index && s.chain_acquired > 0)
                prefix_index->release(s.chain, s.chain_acquired);

            report.tokens_prefilled +=
                static_cast<uint64_t>(s.prefilled);
            report.tokens_decoded += static_cast<uint64_t>(s.decoded);
            report.tokens_prefix_hit +=
                static_cast<uint64_t>(s.prefix_hit_tokens);
            report.prefix_bytes_saved += s.prefix_bytes_saved;
            report.checksum ^= s.checksum;
            report.prefill_checksum ^= s.prefill_checksum;
            latency.push_back(st.finish_ms - st.arrival_ms);
            // Prefill-only sessions never decode a token; they count
            // toward latency but not TTFT (nor TPOT, which further
            // needs a second token to measure a gap).
            if (s.first_token_ms >= 0.0)
                ttft.push_back(st.first_token_ms - st.arrival_ms);
            if (s.first_token_ms >= 0.0 && s.decoded >= 2)
                tpot.push_back((st.finish_ms - st.first_token_ms) /
                               static_cast<double>(s.decoded - 1));
            if constexpr (obs::kTelemetryEnabled) {
                // Per-session latency series as histograms (µs):
                // snapshot deltas carry the distribution shape even
                // where the report object itself is unavailable.
                obs::Registry::instance()
                    .histogram("serving.latency_us")
                    .record(latency.back() * 1000.0);
                if (s.first_token_ms >= 0.0)
                    obs::Registry::instance()
                        .histogram("serving.ttft_us")
                        .record(ttft.back() * 1000.0);
                if (!tpot.empty() && s.first_token_ms >= 0.0 &&
                    s.decoded >= 2)
                    obs::Registry::instance()
                        .histogram("serving.tpot_us")
                        .record(tpot.back() * 1000.0);
            }
            obs::traceInstant(
                "batcher.finish",
                {{"request", static_cast<int64_t>(s.index)},
                 {"decoded", s.decoded}});

            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(i));
        }
    }

    if (prefix_index)
        report.prefix = prefix_index->stats();
    report.latency_ms = Percentiles::of(latency);
    report.ttft_ms = Percentiles::of(ttft);
    report.tpot_ms = Percentiles::of(tpot);
    report.makespan_ms = now_ms;
    report.wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - run_t0).count();
    report.decode_tok_per_s = report.wall_ms > 0.0
        ? static_cast<double>(report.tokens_decoded) /
            (report.wall_ms / 1000.0)
        : 0.0;

    // Close the telemetry bracket: derive the run-level ratios from
    // the metric delta, serialize the blob, flush the trace. Values
    // stay zero when PADE_TELEMETRY=OFF (the counters never move).
    const obs::MetricsSnapshot metrics_delta =
        obs::MetricsSnapshot::delta(
            metrics_before, obs::Registry::instance().snapshot());
    const double busy_us = static_cast<double>(
        metrics_delta.counter("model.unit_busy_us"));
    const double capacity_us = static_cast<double>(
        metrics_delta.counter("model.round_capacity_us"));
    if (capacity_us > 0.0)
        report.pipeline_bubble_ratio =
            std::clamp(1.0 - busy_us / capacity_us, 0.0, 1.0);
    // Tokens the run appended *privately* (prefix-adopted pages are
    // aliased, not appended), at model granularity: one position =
    // layers x kv_heads cache appends, all counted in bytes_appended.
    const double appended_tokens = static_cast<double>(
        report.tokens_prefilled - report.tokens_prefix_hit +
        report.tokens_decoded);
    if (appended_tokens > 0.0)
        report.kv_bytes_per_token =
            static_cast<double>(
                metrics_delta.counter("kv.bytes_appended")) /
            appended_tokens;
    report.telemetry = telemetryReportJson(metrics_delta, report);
    if (!opt_.trace_file.empty()) {
        obs::setTraceEnabled(false);
        report.trace_written =
            writeTextFile(opt_.trace_file, obs::chromeTraceJson());
        if (!report.trace_written)
            std::fprintf(stderr, "cannot write trace file %s\n",
                         opt_.trace_file.c_str());
    }
    return report;
}

} // namespace pade
