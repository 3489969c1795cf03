/**
 * @file
 * Traced run: per-layer metrics, measured from outside the program.
 *
 * The start of a trace the end-to-end run serves (the first
 * kReplayRequests requests of trace 0) is replayed on one thread
 * through the public layer APIs — ModelWorkload::stageKv/stageQueries,
 * KvCache::appendToken/adoptSharedPage, DecodeEngine::prefillGroup/
 * stepGroup/applyRetention, PrefixIndex::acquire/publish/release —
 * with a span from this file around every call. The replay follows
 * ContinuousBatcher's schedule exactly (slots, priority-then-arrival
 * admission, one unit per session per round, publish after the
 * round, release at eviction) on a fixed virtual round time, and its
 * per-request checksums must equal the oracle's, so it provably does
 * the batcher's work.
 *
 * The upper layers are then timed at the same geometry and reported
 * as overhead above the sum of their children:
 *  - LayerEngine and ModelEngine::advance, in lock-step with raw
 *    calls on one probe request (outputs cross-checked bit for bit);
 *  - parallelFor: one fork/join barrier at the pool's width;
 *  - ContinuousBatcher::run on 1 worker and on every worker, with the
 *    replay's virtual round time so all three run one schedule.
 *
 * Attribution: the replay's leaf self-times plus scheduling (the part
 * of the wall the batcher's own model.unit_busy_us counter puts
 * outside its units and the calls between them) must sum to the
 * 1-worker batcher wall within 10%, or the run fails. Replays
 * alternate with batcher runs, each replay is compared with the mean
 * of the batcher runs around it, and |wall - leaves - scheduling| / wall
 * of the pair with the median residual is attr.residual_frac.
 *
 * Span-recording overhead (obs.trace_overhead_frac) comes from
 * interleaved real-clock legs with recording on and off, alternating
 * which leg of a pair runs first.
 *
 * Metrics whose ideal value is 0 and whose measured value can fall on
 * either side of it (the residual and the three overhead fractions)
 * are reported as magnitudes, so that lower is always better.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/bit_serial.h"
#include "core/simd/qk_dispatch.h"
#include "obs/telemetry.h"
#include "quant/bitplane.h"
#include "runtime/thread_pool.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "serving/layer_engine.h"
#include "serving/model_engine.h"
#include "serving/prefix_index.h"

namespace servebench {

namespace {

using pade::MatrixF;
using pade::MatrixI8;
using pade::ServingRequest;

constexpr int kGroup = kHeads / kKvHeads;
constexpr int kStreams = kLayers * kKvHeads;

/** Replay/batcher pairs behind the attribution, and its tolerance. */
constexpr int kAttributionPairs = 7;
constexpr double kAttributionTolerance = 0.10;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** The batcher's checksum mix (continuous_batcher.cc, mixMatrix). */
uint64_t
mixMatrix(uint64_t acc, const MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r)) {
            uint64_t state = acc + std::bit_cast<uint32_t>(v);
            acc = pade::splitMix64(state);
        }
    return acc;
}

enum SpanKind
{
    kStage,
    kAppend,
    kAdopt,
    kPrefill,
    kStep,
    kEvict,
    kAcquire,
    kPublish,
    kRelease,
    kMaterialize,
    kSpanKinds
};

const char *const kSpanNames[kSpanKinds] = {
    "workload.stage", "kv.append",      "kv.adopt",
    "decode.prefill", "decode.step",    "kv.evict",
    "prefix.acquire", "prefix.publish", "prefix.release",
    "session.materialize"};

/** Self time and call count of one span kind. */
struct SpanAgg
{
    double ns = 0.0;
    uint64_t calls = 0;

    double perCall() const { return calls ? ns / calls : 0.0; }
};

/** Scoped span: adds its duration to one aggregate. */
class Span
{
  public:
    explicit Span(SpanAgg &agg) : agg_(agg), t0_(Clock::now()) {}
    ~Span()
    {
        agg_.ns += nsSince(t0_);
        agg_.calls++;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanAgg &agg_;
    Clock::time_point t0_;
};

/** Counters and spans the replay collects. */
struct ReplayStats
{
    SpanAgg span[kSpanKinds];
    uint64_t step_keys = 0; //!< keys scanned per query head, summed
    uint64_t step_retained = 0;
    uint64_t step_planes = 0;
    /** (context length, ns) of every decode stepGroup call. */
    std::vector<std::pair<int, double>> step_ctx_ns;
    uint64_t pages_dropped = 0;
    uint64_t chain_pages = 0; //!< prefix pages looked up
    uint64_t hit_pages = 0;   //!< prefix pages adopted
    double wall_s = 0.0;      //!< whole replay, spans included

    double
    leafNs() const
    {
        double sum = 0.0;
        for (const SpanAgg &a : span)
            sum += a.ns;
        return sum;
    }
};

pade::ModelSpec
modelSpec(const ServingRequest &req)
{
    pade::ModelSpec spec;
    spec.layers = kLayers;
    spec.heads = kHeads;
    spec.kv_heads = kKvHeads;
    spec.head_dim = kHeadDim;
    spec.prompt_len = req.prompt_len;
    spec.decode_steps = req.decode_steps;
    spec.bits = kBits;
    spec.prefix_len = req.prefix_len;
    spec.prefix_seed = req.prefix_seed;
    spec.seed = req.seed;
    return spec;
}

pade::KvCacheConfig
cacheConfig(const pade::BatcherOptions &opt, float v_scale)
{
    pade::KvCacheConfig kc;
    kc.head_dim = kHeadDim;
    kc.bits = kBits;
    kc.page_tokens = kPageTokens;
    kc.subgroup = opt.pade.subgroup;
    kc.muxes = opt.pade.muxes;
    kc.v_scale = v_scale;
    return kc;
}

/** One session of the replay: raw caches and engines per stream. */
struct ReplaySession
{
    const ServingRequest *req;
    std::size_t index;
    std::optional<pade::ModelWorkload> work;
    std::vector<pade::KvCache> caches; //!< stream = layer * kv + kv
    std::vector<pade::DecodeEngine> engines;
    std::vector<MatrixF> outs; //!< per layer, heads x head_dim
    int prefilled = 0;
    int decoded = 0;
    uint64_t checksum = 0;
    uint64_t prefill_checksum = 0;
    std::vector<uint64_t> chain;
    int acquired = 0;
    bool published = false;

    bool
    done() const
    {
        return work && prefilled >= req->prompt_len &&
            decoded >= req->decode_steps;
    }
};

/** Serial replay of a trace through the raw layer APIs. */
class Replayer
{
  public:
    explicit Replayer(const pade::BatcherOptions &opt)
        : opt_(opt), k_(kKvHeads, kHeadDim), v_(kKvHeads, kHeadDim),
          q_(kHeads, kHeadDim)
    {
    }

    /** Replay @p trace on a @p round_ms virtual round; fills @p out
     *  with per-request checksums. */
    void
    run(std::span<const ServingRequest> trace, double round_ms,
        Oracle &out)
    {
        out.checksum.assign(trace.size(), 0);
        out.prefill_checksum.assign(trace.size(), 0);
        std::optional<pade::PrefixIndex> index;
        if (opt_.prefix_cache) {
            pade::PrefixIndexOptions pio;
            pio.streams = kStreams;
            index.emplace(pio);
        }
        index_ = index ? &*index : nullptr;

        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<ReplaySession>> active;
        std::vector<std::size_t> pending;
        std::vector<ReplaySession *> resident;
        std::size_t next = 0;
        double now = 0.0;
        while (next < trace.size() || !pending.empty() ||
               !active.empty()) {
            while (next < trace.size() && trace[next].arrival_ms <= now)
                pending.push_back(next++);
            while (!pending.empty() &&
                   static_cast<int>(active.size()) < kSlots) {
                const auto best = std::min_element(
                    pending.begin(), pending.end(),
                    [&](std::size_t a, std::size_t b) {
                        if (trace[a].priority != trace[b].priority)
                            return trace[a].priority > trace[b].priority;
                        return a < b;
                    });
                auto s = std::make_unique<ReplaySession>();
                s->req = &trace[*best];
                s->index = *best;
                pending.erase(best);
                active.push_back(std::move(s));
            }
            if (active.empty()) {
                now = std::max(now, trace[next].arrival_ms);
                continue;
            }

            // One round: sessions resident at its start run one unit;
            // sessions admitted this round materialize.
            resident.clear();
            for (const auto &s : active)
                if (s->work)
                    resident.push_back(s.get());
            for (const auto &s : active)
                if (!s->work)
                    materialize(*s);
            std::vector<int> fed(resident.size(), 0);
            for (std::size_t i = 0; i < resident.size(); i++) {
                ReplaySession &s = *resident[i];
                const int prompt = s.req->prompt_len;
                if (s.prefilled < prompt) {
                    fed[i] = std::min(kPrefillChunk, prompt - s.prefilled);
                    for (int t = 0; t < fed[i]; t++)
                        position(s, s.prefilled + t);
                } else {
                    position(s, prompt + s.decoded);
                }
            }
            for (std::size_t i = 0; i < resident.size(); i++) {
                ReplaySession &s = *resident[i];
                if (fed[i] > 0) {
                    s.prefilled += fed[i];
                    maybePublish(s);
                } else {
                    s.decoded++;
                }
            }
            now += round_ms;

            for (std::size_t i = 0; i < active.size();) {
                ReplaySession &s = *active[i];
                if (!s.done()) {
                    i++;
                    continue;
                }
                if (index_ && s.acquired > 0) {
                    const Span span(stats.span[kRelease]);
                    index_->release(s.chain, s.acquired);
                }
                out.checksum[s.index] = s.checksum;
                out.prefill_checksum[s.index] = s.prefill_checksum;
                active.erase(active.begin() +
                             static_cast<std::ptrdiff_t>(i));
            }
        }
        stats.wall_s = secondsSince(t0);
        index_ = nullptr;
    }

    ReplayStats stats;

  private:
    void
    materialize(ReplaySession &s)
    {
        const ServingRequest &req = *s.req;
        {
            const Span span(stats.span[kMaterialize]);
            s.work.emplace(modelSpec(req));
            const pade::KvCacheConfig kc =
                cacheConfig(opt_, s.work->vScale());
            s.caches.reserve(kStreams);
            s.engines.reserve(kStreams);
            for (int i = 0; i < kStreams; i++) {
                s.caches.emplace_back(kc);
                s.engines.emplace_back(opt_.pade, opt_.retention);
            }
            s.outs.assign(kLayers, MatrixF(kHeads, kHeadDim));
            if (index_ && req.prefix_len >= kPageTokens)
                s.chain = s.work->prefixPageChain(kPageTokens);
        }
        if (s.chain.empty())
            return;
        pade::PrefixMatch match;
        {
            const Span span(stats.span[kAcquire]);
            match = index_->acquire(s.chain);
        }
        stats.chain_pages += s.chain.size();
        stats.hit_pages += static_cast<uint64_t>(match.pages);
        s.acquired = match.pages;
        for (int d = 0; d < match.pages; d++) {
            const Span span(stats.span[kAdopt]);
            for (int st = 0; st < kStreams; st++)
                s.caches[static_cast<std::size_t>(st)].adoptSharedPage(
                    match.shared[static_cast<std::size_t>(d * kStreams +
                                                          st)]);
        }
        s.prefilled = match.pages * kPageTokens;
    }

    void
    maybePublish(ReplaySession &s)
    {
        if (!index_ || s.published || s.chain.empty() ||
            s.prefilled < s.req->prefix_len)
            return;
        s.published = true;
        if (s.acquired >= static_cast<int>(s.chain.size()))
            return;
        const Span span(stats.span[kPublish]);
        std::vector<std::shared_ptr<const pade::KvPage>> pages;
        pages.reserve(s.chain.size() * kStreams);
        for (std::size_t d = 0; d < s.chain.size(); d++)
            for (int st = 0; st < kStreams; st++)
                pages.push_back(s.caches[static_cast<std::size_t>(st)]
                                    .sharePage(static_cast<int>(d)));
        index_->publish(s.chain, pages);
    }

    /** Position @p pos of @p s through every layer, then mix its
     *  outputs into the session checksum as the batcher's sink does. */
    void
    position(ReplaySession &s, int pos)
    {
        const int prompt = s.req->prompt_len;
        const float logit = s.work->logitScale();
        for (int l = 0; l < kLayers; l++) {
            {
                const Span span(stats.span[kStage]);
                s.work->stageKv(l, pos, k_, v_);
                s.work->stageQueries(l, pos, q_);
            }
            MatrixF &out = s.outs[static_cast<std::size_t>(l)];
            for (int kv = 0; kv < kKvHeads; kv++) {
                const Span span(stats.span[kAppend]);
                s.caches[static_cast<std::size_t>(l * kKvHeads + kv)]
                    .appendToken(k_.row(kv), v_.row(kv));
            }
            for (int kv = 0; kv < kKvHeads; kv++) {
                const auto st = static_cast<std::size_t>(l * kKvHeads + kv);
                pade::KvCache &cache = s.caches[st];
                pade::DecodeEngine &eng = s.engines[st];
                if (pos < prompt) {
                    const Span span(stats.span[kPrefill]);
                    eng.prefillGroup(cache, q_, kv * kGroup, kGroup, pos,
                                     prompt, logit, out, kv * kGroup);
                    continue;
                }
                const auto t0 = Clock::now();
                const pade::DecodeStep d = eng.stepGroup(
                    cache, q_, kv * kGroup, kGroup, logit, out,
                    kv * kGroup);
                const double ns = nsSince(t0);
                stats.span[kStep].ns += ns;
                stats.span[kStep].calls++;
                stats.step_ctx_ns.emplace_back(cache.size(), ns);
                stats.step_keys += static_cast<uint64_t>(d.keys);
                stats.step_retained += static_cast<uint64_t>(d.retained);
                stats.step_planes += d.planes;
            }
            if (pos < prompt)
                continue;
            for (int kv = 0; kv < kKvHeads; kv++) {
                const auto st = static_cast<std::size_t>(l * kKvHeads + kv);
                const int live = s.caches[st].livePages();
                {
                    const Span span(stats.span[kEvict]);
                    s.engines[st].applyRetention(s.caches[st]);
                }
                stats.pages_dropped +=
                    static_cast<uint64_t>(live - s.caches[st].livePages());
            }
        }
        if (pos >= prompt)
            for (const MatrixF &o : s.outs)
                s.checksum = mixMatrix(s.checksum, o);
        else if (pos >= s.req->prefix_len)
            for (const MatrixF &o : s.outs)
                s.prefill_checksum = mixMatrix(s.prefill_checksum, o);
    }

    pade::BatcherOptions opt_;
    pade::PrefixIndex *index_ = nullptr;
    MatrixI8 k_, v_, q_;
};

/** Upper-layer timings of the lock-step probe. */
struct ProbeResult
{
    double raw_score_ns = 0.0; //!< prefill/step calls
    double raw_other_ns = 0.0; //!< append + evict calls
    double layer_ns = 0.0;     //!< LayerEngine calls, pooled
    SpanAgg layer_decode;      //!< LayerEngine::decode calls, pooled
    double model_pipe_ns = 0.0;
    int model_rounds = 0;
    double model_serial_ns = 0.0;
    bool outputs_agree = true;
};

/**
 * One request processed four ways in lock-step, one batcher unit
 * (prefill chunk or decode token) at a time: raw caches/engines,
 * LayerEngine fanned over @p pool, a pipelined ModelEngine advanced
 * over @p pool, and the serial ModelEngine. All four must emit the
 * same outputs.
 */
ProbeResult
probeUpperLayers(const pade::BatcherOptions &opt, ServingRequest req,
                 pade::ThreadPool &pool)
{
    req.prompt_len = std::min(req.prompt_len, 512);
    req.decode_steps = std::min(req.decode_steps, 256);
    req.prefix_len = std::min(req.prefix_len, req.prompt_len);
    const pade::ModelWorkload work(modelSpec(req));
    const float logit = work.logitScale();
    const std::vector<float> v_scales(kKvHeads, work.vScale());
    const std::vector<float> logits(kKvHeads, logit);
    const std::vector<float> model_v(kStreams, work.vScale());
    const std::vector<float> model_logits(kStreams, logit);

    ProbeResult r;
    std::vector<pade::KvCache> caches;
    std::vector<pade::DecodeEngine> engines;
    std::vector<pade::LayerEngine> layers;
    pade::LayerEngineConfig lc;
    lc.heads = kHeads;
    lc.kv_heads = kKvHeads;
    lc.head_dim = kHeadDim;
    lc.bits = kBits;
    lc.page_tokens = kPageTokens;
    lc.pade = opt.pade;
    lc.retention = opt.retention;
    for (int st = 0; st < kStreams; st++) {
        caches.emplace_back(cacheConfig(opt, work.vScale()));
        engines.emplace_back(opt.pade, opt.retention);
    }
    for (int l = 0; l < kLayers; l++)
        layers.emplace_back(lc, v_scales);

    pade::ModelEngineConfig mc;
    mc.layers = kLayers;
    mc.layer = lc;
    const pade::ModelEngine::Stager stager =
        [&work](int l, int pos, MatrixI8 &k, MatrixI8 &v, MatrixI8 &q) {
            work.stageKv(l, pos, k, v);
            work.stageQueries(l, pos, q);
        };
    uint64_t sum_pipe = 0, sum_serial = 0;
    mc.pipeline = true;
    pade::ModelEngine pipe(mc, model_v, model_logits, stager,
                           [&](const pade::TokenResult &t) {
                               for (const MatrixF &o : t.outs)
                                   sum_pipe = mixMatrix(sum_pipe, o);
                           });
    mc.pipeline = false;
    pade::ModelEngine serial(mc, model_v, model_logits, stager,
                             [&](const pade::TokenResult &t) {
                                 for (const MatrixF &o : t.outs)
                                     sum_serial = mixMatrix(sum_serial, o);
                             });

    MatrixI8 k(kKvHeads, kHeadDim), v(kKvHeads, kHeadDim),
        q(kHeads, kHeadDim);
    std::vector<MatrixF> raw_out(kLayers, MatrixF(kHeads, kHeadDim));
    std::vector<MatrixF> layer_out(kLayers, MatrixF(kHeads, kHeadDim));
    uint64_t sum_raw = 0, sum_layer = 0;
    const int total = req.prompt_len + req.decode_steps;
    for (int pos = 0; pos < total;) {
        const bool prefill = pos < req.prompt_len;
        const int n =
            prefill ? std::min(kPrefillChunk, req.prompt_len - pos) : 1;
        for (int p = pos; p < pos + n; p++) {
            for (int l = 0; l < kLayers; l++) {
                work.stageKv(l, p, k, v);
                work.stageQueries(l, p, q);
                MatrixF &ro = raw_out[static_cast<std::size_t>(l)];
                auto t0 = Clock::now();
                for (int kv = 0; kv < kKvHeads; kv++)
                    caches[static_cast<std::size_t>(l * kKvHeads + kv)]
                        .appendToken(k.row(kv), v.row(kv));
                r.raw_other_ns += nsSince(t0);
                t0 = Clock::now();
                for (int kv = 0; kv < kKvHeads; kv++) {
                    const auto st =
                        static_cast<std::size_t>(l * kKvHeads + kv);
                    if (prefill)
                        engines[st].prefillGroup(caches[st], q, kv * kGroup,
                                                 kGroup, p, req.prompt_len,
                                                 logit, ro, kv * kGroup);
                    else
                        engines[st].stepGroup(caches[st], q, kv * kGroup,
                                              kGroup, logit, ro,
                                              kv * kGroup);
                }
                r.raw_score_ns += nsSince(t0);
                if (!prefill) {
                    t0 = Clock::now();
                    for (int kv = 0; kv < kKvHeads; kv++) {
                        const auto st =
                            static_cast<std::size_t>(l * kKvHeads + kv);
                        engines[st].applyRetention(caches[st]);
                    }
                    r.raw_other_ns += nsSince(t0);
                }

                pade::LayerEngine &le = layers[static_cast<std::size_t>(l)];
                MatrixF &lo = layer_out[static_cast<std::size_t>(l)];
                t0 = Clock::now();
                le.appendToken(k, v);
                if (prefill) {
                    le.prefillPosition(q, p, req.prompt_len, logits, lo,
                                       &pool);
                } else {
                    const auto td = Clock::now();
                    le.decode(q, logits, lo, &pool);
                    r.layer_decode.ns += nsSince(td);
                    r.layer_decode.calls++;
                    le.evict();
                }
                r.layer_ns += nsSince(t0);
            }
            for (int l = 0; l < kLayers; l++) {
                sum_raw = mixMatrix(sum_raw,
                                    raw_out[static_cast<std::size_t>(l)]);
                sum_layer = mixMatrix(
                    sum_layer, layer_out[static_cast<std::size_t>(l)]);
            }
        }

        for (int p = pos; p < pos + n; p++)
            pipe.feed(p, req.prompt_len);
        auto t0 = Clock::now();
        while (pipe.advance(&pool))
            r.model_rounds++;
        r.model_pipe_ns += nsSince(t0);

        for (int p = pos; p < pos + n; p++)
            serial.feed(p, req.prompt_len);
        t0 = Clock::now();
        serial.drain(nullptr);
        r.model_serial_ns += nsSince(t0);
        pos += n;
    }
    r.outputs_agree = sum_raw == sum_layer && sum_raw == sum_pipe &&
        sum_raw == sum_serial;
    return r;
}

volatile int64_t g_qk_sink = 0;

/** ns per (query, key) pair of the resolved QK kernel, all planes. */
double
qkNsPerPair()
{
    constexpr int kKeys = 512;
    uint64_t state = 12345;
    MatrixI8 keys(kKeys, kHeadDim);
    for (int r = 0; r < kKeys; r++)
        for (auto &x : keys.row(r))
            x = static_cast<int8_t>(pade::splitMix64(state));
    std::vector<int8_t> qrow(kHeadDim);
    for (auto &x : qrow)
        x = static_cast<int8_t>(pade::splitMix64(state));
    const pade::BitPlaneSet planes(keys, kBits);
    const pade::QueryPlanes qp(qrow, kBits);
    const pade::QkKernel kernel =
        pade::resolveQkKernel(pade::defaultQkKernel());

    int64_t acc = 0;
    long pairs = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < 0.2) {
        for (int key = 0; key < kKeys; key++)
            for (int p = 0; p < kBits; p++)
                acc += kernel == pade::QkKernel::kSimd
                    ? pade::planeDeltaSimd(qp, planes, key, p)
                    : kernel == pade::QkKernel::kPopcount
                    ? pade::planeDelta(qp, planes, key, p)
                    : pade::planeDeltaScalar(qrow, planes, key, p);
        pairs += kKeys;
    }
    const double ns = nsSince(t0);
    g_qk_sink = acc; // keeps the kernel calls observable
    return ns / static_cast<double>(pairs);
}

/** Median µs of one parallelFor fork/join at the pool's width. */
double
forkJoinUs(pade::ThreadPool &pool)
{
    const int width = pool.threadCount();
    std::vector<double> us;
    std::vector<int> sink(static_cast<std::size_t>(width), 0);
    for (int rep = 0; rep < 2100; rep++) {
        const auto t0 = Clock::now();
        pade::parallelFor(pool, width, [&](int i) {
            sink[static_cast<std::size_t>(i)]++;
        });
        if (rep >= 100) // warm-up
            us.push_back(nsSince(t0) / 1000.0);
    }
    return median(us);
}

/**
 * One replay compared with the 1-worker batcher runs around it (the
 * mean of the run before and the run after).
 * Scheduling is the part of the batcher's wall that its own
 * model.unit_busy_us counter puts outside its units and outside the
 * calls it makes between units (materialize, prefix); the residual is
 * what neither the replay's leaf self-times nor scheduling explain.
 */
struct AttributionPair
{
    double wall_ns = 0.0;
    double sched_ns = 0.0;
    double residual_ns = 0.0;
    ReplayStats stats;

    static AttributionPair
    of(double wall_ns, double unit_busy_ns, const ReplayStats &stats)
    {
        const double outside_units_ns = stats.span[kMaterialize].ns +
            stats.span[kAcquire].ns + stats.span[kAdopt].ns +
            stats.span[kPublish].ns + stats.span[kRelease].ns;
        AttributionPair p;
        p.wall_ns = wall_ns;
        p.sched_ns = wall_ns - unit_busy_ns - outside_units_ns;
        p.residual_ns = wall_ns - stats.leafNs() - p.sched_ns;
        p.stats = stats;
        return p;
    }

    double
    residualFrac() const
    {
        return residual_ns / wall_ns;
    }
};

} // namespace

int
runTraced(const RunConfig &cfg)
{
    const Workload &w = *cfg.workload;
    // Real-clock legs run on kServeThreads workers, like the timed
    // serves; the fan-out probes and the wide batcher run use every
    // hardware thread.
    const int wide = hostThreads();
    const auto run_t0 = Clock::now();

    // The first requests of the end-to-end run's trace 0 (a shorter
    // trace is a prefix of a longer one with the same seed).
    std::vector<ServingRequest> trace = makeTrace(w, cfg.seed, 0, cfg.smoke);
    trace.resize(std::min<std::size_t>(
        trace.size(), static_cast<std::size_t>(kReplayRequests)));
    Oracle oracle = computeOracle(w, trace);
    if (cfg.corrupt_oracle)
        oracle.checksum[0] ^= 1;
    long attempted = 0, failed = 0;
    const auto check = [&](const pade::ServingReport &rep) {
        attempted += static_cast<long>(trace.size());
        failed += countFailures(trace, oracle, rep);
    };

    // Span-recording overhead: real-clock legs, spans off and on,
    // interleaved with the first leg alternating per pair (always
    // measuring "on" second biases the difference).
    pade::BatcherOptions opt = servingOptions(w, kServeThreads);
    const std::string span_file =
        (std::filesystem::path(cfg.tmpdir) / "servebench-spans.json")
            .string();
    std::vector<double> wall_on, wall_off, round_ms, rounds, kv_bytes,
        active_mean, queue_wait;
    const auto pairs_t0 = Clock::now();
    for (int pair = 0;; pair++) {
        if (pair >= (cfg.smoke ? 1 : 2) &&
            (cfg.smoke || secondsSince(pairs_t0) >= cfg.seconds / 2))
            break;
        for (int leg = 0; leg < 2; leg++) {
            const bool traced = (leg == 0) == (pair % 2 == 1);
            opt.trace_file = traced ? span_file : std::string();
            const pade::ServingReport rep =
                pade::ContinuousBatcher(opt).run(trace);
            check(rep);
            std::filesystem::remove(span_file);
            (traced ? wall_on : wall_off).push_back(rep.wall_ms);
            if (traced)
                continue;
            rounds.push_back(rep.rounds);
            round_ms.push_back(rep.wall_ms / std::max(1, rep.rounds));
            kv_bytes.push_back(rep.kv_bytes_per_token);
            double busy = 0.0;
            for (const pade::SessionStats &s : rep.sessions) {
                busy += s.finish_ms - s.admit_ms;
                queue_wait.push_back(s.admit_ms - s.arrival_ms);
            }
            active_mean.push_back(busy / std::max(rep.makespan_ms, 1e-9));
        }
    }
    opt.trace_file.clear();
    const double round_virtual_ms = median(round_ms);

    // The replay and the 1-worker batcher on one schedule (a fixed
    // virtual round time). Single-core speed on a shared host drifts
    // by 10-35% over seconds to minutes, so batcher runs and replays
    // alternate, and each replay is compared with the mean of the
    // batcher runs just before and just after it.
    pade::BatcherOptions fixed = opt;
    fixed.fixed_round_ms = round_virtual_ms;
    const int pairs = cfg.smoke ? 1 : kAttributionPairs;
    // (wall, model.unit_busy) of one 1-worker batcher run, ns.
    const auto serve_one = [&]() {
        const pade::obs::MetricsSnapshot before =
            pade::obs::Registry::instance().snapshot();
        const pade::ServingReport one =
            pade::ContinuousBatcher(fixed).run(trace);
        const pade::obs::MetricsSnapshot delta =
            pade::obs::MetricsSnapshot::delta(
                before, pade::obs::Registry::instance().snapshot());
        check(one);
        return std::pair<double, double>(
            one.wall_ms * 1e6,
            static_cast<double>(delta.counter("model.unit_busy_us")) * 1e3);
    };
    std::vector<AttributionPair> attr;
    std::pair<double, double> served = serve_one();
    for (int pair = 0; pair < pairs; pair++) {
        Replayer replayer(opt);
        Oracle replayed;
        replayer.run(trace, round_virtual_ms, replayed);
        attempted += static_cast<long>(trace.size());
        for (std::size_t i = 0; i < trace.size(); i++)
            if (replayed.checksum[i] != oracle.checksum[i] ||
                replayed.prefill_checksum[i] != oracle.prefill_checksum[i])
                failed++;
        const std::pair<double, double> after = serve_one();
        attr.push_back(AttributionPair::of(
            0.5 * (served.first + after.first),
            0.5 * (served.second + after.second), replayer.stats));
        served = after;
        std::printf("pair %d: 1-worker batcher wall %.1f ms, replay leaves "
                    "%.1f ms, residual %+.1f%%\n",
                    pair, attr.back().wall_ns / 1e6,
                    replayer.stats.leafNs() / 1e6,
                    100.0 * attr.back().residualFrac());
    }
    // Per-layer figures come from the fastest replay; the attribution
    // from the pair with the median residual.
    const ReplayStats &rs =
        std::min_element(attr.begin(), attr.end(),
                         [](const AttributionPair &x,
                            const AttributionPair &y) {
                             return x.stats.leafNs() < y.stats.leafNs();
                         })
            ->stats;
    double wall_1w_ms = attr[0].wall_ns / 1e6;
    for (const AttributionPair &p : attr)
        wall_1w_ms = std::min(wall_1w_ms, p.wall_ns / 1e6);
    std::vector<const AttributionPair *> by_residual;
    for (const AttributionPair &p : attr)
        by_residual.push_back(&p);
    std::sort(by_residual.begin(), by_residual.end(),
              [](const AttributionPair *x, const AttributionPair *y) {
                  return x->residualFrac() < y->residualFrac();
              });
    const AttributionPair &mid = *by_residual[by_residual.size() / 2];
    fixed.threads = wide;
    const pade::ServingReport all = pade::ContinuousBatcher(fixed).run(trace);
    check(all);

    // Upper layers in lock-step on the trace's first request.
    pade::ThreadPool pool(wide);
    const ProbeResult probe = probeUpperLayers(opt, trace[0], pool);
    attempted++;
    if (!probe.outputs_agree)
        failed++;
    const double fork_join_us = forkJoinUs(pool);
    const double qk_ns = qkNsPerPair();

    const double residual = std::abs(mid.residualFrac());
    const bool attributed = residual <= kAttributionTolerance;
    // Smoke traces are a few requests long, so fixed per-run costs
    // swamp them; the gate applies to full-size runs only.
    if (!cfg.smoke) {
        attempted++;
        if (!attributed)
            failed++;
    }
    std::printf("attribution of the 1-worker batcher wall (%.1f ms; the "
                "pair with the median residual of %d):\n",
                mid.wall_ns / 1e6, pairs);
    const auto row = [&](const char *name, double ns) {
        std::printf("  %-20s %10.2f ms %6.1f%%", name, ns / 1e6,
                    100.0 * ns / mid.wall_ns);
    };
    for (int k = 0; k < kSpanKinds; k++) {
        row(kSpanNames[k], mid.stats.span[k].ns);
        std::printf("  %9llu calls\n",
                    static_cast<unsigned long long>(mid.stats.span[k].calls));
    }
    row("scheduling", mid.sched_ns);
    std::printf("  (wall - model.unit_busy_us - materialize/prefix)\n");
    row("residual", mid.residual_ns);
    std::printf("\n  replay wall %.1f ms; attribution %s (|residual| %s "
                "%.0f%%)%s\n",
                mid.stats.wall_s * 1e3, attributed ? "ok" : "FAILED",
                attributed ? "<=" : ">", 100.0 * kAttributionTolerance,
                cfg.smoke ? ", not gated in smoke mode" : "");

    // Step time at the longest contexts over the shortest (deciles).
    std::vector<std::pair<int, double>> by_ctx = rs.step_ctx_ns;
    std::sort(by_ctx.begin(), by_ctx.end());
    const std::size_t decile = std::max<std::size_t>(1, by_ctx.size() / 10);
    double lo = 0.0, hi = 0.0;
    for (std::size_t i = 0; i < decile && i < by_ctx.size(); i++) {
        lo += by_ctx[i].second;
        hi += by_ctx[by_ctx.size() - 1 - i].second;
    }
    const double ctx_ratio = lo > 0.0 ? hi / lo : 0.0;

    const double step_heads =
        static_cast<double>(rs.step_keys) * kGroup;
    const double ideal_layer_ns = probe.raw_other_ns +
        probe.raw_score_ns / std::min(kKvHeads, wide);
    const auto n = [](const std::vector<double> &v) {
        return static_cast<long>(v.size());
    };
    const long steps = static_cast<long>(rs.span[kStep].calls);
    const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const std::vector<Metric> metrics = {
        {"decode.step_us", "us", rs.span[kStep].perCall() / 1e3, steps},
        {"decode.ns_per_key", "ns",
         frac(rs.span[kStep].ns, static_cast<double>(rs.step_keys)), steps},
        {"qk.ns_per_pair", "ns", qk_ns, 1},
        {"layer.decode_us", "us", probe.layer_decode.perCall() / 1e3,
         static_cast<long>(probe.layer_decode.calls)},
        {"layer.fanout_overhead_frac", "frac",
         std::abs(frac(probe.layer_ns - ideal_layer_ns, probe.layer_ns)), 1},
        {"decode.prefill_us", "us", rs.span[kPrefill].perCall() / 1e3,
         static_cast<long>(rs.span[kPrefill].calls)},
        {"kv.append_ns", "ns", rs.span[kAppend].perCall(),
         static_cast<long>(rs.span[kAppend].calls)},
        {"workload.stage_us", "us", rs.span[kStage].perCall() / 1e3,
         static_cast<long>(rs.span[kStage].calls)},
        {"prefix.acquire_us", "us", rs.span[kAcquire].perCall() / 1e3,
         static_cast<long>(rs.span[kAcquire].calls)},
        {"prefix.publish_us", "us", rs.span[kPublish].perCall() / 1e3,
         static_cast<long>(rs.span[kPublish].calls)},
        {"prefix.adopt_us", "us", rs.span[kAdopt].perCall() / 1e3,
         static_cast<long>(rs.span[kAdopt].calls)},
        {"prefix.hit_frac", "frac",
         frac(static_cast<double>(rs.hit_pages),
              static_cast<double>(rs.chain_pages)),
         static_cast<long>(rs.span[kAcquire].calls)},
        {"decode.keys_per_step", "count",
         frac(static_cast<double>(rs.step_keys), static_cast<double>(steps)),
         steps},
        {"decode.step_ctx_ratio", "ratio", ctx_ratio,
         static_cast<long>(2 * decile)},
        {"kv.evict_us", "us", rs.span[kEvict].perCall() / 1e3,
         static_cast<long>(rs.span[kEvict].calls)},
        {"kv.pages_dropped", "count", static_cast<double>(rs.pages_dropped),
         static_cast<long>(rs.span[kEvict].calls)},
        {"pool.forkjoin_us", "us", fork_join_us, 2000},
        {"model.round_us", "us",
         frac(probe.model_pipe_ns / 1e3, probe.model_rounds),
         probe.model_rounds},
        {"model.pipeline_gain", "ratio",
         frac(probe.model_serial_ns, probe.model_pipe_ns), 1},
        {"batcher.lane_idle_ratio", "frac", all.pipeline_bubble_ratio, 1},
        {"batcher.sched_overhead_frac", "frac",
         std::abs(mid.sched_ns) / mid.wall_ns, 1},
        {"batcher.scale_nt_over_1t", "ratio",
         frac(wall_1w_ms, all.wall_ms), 1},
        {"batcher.queue_wait_p50_ms", "ms", percentile(queue_wait, 50),
         n(queue_wait)},
        {"batcher.active_mean", "count", median(active_mean),
         n(active_mean)},
        {"batcher.rounds", "count", median(rounds), n(rounds)},
        {"batcher.round_ms_mean", "ms", median(round_ms), n(round_ms)},
        {"kv.bytes_per_token", "B", median(kv_bytes), n(kv_bytes)},
        {"decode.plane_frac", "frac",
         frac(static_cast<double>(rs.step_planes), step_heads * kBits),
         steps},
        {"decode.keep_frac", "frac",
         frac(static_cast<double>(rs.step_retained), step_heads), steps},
        {"obs.trace_overhead_frac", "frac",
         std::abs(frac(median(wall_on), median(wall_off)) - 1.0),
         n(wall_on)},
        {"attr.residual_frac", "frac", residual, pairs},
    };
    std::printf("traced run took %.1f s\n", secondsSince(run_t0));
    printManifest();
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace servebench
