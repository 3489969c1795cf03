#include "serving/decode_engine.h"

#include "common/check.h"
#include "core/bit_serial.h"
#include "obs/telemetry.h"

namespace pade {

namespace {

// Per-step decode telemetry: pruning effectiveness and kernel
// dispatch mix (docs/OBSERVABILITY.md). References cached once; the
// recording cost is a handful of relaxed adds per *step*, never per
// key.
struct DecodeMetrics
{
    obs::Counter &steps;
    obs::Counter &keys_scanned;
    obs::Counter &keys_retained;
    obs::Counter &planes_consumed;
    obs::Counter &planes_total;
    obs::Counter &dispatch_scalar;
    obs::Counter &dispatch_popcount;
    obs::Counter &dispatch_simd;

    static DecodeMetrics &
    get()
    {
        static DecodeMetrics m{
            obs::Registry::instance().counter("decode.steps"),
            obs::Registry::instance().counter("decode.keys_scanned"),
            obs::Registry::instance().counter("decode.keys_retained"),
            obs::Registry::instance().counter(
                "decode.planes_consumed"),
            obs::Registry::instance().counter("decode.planes_total"),
            obs::Registry::instance().counter("qk.dispatch_scalar"),
            obs::Registry::instance().counter("qk.dispatch_popcount"),
            obs::Registry::instance().counter("qk.dispatch_simd"),
        };
        return m;
    }
};

} // namespace

DecodeEngine::DecodeEngine(PadeConfig cfg, RetentionPolicy retention)
    : cfg_(cfg), retention_(retention)
{
    PADE_CHECK_GE(retention_.sink_tokens, 0);
    PADE_CHECK_GE(retention_.recency_tokens, 0);
}

DecodeStep
DecodeEngine::step(const KvCache &cache, std::span<const int8_t> q,
                   float logit_scale, std::span<float> out)
{
    qs_.assign(1, q);
    outs_.assign(1, out);
    // A decode query sits at the stream tail: it sees every cached
    // token, and the scan order spans exactly the cache.
    return runGroup(cache, cache.size() - 1, cache.size(),
                    logit_scale);
}

DecodeStep
DecodeEngine::stepGroup(const KvCache &cache, const MatrixI8 &q,
                        int q_row0, int group, float logit_scale,
                        MatrixF &out, int out_row0)
{
    PADE_CHECK_GE(group, 1);
    qs_.resize(static_cast<std::size_t>(group));
    outs_.resize(static_cast<std::size_t>(group));
    for (int g = 0; g < group; g++) {
        qs_[static_cast<std::size_t>(g)] = q.row(q_row0 + g);
        outs_[static_cast<std::size_t>(g)] = out.row(out_row0 + g);
    }
    return runGroup(cache, cache.size() - 1, cache.size(),
                    logit_scale);
}

DecodeStep
DecodeEngine::prefillGroup(const KvCache &cache, const MatrixI8 &q,
                           int q_row0, int group, int qpos,
                           int prompt_len, float logit_scale,
                           MatrixF &out, int out_row0)
{
    PADE_CHECK_GE(group, 1);
    PADE_CHECK_GE(qpos, 0);
    PADE_CHECK_LT(qpos, prompt_len);
    // The chunk containing qpos must already be appended; later
    // prompt tokens may or may not be — the causal skip masks both
    // the not-yet-cached tail and the in-cache tokens past qpos.
    PADE_CHECK_GT(cache.size(), qpos);
    qs_.resize(static_cast<std::size_t>(group));
    outs_.resize(static_cast<std::size_t>(group));
    for (int g = 0; g < group; g++) {
        qs_[static_cast<std::size_t>(g)] = q.row(q_row0 + g);
        outs_[static_cast<std::size_t>(g)] = out.row(out_row0 + g);
    }
    return runGroup(cache, qpos, prompt_len, logit_scale);
}

DecodeStep
DecodeEngine::runGroup(const KvCache &cache, int qpos, int order_len,
                       float logit_scale)
{
    const KvCacheConfig &kc = cache.config();
    const int h = kc.head_dim;
    const int bits = kc.bits;
    const int g = static_cast<int>(qs_.size());
    for (const auto &q : qs_)
        PADE_CHECK_EQ(static_cast<int>(q.size()), h);
    for (const auto &o : outs_)
        PADE_CHECK_EQ(static_cast<int>(o.size()), h);
    // The cached PlaneWork entries were computed with the cache's GSAT
    // geometry; the stats are only comparable to padeAttention when
    // the algorithm config agrees.
    PADE_CHECK_EQ(cfg_.subgroup, kc.subgroup);
    PADE_CHECK_EQ(cfg_.muxes, kc.muxes);

    // Same per-call dispatch decision as padeAttention: config request
    // + PADE_QK_KERNEL override + capability clamp.
    const QkKernel kernel = resolveQkKernel(cfg_.qk_kernel);
    if constexpr (obs::kTelemetryEnabled) {
        DecodeMetrics &m = DecodeMetrics::get();
        m.steps.add(1);
        (kernel == QkKernel::kSimd         ? m.dispatch_simd
             : kernel == QkKernel::kPopcount ? m.dispatch_popcount
                                             : m.dispatch_scalar)
            .add(1);
    }

    // Stage per-head query state once per step. Everything below the
    // key loop reads it; nothing rebuilds per key.
    if (static_cast<int>(heads_.size()) < g)
        heads_.resize(static_cast<std::size_t>(g));
    group_ = g;
    for (int gi = 0; gi < g; gi++) {
        HeadState &hs = heads_[static_cast<std::size_t>(gi)];
        hs.scorer.assign(kernel, qs_[static_cast<std::size_t>(gi)]);
        hs.bui = computeBuiTable(qs_[static_cast<std::size_t>(gi)],
                                 bits);
        hs.guard = GuardFilter(cfg_.alpha, cfg_.radius, logit_scale);
        hs.retained.clear();
        hs.retained_scores.clear();
    }

    const bool windowed = retention_.enabled();
    // The retention window is relative to the stream AS THE QUERY
    // SEES IT — tokens 0..qpos — not to the append frontier. During
    // chunked prefill the cache may already hold tokens past qpos;
    // anchoring the recency window at qpos + 1 keeps prefill outputs
    // independent of the chunking (and for decode, qpos + 1 == s).
    const int stream_len = qpos + 1;

    // Scan order + planes/keep scratch. Full-history engines pay the
    // O(order_len) order walk and scratch memset a batch padeAttention
    // call would pay. Retention-windowed engines generate only the
    // live subsequence (sink + recency, bit-identical to walking the
    // full order with the per-key window skip) and, instead of
    // clearing whole planes/keep spans, undo only the entries their
    // own previous step could have written — every write lands inside
    // that step's scan order, recorded in HeadState::touched — so the
    // whole step is O(window), not O(context). The buffers stay
    // full-length (grow-only, zero-filled) to preserve the
    // lastPlanes()/lastKeep() contract that untouched tokens read 0.
    if (!windowed) {
        for (int gi = 0; gi < g; gi++) {
            HeadState &hs = heads_[static_cast<std::size_t>(gi)];
            hs.planes.assign(static_cast<std::size_t>(order_len), 0);
            hs.keep.assign(static_cast<std::size_t>(order_len), 0);
        }
        istaScanOrderInto(order_len, cfg_.tile_bc, cfg_.head_tail,
                          order_);
    } else {
        for (int gi = 0; gi < g; gi++) {
            HeadState &hs = heads_[static_cast<std::size_t>(gi)];
            for (int j : hs.touched) {
                const auto sj = static_cast<std::size_t>(j);
                if (sj < hs.planes.size()) {
                    hs.planes[sj] = 0;
                    hs.keep[sj] = 0;
                }
            }
            if (static_cast<int>(hs.planes.size()) < order_len) {
                hs.planes.resize(static_cast<std::size_t>(order_len),
                                 0);
                hs.keep.resize(static_cast<std::size_t>(order_len),
                               0);
            }
        }
        istaScanOrderInto(order_len, cfg_.tile_bc, cfg_.head_tail,
                          retention_.sink_tokens,
                          retention_.horizon(stream_len), order_);
        // Conservative write-set: the scan below only writes at
        // positions of order_ (causal/evicted skips leave zeros, and
        // re-clearing a zero is harmless).
        for (int gi = 0; gi < g; gi++)
            heads_[static_cast<std::size_t>(gi)].touched.assign(
                order_.begin(), order_.end());
    }

    DecodeStep res;
    ScanTally tally;
    int64_t prefix[BuiTable::kMaxPlanes] = {};

    // The padeAttention inner loop, key-outer / query-head-inner: the
    // (page, row) mapping, the packed plane row, and the cached
    // PlaneWork entries are KV-head state — resolved once per key and
    // reused by every query head of the group. Skips (causal,
    // evicted) happen before any stats, exactly like padeAttention's
    // causal skip; the retention window needs no skip here because a
    // windowed order_ already excludes dead-middle keys.
    for (int j : order_) {
        if (j > qpos)
            continue; // causal / not yet prefilled
        if (!cache.pageLive(cache.pageOf(j)))
            continue; // front-dropped or middle-reclaimed pages
        const int page = cache.pageOf(j);
        const int local = cache.rowOf(j);
        const BitPlaneSet &kp = cache.pagePlanes(page);
        const PlaneWork *wrow = cache.pageWork(page).data() +
            static_cast<std::size_t>(local) * bits;
        res.keys++;

        for (int gi = 0; gi < g; gi++) {
            HeadState &hs = heads_[static_cast<std::size_t>(gi)];
            hs.scorer(kp, local, prefix);
            const KeyScan ks =
                scanKey(prefix, bits, hs.bui, hs.guard,
                        cfg_.guard_enabled, wrow, tally);
            hs.planes[static_cast<std::size_t>(j)] =
                static_cast<uint8_t>(ks.planes);
            if (!ks.pruned) {
                hs.keep[static_cast<std::size_t>(j)] = 1;
                hs.retained.push_back(j);
                hs.retained_scores.push_back(ks.score);
            }
        }
    }
    tally.foldInto(stats_, bits);
    for (int gi = 0; gi < g; gi++)
        stats_.threshold_updates +=
            heads_[static_cast<std::size_t>(gi)].guard.updates();
    res.retained = static_cast<int>(tally.retained);
    res.planes = tally.planes;
    if constexpr (obs::kTelemetryEnabled) {
        DecodeMetrics &m = DecodeMetrics::get();
        // Per-query-head totals, matching PruneStats semantics: the
        // prune ratio is 1 - planes_consumed / planes_total and the
        // retention ratio keys_retained / keys_scanned, both
        // recoverable from any snapshot delta.
        m.keys_scanned.add(tally.keys);
        m.keys_retained.add(tally.retained);
        m.planes_consumed.add(tally.planes);
        m.planes_total.add(tally.keys * static_cast<uint64_t>(bits));
    }

    // ISTA value stage per head, tiled by Bc in scan order — the
    // identical float sequence to padeAttention's
    // update(scores, vf, ids) path, with value rows gathered from the
    // cache pages instead of one contiguous matrix. Heads run
    // sequentially through the one shared accumulator; reset() re-arms
    // it without allocation.
    tile_scores_.resize(static_cast<std::size_t>(cfg_.tile_bc));
    for (int gi = 0; gi < g; gi++) {
        HeadState &hs = heads_[static_cast<std::size_t>(gi)];
        softmax_.reset(h);
        for (std::size_t base = 0; base < hs.retained.size();
             base += static_cast<std::size_t>(cfg_.tile_bc)) {
            const std::size_t hi = std::min(
                hs.retained.size(),
                base + static_cast<std::size_t>(cfg_.tile_bc));
            const std::size_t n = hi - base;
            tile_rows_.resize(n);
            for (std::size_t t = 0; t < n; t++) {
                tile_scores_[t] = logit_scale *
                    static_cast<float>(
                        hs.retained_scores[base + t]);
                tile_rows_[t] =
                    cache.valueRow(hs.retained[base + t]);
            }
            softmax_.update(
                std::span<const float>(tile_scores_).first(n),
                tile_rows_);
        }
        stats_.max_updates += softmax_.maxUpdates();
        stats_.rescale_ops += softmax_.rescaleOps();
        softmax_.finalizeInto(outs_[static_cast<std::size_t>(gi)]);
    }
    return res;
}

} // namespace pade
