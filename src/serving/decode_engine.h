/**
 * @file
 * Incremental PADE attention over a paged KV cache — single-query,
 * grouped-query (GQA), and scored chunked-prefill execution.
 *
 * One DecodeEngine owns the reusable state of one KV-head stream
 * (packed query planes, online-softmax accumulator, scan-order /
 * retained-id buffers, per-query-head scratch) and runs the exact
 * `padeAttention` algorithm — BSF plane streaming, BUI-GF guarded
 * termination, ISTA stage-fused softmax·V — against the tokens of a
 * `KvCache`.
 *
 * Three entry points share one inner loop:
 *
 *  - step(): one query row attends over every cached token (the PR 4
 *    decode contract, unchanged);
 *  - stepGroup(): a block of heads/kv_heads grouped query rows
 *    attends over the ONE shared cache of their KV head. The scan is
 *    key-outer / query-head-inner, so the per-key page lookup, packed
 *    plane row, and cached PlaneWork entries are fetched once and
 *    reused across the whole group — the per-token plane table is a
 *    KV-head property, never re-derived per query head;
 *  - prefillGroup(): the grouped rows are *prompt* positions. The key
 *    scan runs over the ISTA order of the FULL prompt length with a
 *    causal skip at the query position, so chunk-by-chunk prefill
 *    visits, retains, and tiles keys in exactly the order a
 *    whole-prompt causal `padeAttention` call would.
 *
 * Exactness contracts (enforced by tests/test_serving.cc and
 * tests/test_layer_engine.cc for kScalar / kPopcount / kSimd):
 *
 *  - step() over a cache holding rows 0..S-1 produces the same output
 *    row, keep mask, planes-consumed trace, retained-id list, and
 *    PruneStats deltas, bit for bit, as a from-scratch pack + batch
 *    `padeAttention` call with a single query;
 *  - stepGroup() is bit-identical, per query head, to running step()
 *    for that head against its own private copy of the cache — the
 *    grouped loop shares lookups, never arithmetic state;
 *  - prefillGroup() across any chunking is bit-identical, per query
 *    head, to one whole-prompt `padeAttention` call with
 *    `cfg.causal = true`.
 *
 * The kernel seam is the same as batch attention:
 * `PadeConfig::qk_kernel` is resolved through `resolveQkKernel()`
 * every step, so kScalar / kPopcount / kSimd (and the PADE_QK_KERNEL
 * override) all apply unchanged. Per (key, query head) the scan makes
 * ONE scoring call that returns every prefix score
 * S^r = sum_{p<=r} w_p * maskedSum(kplane_p), r < bits — a single
 * AVX-512 VPOPCNTDQ (or AVX2) kernel under kSimd — and the BUI-GF
 * guard then walks that array inline (core/key_scan.h), the same
 * helper padeAttention's key loop runs. Pruning statistics stay in
 * locals during the scan and are folded into stats() once per step.
 *
 * Complexity: a full-history step is O(context) (every cached token
 * is scanned). A retention-windowed step is O(sink + recency) —
 * independent of context length — because both the scan order and
 * the scratch-clearing are generated over the live window only (see
 * RetentionPolicy below); us/token stays flat as the stream grows.
 */

#ifndef PADE_SERVING_DECODE_ENGINE_H
#define PADE_SERVING_DECODE_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "attention/online_softmax.h"
#include "common/check.h"
#include "core/bui.h"
#include "core/guard_filter.h"
#include "core/key_scan.h"
#include "core/pade_attention.h"
#include "serving/kv_cache.h"
#include "tensor/matrix.h"

namespace pade {

/**
 * StreamingLLM-style sink + recency retention window.
 *
 * When active (recency_tokens > 0), a decode scan only visits tokens
 * inside the retained window — the first `sink_tokens` positions (the
 * attention sinks StreamingLLM keeps alive) plus the trailing
 * `recency_tokens` positions — and `applyRetention()` reclaims KV
 * pages that fall wholly outside it. Retained-window decode over an
 * un-evicted cache is bit-identical to full-history decode whenever
 * the window covers the whole history (the no-eviction parity test).
 *
 * Page reclamation only happens from the front of the stream
 * (KvCache::dropPagesBefore), so memory is actually returned when
 * sink_tokens tokens fit inside pages that also hold live recency
 * tokens — in practice, when sink_tokens == 0 (pure sliding window)
 * or the stream is short. With sinks pinned in page 0, the policy
 * still skips the dead middle's *scoring* — the plane deltas, guard
 * checks, and PlaneWork accounting that dominate per-token cost.
 *
 * Iteration is windowed too: when the policy is active, each step
 * generates only the live subsequence of the ISTA scan order (the
 * sink/recency overload of istaScanOrderInto()) and clears only the
 * scratch entries its previous step wrote, so per-token cost is
 * O(sink + recency) regardless of context length — the dead middle
 * costs nothing, not even a skip test or memset. The windowed order
 * is the exact subsequence the full order's per-key window skip
 * would visit, so outputs stay bit-identical to full-order decode,
 * and bit-identical to an UN-windowed engine whenever the window
 * covers the whole stream (the no-eviction parity test).
 */
struct RetentionPolicy
{
    int sink_tokens = 0;    //!< head-of-stream tokens always kept
    int recency_tokens = 0; //!< trailing window; 0 disables the policy

    bool enabled() const { return recency_tokens > 0; }

    /** True when token @p token of a @p size -token stream is kept. */
    bool
    keeps(int token, int size) const
    {
        return token < sink_tokens || token >= size - recency_tokens;
    }

    /** First token of the recency window (eviction horizon). */
    int
    horizon(int size) const
    {
        return std::max(0, size - recency_tokens);
    }

    /**
     * Tokens strictly below this bound are dead AND unpinned: pages
     * before it may be dropped. 0 (nothing evictable) whenever sink
     * tokens pin the head of the stream.
     */
    int
    evictableBefore(int size) const
    {
        return sink_tokens > 0 ? 0 : horizon(size);
    }
};

/** Per-step accounting returned by the decode/prefill entry points. */
struct DecodeStep
{
    int keys = 0;        //!< tokens scanned per query head this step
    int retained = 0;    //!< retentions summed over the group's heads
    uint64_t planes = 0; //!< bit planes consumed this step (group sum)
};

/**
 * Reusable incremental decoder for one KV-head stream and the query
 * heads grouped onto it.
 */
class DecodeEngine
{
  public:
    explicit DecodeEngine(PadeConfig cfg = {},
                          RetentionPolicy retention = {});

    const PadeConfig &config() const { return cfg_; }
    const RetentionPolicy &retention() const { return retention_; }

    /**
     * Run one guarded decode step: the query @p q (int8, head_dim
     * values) attends over every cached token; the attention output
     * lands in @p out (head_dim floats).
     *
     * @param logit_scale integer-score -> logit factor
     *        (sQ * sK / sqrt(H), QuantizedHead::logit_scale)
     */
    DecodeStep step(const KvCache &cache, std::span<const int8_t> q,
                    float logit_scale, std::span<float> out);

    /**
     * Grouped-query decode: rows q_row0 .. q_row0+group-1 of @p q are
     * the group's query heads (all sharing this engine's KV head);
     * each attends over every cached token, writing output rows
     * out_row0 .. out_row0+group-1 of @p out. Per head, bit-identical
     * to step() against a private copy of the cache.
     */
    DecodeStep stepGroup(const KvCache &cache, const MatrixI8 &q,
                         int q_row0, int group, float logit_scale,
                         MatrixF &out, int out_row0);

    /**
     * Scored chunked prefill of one prompt position: the group's
     * query rows sit at absolute position @p qpos of a @p prompt_len
     * -token prompt whose tokens up to at least qpos are already in
     * the cache. Keys are visited in the ISTA order of the FULL
     * prompt with a causal skip past qpos, so any chunking reproduces
     * the whole-prompt causal padeAttention result bit for bit.
     */
    DecodeStep prefillGroup(const KvCache &cache, const MatrixI8 &q,
                            int q_row0, int group, int qpos,
                            int prompt_len, float logit_scale,
                            MatrixF &out, int out_row0);

    /**
     * Reclaim cache pages the retention policy has aged out (no-op
     * when the policy is disabled). Sink-free windows free from the
     * stream front; sink-pinned streams free the dead *middle* —
     * whole pages lying strictly between the pinned sink tokens and
     * the recency horizon — via KvCache::dropPagesIn, so retention
     * actually returns memory even when page 0 must stay resident.
     */
    void
    applyRetention(KvCache &cache) const
    {
        if (!retention_.enabled())
            return;
        const int size = cache.size();
        cache.dropPagesBefore(retention_.evictableBefore(size));
        // Dead middle exists only once the recency horizon has moved
        // past the pinned sinks (early in a stream it hasn't).
        if (retention_.sink_tokens > 0 &&
            retention_.horizon(size) > retention_.sink_tokens)
            cache.dropPagesIn(retention_.sink_tokens,
                              retention_.horizon(size));
    }

    /** Pruning statistics accumulated across all steps (group sums). */
    const PruneStats &stats() const { return stats_; }

    /** Query heads of the last step (1 for step()). */
    int lastGroup() const { return group_; }

    /** Retained token ids of head @p g last step, in scan order. */
    std::span<const int>
    lastRetained(int g = 0) const
    {
        return headRef(g).retained;
    }
    /** Planes consumed per token by head @p g last step: value r
     *  means planes 0..r-1 were consumed before retention/pruning;
     *  0 means the token was never visited (causally masked, outside
     *  the retention window, or evicted) — matching padeAttention's
     *  PadeResult::planes row. */
    std::span<const uint8_t>
    lastPlanes(int g = 0) const
    {
        return headRef(g).planes;
    }
    /** Keep mask of head @p g last step (1 = retained). */
    std::span<const uint8_t>
    lastKeep(int g = 0) const
    {
        return headRef(g).keep;
    }

  private:
    /** Per-query-head scratch, persistent across steps (grow-only). */
    struct HeadState
    {
        PrefixScorer scorer;
        BuiTable bui;
        GuardFilter guard{1.0, 0.0, 1.0};
        std::vector<int> retained;
        std::vector<int64_t> retained_scores;
        std::vector<uint8_t> planes;
        std::vector<uint8_t> keep;
        /** Positions the last windowed step may have written into
         *  planes/keep — what the next step must undo instead of a
         *  full-length clear (unused by full-history engines, which
         *  re-assign the whole span). */
        std::vector<int> touched;
    };

    const HeadState &
    headRef(int g) const
    {
        PADE_DCHECK(g >= 0 && g < group_);
        return heads_[static_cast<std::size_t>(g)];
    }

    /**
     * Shared inner loop: the queries staged in qs_ attend over cached
     * tokens j <= qpos, visited in istaScanOrder(order_len) order,
     * writing the rows staged in outs_.
     */
    DecodeStep runGroup(const KvCache &cache, int qpos, int order_len,
                        float logit_scale);

    PadeConfig cfg_;
    RetentionPolicy retention_;
    PruneStats stats_;
    int group_ = 0; //!< heads of the last step

    // Reusable buffers: after the first step at a given context
    // length and group size, the scan path allocates nothing.
    std::vector<std::span<const int8_t>> qs_;
    std::vector<std::span<float>> outs_;
    std::vector<HeadState> heads_;
    OnlineSoftmaxRow softmax_{0};
    std::vector<int> order_;
    std::vector<float> tile_scores_;
    std::vector<std::span<const float>> tile_rows_;
};

} // namespace pade

#endif // PADE_SERVING_DECODE_ENGINE_H
