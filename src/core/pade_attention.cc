#include "core/pade_attention.h"

#include <algorithm>
#include <cassert>

#include "core/key_scan.h"
#include "runtime/thread_pool.h"

namespace pade {

std::vector<int>
istaScanOrder(int seq_len, int tile, bool head_tail)
{
    std::vector<int> order;
    istaScanOrderInto(seq_len, tile, head_tail, order);
    return order;
}

void
istaScanOrderInto(int seq_len, int tile, bool head_tail,
                  std::vector<int> &out)
{
    assert(tile > 0);
    const int num_tiles = (seq_len + tile - 1) / tile;
    out.clear();
    out.reserve(seq_len);
    const auto pushTile = [&](int t) {
        const int lo = t * tile;
        const int hi = std::min(seq_len, lo + tile);
        for (int j = lo; j < hi; j++)
            out.push_back(j);
    };
    if (!head_tail) {
        for (int t = 0; t < num_tiles; t++)
            pushTile(t);
        return;
    }
    // headTailOrder()'s interleave, walked directly so this path is
    // genuinely allocation-free once `out` has capacity (the decode
    // engine's per-token contract).
    int head = 0;
    int tail = num_tiles - 1;
    bool take_head = true;
    while (head <= tail) {
        pushTile(take_head ? head++ : tail--);
        take_head = !take_head;
    }
}

void
istaScanOrderInto(int seq_len, int tile, bool head_tail,
                  int sink_tokens, int window_start,
                  std::vector<int> &out)
{
    assert(tile > 0);
    const int sink = std::clamp(sink_tokens, 0, seq_len);
    const int win = std::clamp(window_start, 0, seq_len);
    const int num_tiles = (seq_len + tile - 1) / tile;
    // Live tiles form a prefix [0, head_live) — tiles touching the
    // pinned sinks — plus a suffix [tail_live, num_tiles) — tiles
    // touching the recency window. Everything between is dead and the
    // walk below never visits it. When the ranges overlap
    // (tail_live < head_live) every tile is live.
    const int head_live = (sink + tile - 1) / tile;
    const int tail_live = win < seq_len ? win / tile : num_tiles;
    out.clear();
    const auto pushTile = [&](int t) {
        const int lo = t * tile;
        const int hi = std::min(seq_len, lo + tile);
        for (int j = lo; j < hi; j++)
            if (j < sink || j >= win)
                out.push_back(j);
    };
    if (!head_tail) {
        for (int t = 0; t < head_live; t++)
            pushTile(t);
        for (int t = std::max(head_live, tail_live); t < num_tiles; t++)
            pushTile(t);
        return;
    }
    // Same alternating cursor walk as the full order so live tiles
    // appear in identical relative order; dead tiles are skipped, and
    // once both cursors sit in the dead middle nothing further can be
    // emitted.
    int head = 0;
    int tail = num_tiles - 1;
    bool take_head = true;
    while (head <= tail) {
        if (head >= head_live && tail < tail_live)
            break;
        const int t = take_head ? head++ : tail--;
        take_head = !take_head;
        if (t < head_live || t >= tail_live)
            pushTile(t);
    }
}

PadeResult
padeAttention(const QuantizedHead &head, const PadeConfig &cfg,
              PadeWorkspace *ws_in)
{
    const int p = head.q.values.rows();
    const int s = head.k.values.rows();
    const int h = head.v.values.cols();
    const int bits = head.k_planes.numPlanes();
    // Final kernel decision: config request + PADE_QK_KERNEL override
    // + capability clamp (kSimd degrades to kPopcount off-AVX2).
    const QkKernel kernel = resolveQkKernel(cfg.qk_kernel);

    PadeWorkspace local_ws;
    PadeWorkspace &ws = ws_in ? *ws_in : local_ws;

    PadeResult res;
    res.out = MatrixF(p, h);
    res.keep = Matrix<uint8_t>(p, s);
    res.planes = Matrix<uint8_t>(p, s);
    res.retained.resize(p);

    const std::vector<int> order = istaScanOrder(s, cfg.tile_bc,
                                                 cfg.head_tail);

    // Per-(key, plane) work counts are query-independent: build the
    // whole table eagerly (one pass over the packed planes, parallel
    // across keys when the workspace carries a pool) so the per-query
    // loop below is a pure table lookup. A workspace that already
    // holds the table for these exact planes (pointer + revision +
    // GSAT geometry match) skips the rebuild entirely — the reuse the
    // GQA serving path depends on, where heads/kv_heads query heads
    // score one shared plane set back to back.
    const bool table_cached = ws.plane_work_src == &head.k_planes &&
        ws.plane_work_revision == head.k_planes.revision() &&
        ws.plane_work_subgroup == cfg.subgroup &&
        ws.plane_work_muxes == cfg.muxes;
    if (!table_cached) {
        ws.plane_work.resize(static_cast<size_t>(s) * bits);
        auto workRowFor = [&](int key) {
            for (int r = 0; r < bits; r++)
                ws.plane_work[static_cast<size_t>(key) * bits + r] =
                    planeWork(head.k_planes, key, r, cfg.subgroup,
                              cfg.muxes);
        };
        if (ws.pool && ws.pool->threadCount() > 1) {
            parallelFor(*ws.pool, s, workRowFor);
        } else {
            for (int key = 0; key < s; key++)
                workRowFor(key);
        }
        ws.plane_work_src = &head.k_planes;
        ws.plane_work_revision = head.k_planes.revision();
        ws.plane_work_subgroup = cfg.subgroup;
        ws.plane_work_muxes = cfg.muxes;
        ws.plane_work_builds++;
    }

    const MatrixF vf = dequantize(head.v);

    ws.tile_scores.resize(static_cast<size_t>(cfg.tile_bc));
    ScanTally tally;
    int64_t prefix[BuiTable::kMaxPlanes] = {};
    for (int i = 0; i < p; i++) {
        auto q = head.q.values.row(i);
        ws.scorer.assign(kernel, q);
        const BuiTable bui = computeBuiTable(q, bits);
        GuardFilter guard(cfg.alpha, cfg.radius, head.logit_scale);

        // Absolute position of this query for causal masking: queries
        // occupy the last p positions of the key sequence.
        const int qpos = s - p + i;

        ws.retained_scores.clear();
        for (int j : order) {
            if (cfg.causal && j > qpos)
                continue;
            ws.scorer(head.k_planes, j, prefix);
            const KeyScan ks = scanKey(
                prefix, bits, bui, guard, cfg.guard_enabled,
                ws.plane_work.data() + static_cast<size_t>(j) * bits,
                tally);
            res.planes.at(i, j) = static_cast<uint8_t>(ks.planes);
            if (!ks.pruned) {
                res.keep.at(i, j) = 1;
                res.retained[i].push_back(j);
                ws.retained_scores.push_back(ks.score);
            }
        }
        res.stats.threshold_updates += guard.updates();

        // ISTA value stage: online softmax over retained keys, tiled
        // by Bc in retained (scan) order. Retained scores are exact.
        // All buffers live in the workspace — no per-query allocation.
        ws.softmax.reset(h);
        const std::span<const int> ids(res.retained[i]);
        for (size_t base = 0; base < ids.size();
             base += static_cast<size_t>(cfg.tile_bc)) {
            const size_t hi = std::min(
                ids.size(), base + static_cast<size_t>(cfg.tile_bc));
            const size_t n = hi - base;
            for (size_t t = 0; t < n; t++)
                ws.tile_scores[t] = head.logit_scale *
                    static_cast<float>(ws.retained_scores[base + t]);
            ws.softmax.update(
                std::span<const float>(ws.tile_scores).first(n), vf,
                ids.subspan(base, n));
        }
        res.stats.max_updates += ws.softmax.maxUpdates();
        res.stats.rescale_ops += ws.softmax.rescaleOps();
        ws.softmax.finalizeInto(res.out.row(i));
    }
    tally.foldInto(res.stats, bits);
    return res;
}

} // namespace pade
