/**
 * @file
 * The fused per-key guard loop shared by batch attention
 * (padeAttention) and the serving engine (DecodeEngine's decode and
 * prefill scans).
 *
 * PADE's bit-serial stage fusion scores a key MSB plane first, and
 * BUI-GF stops the key once its upper bound falls under the running
 * threshold. Here one PrefixScorer call per (key, query row) returns
 * every prefix score S^r = sum_{p<=r} w_p * maskedSum(kplane_p),
 * r < bits (qk_dispatch.h); scanKey() then walks that array — fold
 * the lower bound into the threshold, test the upper bound — with no
 * further calls. The PruneStats terms stay in a caller-local
 * ScanTally that is folded into the stats once per call.
 *
 * The kernel computes all planes even when the guard stops early: the
 * spare planes cost less than a call per plane, and the result is
 * bit-identical — the guard reads only S^0 .. S^r of a key pruned
 * after plane r, the same values a plane-by-plane loop computes.
 */

#ifndef PADE_CORE_KEY_SCAN_H
#define PADE_CORE_KEY_SCAN_H

#include <cstdint>
#include <span>

#include "core/bit_serial.h"
#include "core/bui.h"
#include "core/guard_filter.h"
#include "core/simd/qk_avx2.h"
#include "core/simd/qk_dispatch.h"
#include "quant/bitplane.h"

namespace pade {

/** Aggregate pruning / work statistics of one head execution. */
struct PruneStats
{
    uint64_t planes_processed = 0; //!< bit planes actually consumed
    uint64_t planes_total = 0;     //!< P * S_valid * bits (dense)
    uint64_t keys_retained = 0;
    uint64_t keys_total = 0;       //!< P * S_valid
    uint64_t ops_bs = 0;           //!< selected elements with BS
    uint64_t ops_naive = 0;        //!< ones-only selected elements
    uint64_t max_updates = 0;      //!< online-softmax max updates
    uint64_t rescale_ops = 0;      //!< rescale multiply-adds
    uint64_t threshold_updates = 0;

    /** Accumulate another execution's counters (all fields add). */
    PruneStats &
    operator+=(const PruneStats &o)
    {
        planes_processed += o.planes_processed;
        planes_total += o.planes_total;
        keys_retained += o.keys_retained;
        keys_total += o.keys_total;
        ops_bs += o.ops_bs;
        ops_naive += o.ops_naive;
        max_updates += o.max_updates;
        rescale_ops += o.rescale_ops;
        threshold_updates += o.threshold_updates;
        return *this;
    }

    double
    avgPlanesPerKey() const
    {
        return keys_total ? static_cast<double>(planes_processed) /
            keys_total : 0.0;
    }
    double
    keepRate() const
    {
        return keys_total ? static_cast<double>(keys_retained) /
            keys_total : 0.0;
    }
    /** Fraction of dense bit-plane work eliminated. */
    double
    planeReduction() const
    {
        return planes_total ? 1.0 -
            static_cast<double>(planes_processed) / planes_total : 0.0;
    }
};

/**
 * One query row staged for one resolved kernel. operator() fills a
 * key's prefix scores with a single call: the AVX-512 or AVX2 kernel
 * under kSimd, a loop over the planes under kPopcount and kScalar.
 * Owns the packed query planes; assign() reuses their storage.
 */
class PrefixScorer
{
  public:
    /**
     * Stage query row @p q for @p kernel, a resolveQkKernel() result
     * (so kSimd is known to be available). kScalar reads @p q itself:
     * it must outlive the scoring calls.
     */
    void
    assign(QkKernel kernel, std::span<const int8_t> q)
    {
        kernel_ = kernel;
        q_ = q;
        if (kernel == QkKernel::kScalar) {
            simd_ = nullptr;
            return;
        }
        planes_.assign(q);
        simd_ = kernel == QkKernel::kSimd ? simdPrefixScoresKernel()
                                          : nullptr;
        // The AVX-512 kernel reads only the planes; skip building the
        // byte mirror the AVX2 value-domain kernel needs.
        if (simd_)
            view_ = qkAvx512Available() ? planes_.planeView()
                                        : planes_.simdView();
    }

    /** prefix[r] = S^r of row @p row of @p keys, r < numPlanes(). */
    void
    operator()(const BitPlaneSet &keys, int row, int64_t *prefix) const
    {
        if (simd_)
            simd_(view_, keys.rowPlanes(row).data(), keys.planeStride(),
                  keys.numPlanes(), keys.wordsPerPlane(), prefix);
        else if (kernel_ == QkKernel::kPopcount)
            prefixScores(planes_, keys, row, prefix);
        else
            prefixScoresScalar(q_, keys, row, prefix);
    }

  private:
    QkKernel kernel_ = QkKernel::kScalar;
    std::span<const int8_t> q_;
    QueryPlanes planes_;
    PrefixScoresFn simd_ = nullptr;
    simd::QPlaneView view_{};
};

/** The guard's verdict on one key (see scanKey). */
struct KeyScan
{
    int64_t score = 0; //!< S^{planes-1}; the exact score if retained
    int planes = 0;    //!< planes consumed, 1 .. bits
    bool pruned = false;
};

/** PruneStats terms of a scan, kept in locals until foldInto(). */
struct ScanTally
{
    uint64_t keys = 0;
    uint64_t planes = 0;
    uint64_t retained = 0;
    uint64_t ops_bs = 0;
    uint64_t ops_naive = 0;

    /** Add the tally to @p stats; every key is @p bits planes deep. */
    void
    foldInto(PruneStats &stats, int bits) const
    {
        stats.keys_total += keys;
        stats.planes_total += keys * static_cast<uint64_t>(bits);
        stats.planes_processed += planes;
        stats.keys_retained += retained;
        stats.ops_bs += ops_bs;
        stats.ops_naive += ops_naive;
    }
};

/**
 * Run the BUI-GF guard over one key's prefix scores, MSB plane first:
 * after plane r, fold S^r + I^{r,min} into the threshold, and (when
 * @p guard_enabled) prune the key once S^r + I^{r,max} falls under
 * it. @p work is the key's PlaneWork row (bits entries); the planes
 * consumed add their operation counts to @p tally.
 */
inline KeyScan
scanKey(const int64_t *prefix, int bits, const BuiTable &bui,
        GuardFilter &guard, bool guard_enabled, const PlaneWork *work,
        ScanTally &tally)
{
    // Locals, not the caller's objects, inside the loop: stores to
    // the tally's counters could otherwise alias the guard's state
    // and force a reload of it on every plane.
    GuardFilter g = guard;
    uint64_t ops_bs = 0;
    uint64_t ops_naive = 0;
    KeyScan ks{prefix[bits - 1], bits, false};
    for (int r = 0; r < bits; r++) {
        ops_bs += static_cast<uint64_t>(work[r].selected_bs);
        ops_naive += static_cast<uint64_t>(work[r].selected_naive);
        g.observe(prefix[r] + bui.lower(r));
        if (guard_enabled && g.shouldPrune(prefix[r] + bui.upper(r))) {
            ks = {prefix[r], r + 1, true};
            break;
        }
    }
    guard = g;
    tally.keys++;
    tally.planes += static_cast<uint64_t>(ks.planes);
    tally.retained += ks.pruned ? 0 : 1;
    tally.ops_bs += ops_bs;
    tally.ops_naive += ops_naive;
    return ks;
}

} // namespace pade

#endif // PADE_CORE_KEY_SCAN_H
