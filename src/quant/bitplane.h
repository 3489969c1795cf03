/**
 * @file
 * Two's-complement bit-plane decomposition of integer Key matrices.
 *
 * PADE's bit-serial stage fusion (BSF) streams the Key matrix MSB-plane
 * first: plane r of a p-bit value b_{p-1}..b_0 holds bit (p-1-r) of every
 * element, so plane 0 is the sign plane with weight -2^{p-1} and plane r>0
 * has weight +2^{p-1-r}. Because every non-sign bit contributes a
 * non-negative amount, knowing planes 0..r bounds the remaining magnitude
 * by M_r = 2^{p-1-r} - 1 per element — the property the BUI (bit-wise
 * uncertainty interval) exploits.
 *
 * Planes are stored packed (64 bits/word) per (row, plane) with cached
 * popcounts, matching the accelerator's K-SRAM layout in which one SRAM
 * row holds the same bit plane across the hidden dimension (paper
 * Fig. 22).
 *
 * Storage contract shared by BitPlaneSet and QueryPlanes (what the
 * AVX2 backend in src/core/simd/ relies on): every plane row starts
 * on a 32-byte boundary (rows are kPlaneAlignWords words apart and
 * the backing store is 32-byte aligned), and the padding words
 * between the logical row length (wordsPerPlane()) and the aligned
 * stride are zero. Bits past the column count within the last logical
 * word are zero as well. plane() spans still cover exactly
 * wordsPerPlane() words, so word-walking consumers are unaffected by
 * the padding.
 */

#ifndef PADE_QUANT_BITPLANE_H
#define PADE_QUANT_BITPLANE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "tensor/matrix.h"

namespace pade {

namespace simd {
struct QPlaneView;
}

/** Plane rows start this many words apart (32 bytes: one YMM load). */
inline constexpr int kPlaneAlignWords = 4;

/** Round a word count up to the aligned plane stride. */
constexpr int
planeStrideWords(int words)
{
    return (words + kPlaneAlignWords - 1) / kPlaneAlignWords *
        kPlaneAlignWords;
}

/** Backing store of packed planes: 32-byte aligned uint64 words. */
using PlaneStore = std::vector<uint64_t, AlignedAllocator<uint64_t, 32>>;

/**
 * Packed bit planes of an integer matrix (rows = keys/tokens).
 */
class BitPlaneSet
{
  public:
    /**
     * Decompose @p m into @p bits planes (MSB first).
     *
     * @param m int8 matrix; for bits < 8, all values must fit the range.
     * @param bits total bit-width p in [2, 8].
     */
    explicit BitPlaneSet(const MatrixI8 &m, int bits = 8);

    /**
     * Empty set over @p cols columns, ready for incremental
     * appendToken() growth (the KV-cache construction path). When
     * @p capacity_rows > 0 the backing store is reserved up front, so
     * appends up to that capacity never reallocate — the fixed-page
     * contract src/serving/kv_cache.h builds on.
     */
    BitPlaneSet(int cols, int bits, int capacity_rows);

    /**
     * Append one token's @p row as a new bottom row, packing only that
     * row's bits: O(bits * cols) work, independent of the rows already
     * stored. Rows packed this way are bit-identical (plane words,
     * popcounts, padding) to the same rows packed by the matrix
     * constructor — the invariant the incremental-decode parity tests
     * enforce. @p row must hold exactly numCols() values in the
     * bit-width's range.
     */
    void appendToken(std::span<const int8_t> row);

    int numRows() const { return rows_; }
    int numCols() const { return cols_; }
    int numPlanes() const { return bits_; }
    int wordsPerPlane() const { return words_; }
    /** Allocated words between consecutive plane rows (32B multiple). */
    int planeStride() const { return stride_; }

    /**
     * Content identity token for derived-table caches. Drawn from a
     * process-wide counter at construction and advanced by every
     * appendToken(), so no two distinct contents ever share a
     * (pointer, revision) pair — even when a new set is allocated at
     * a freed set's address. PadeWorkspace keys its query-independent
     * PlaneWork table on this to skip the per-call rebuild when the
     * same planes are scored again (the GQA case: every query head of
     * a group scores the one shared KV-head plane set).
     */
    uint64_t revision() const { return revision_; }

    /**
     * All @c numPlanes() planes of @p row as one contiguous block:
     * plane r starts at offset r * planeStride(). This is the view
     * the fused SIMD dot kernel consumes (partialDotSimd/
     * exactDotSimd); the alignment/zero-padding contract of plane()
     * applies to every row in the block.
     */
    std::span<const uint64_t> rowPlanes(int row) const;

    /** Signed weight of plane @p r: -2^{p-1} for r=0, else 2^{p-1-r}. */
    int planeWeight(int r) const;

    /**
     * Remaining-magnitude constant after planes 0..r are known:
     * M_r = 2^{p-1-r} - 1 (0 once every plane is processed).
     */
    int remainingMagnitude(int r) const;

    /** Bit of element (row, col) on plane r. */
    bool bit(int row, int r, int col) const;

    /**
     * Packed words of plane r of @p row. The data pointer is 32-byte
     * aligned and the words from .size() up to the aligned stride are
     * readable and zero (see the storage contract in the file
     * comment).
     */
    std::span<const uint64_t> plane(int row, int r) const;

    /** Cached popcount of plane r of @p row. */
    int popcount(int row, int r) const;

    /**
     * Partial reconstruction of element (row, col) using planes 0..r
     * with all unknown bits set to zero (the conservative value S^r
     * builds on).
     */
    int reconstruct(int row, int col, int r) const;

    /** Bytes of one plane of one row as stored in DRAM (ceil(H/8)). */
    int planeBytes() const { return (cols_ + 7) / 8; }

  private:
    std::size_t
    planeIndex(int row, int r) const
    {
        return (static_cast<std::size_t>(row) * bits_ + r) * stride_;
    }

    /** Next unused revision token (see revision()). */
    static uint64_t nextRevision();

    int rows_ = 0;
    int cols_ = 0;
    int bits_ = 8;
    int words_ = 0;  //!< logical words per plane: ceil(cols / 64)
    int stride_ = 0; //!< allocated words per plane (32-byte multiple)
    uint64_t revision_ = 0;
    PlaneStore storage_;
    std::vector<int> popcounts_;
};

/**
 * Bit-plane decomposition of a single query row, the Q-side dual of
 * BitPlaneSet.
 *
 * The per-plane sum the bit-serial kernels need,
 *   sum_{d : k_d = 1} q_d,
 * becomes word-parallel once the query is also plane-packed: with
 * q_d = sum_t qw_t * qbit_t(d) (two's complement over the query
 * planes), the sum equals
 *   sum_t qw_t * popcount(qplane_t AND kplane),
 * i.e. a handful of 64-bit AND+popcount operations instead of a walk
 * over every set key bit. The arithmetic is exact, so results are
 * bit-identical to the scalar accumulation.
 *
 * assign() reuses the packed storage, making repacking (once per query
 * row) allocation-free after the first call; it also narrows to the
 * minimal bit-width covering the row's value range, so e.g. INT4-range
 * queries cost 4 plane ANDs instead of 8.
 *
 * Storage follows the same alignment contract as BitPlaneSet (32-byte
 * aligned plane rows, zero padding to the aligned stride) — the AVX2
 * maskedSumSimd() path depends on it for aligned full-width loads.
 */
class QueryPlanes
{
  public:
    QueryPlanes() = default;

    /** Pack @p q; bits = 0 selects the minimal covering width. */
    explicit QueryPlanes(std::span<const int8_t> q, int bits = 0);

    /** Re-pack into the existing storage (no allocation on reuse). */
    void assign(std::span<const int8_t> q, int bits = 0);

    int numCols() const { return cols_; }
    int numPlanes() const { return bits_; }
    int wordsPerPlane() const { return words_; }
    /** Allocated words between consecutive plane rows (32B multiple). */
    int planeStride() const { return stride_; }

    /**
     * Raw pointer view handed to the AVX2 kernels (packed planes plus
     * the byte value mirror, built lazily on the first call after
     * assign() so non-SIMD executions never pay for it). Only valid
     * while this object is alive and unmodified. Not thread-safe —
     * like the rest of QueryPlanes, one instance per worker thread.
     */
    simd::QPlaneView simdView() const;

    /**
     * simdView() without the byte mirror (values == nullptr): the
     * packed planes alone, all the AVX-512 prefix-score kernel reads.
     * Never builds the mirror.
     */
    simd::QPlaneView planeView() const;

    /** Signed weight of plane @p t: -2^{b-1} for t=0, else 2^{b-1-t}. */
    int planeWeight(int t) const;

    /** Bit of element @p col on plane @p t (tests/debugging). */
    bool bit(int t, int col) const;

    /**
     * Packed words of plane @p t; 32-byte-aligned data pointer, zero
     * padding up to the aligned stride past .size() (the BitPlaneSet
     * storage contract).
     */
    std::span<const uint64_t> plane(int t) const;

    /**
     * Word-parallel sum of the query values selected by a key bit
     * mask: sum_{d : mask_d = 1} q_d. This is the primitive every
     * bit-serial plane delta reduces to; the mask is one packed key
     * plane. Weights are powers of two, so the per-plane popcounts
     * combine with shifts — no multiplies on the hot path.
     *
     * @p mask must hold exactly wordsPerPlane() words; this baseline
     * kernel reads nothing past the span.
     */
    int64_t
    maskedSum(std::span<const uint64_t> mask) const
    {
        PADE_DCHECK_EQ(static_cast<int>(mask.size()), words_);
        // Dispatch on the word count so the compiler keeps the mask
        // words in registers across all query planes (head dims up to
        // 256 take the unrolled paths).
        switch (words_) {
        case 1: return maskedSumW<1>(mask.data());
        case 2: return maskedSumW<2>(mask.data());
        case 3: return maskedSumW<3>(mask.data());
        case 4: return maskedSumW<4>(mask.data());
        default: break;
        }
        const uint64_t *qw = storage_.data();
        int64_t sum = 0;
        for (int t = 0; t < bits_; t++, qw += stride_) {
            int64_t ones = 0;
            for (int w = 0; w < words_; w++)
                ones += std::popcount(qw[w] & mask[w]);
            sum += static_cast<int64_t>(planeWeight(t)) * ones;
        }
        return sum;
    }

    /**
     * maskedSum() through the AVX2 backend (QkKernel::kSimd). Exact
     * same value, bit for bit — the SIMD kernel counts the same set
     * bits with the same power-of-two weights, only wider. Falls back
     * to maskedSum() when the backend is compiled out or the CPU
     * lacks AVX2, so it is always safe to call. Like maskedSum(),
     * only the mask's own words are dereferenced (the tail chunk is
     * read with a masked load), so any caller span is legal.
     */
    int64_t maskedSumSimd(std::span<const uint64_t> mask) const;

  private:
    template <int W>
    int64_t
    maskedSumW(const uint64_t *mask) const
    {
        uint64_t k[W];
        for (int w = 0; w < W; w++)
            k[w] = mask[w];
        const uint64_t *qw = storage_.data();
        const auto ones = [&qw, &k]() {
            int64_t o = 0;
            for (int w = 0; w < W; w++)
                o += std::popcount(qw[w] & k[w]);
            return o;
        };
        // Sign plane (t = 0, weight -2^{b-1}) first, then the
        // non-negative planes with descending power-of-two weights.
        const int64_t neg = ones();
        qw += stride_;
        int64_t pos = 0;
        for (int t = 1; t < bits_; t++, qw += stride_)
            pos += ones() << (bits_ - 1 - t);
        return pos - (neg << (bits_ - 1));
    }

    int cols_ = 0;
    int bits_ = 0;
    int words_ = 0;  //!< logical words per plane: ceil(cols / 64)
    int stride_ = 0; //!< allocated words per plane (32-byte multiple)
    PlaneStore storage_;
    /** Rebuild values_ from the packed planes (lazy, see simdView). */
    void buildValues() const;

    /**
     * Byte mirror of the packed planes — element col is exactly the
     * plane reconstruction sum_t planeWeight(t) * bit(t, col) — kept
     * 32-byte aligned and zero-padded to a 32-byte boundary. Built
     * lazily by simdView() (mutable: a deferred cache of const
     * state): the AVX2 short-row kernel computes maskedSum directly
     * in the value domain (select bytes by mask,
     * vpmaddubsw-accumulate), touching one byte per element instead
     * of one plane bit per (plane, element). Never built when no
     * SIMD kernel runs.
     */
    mutable std::vector<int8_t, AlignedAllocator<int8_t, 32>> values_;
    mutable bool values_valid_ = false;
};

/**
 * Partial dot product of a full-precision query row with the first
 * (r+1) bit planes of key @p row : S^r = sum_{p<=r} w_p * sum_{bit=1} q.
 * This is the score the scoreboard accumulates plane by plane.
 * Word-parallel: packs the query once and reduces to popcounts.
 */
int64_t partialDot(std::span<const int8_t> q, const BitPlaneSet &keys,
                   int row, int r);

/** partialDot over an already-packed query (the hot-path form). */
int64_t partialDot(const QueryPlanes &q, const BitPlaneSet &keys,
                   int row, int r);

/**
 * Scalar reference for partialDot: walks every set key bit with ctz.
 * Kept as the bit-exactness oracle for the popcount and SIMD kernels.
 */
int64_t partialDotScalar(std::span<const int8_t> q,
                         const BitPlaneSet &keys, int row, int r);

/**
 * partialDot through the AVX2 backend (QkKernel::kSimd); bit-identical
 * to partialDot()/partialDotScalar(), falls back to the popcount
 * kernel when AVX2 is unavailable.
 */
int64_t partialDotSimd(const QueryPlanes &q, const BitPlaneSet &keys,
                       int row, int r);

/** Exact dot product via all planes (equals integer QK^T). */
int64_t exactDot(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int row);

/** exactDot over an already-packed query (the hot-path form). */
int64_t exactDot(const QueryPlanes &q, const BitPlaneSet &keys,
                 int row);

/** Scalar reference for exactDot (see partialDotScalar). */
int64_t exactDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
                       int row);

/** exactDot through the AVX2 backend (see partialDotSimd). */
int64_t exactDotSimd(const QueryPlanes &q, const BitPlaneSet &keys,
                     int row);

} // namespace pade

#endif // PADE_QUANT_BITPLANE_H
