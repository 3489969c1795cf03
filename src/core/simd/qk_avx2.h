/**
 * @file
 * AVX2 implementation of the bit-serial QK scoring primitives.
 *
 * Three entry points cover the QK hot paths:
 *
 *  - maskedSumAvx2: one key plane against all query planes — the
 *    QueryPlanes::maskedSum primitive (planeDeltaSimd);
 *  - dotPlanesAvx2: the first n key planes of one key fused into one
 *    call (partialDot/exactDot). Fusing amortizes the mask loads and
 *    the vector->scalar reduction over all key planes: the key-plane
 *    weights are powers of two, so the per-plane vector sums fold
 *    into a single accumulator by Horner doubling and only one
 *    horizontal sum runs per (query, key) pair;
 *  - prefixScoresAvx2: every prefix score S^0 .. S^{kbits-1} of one
 *    key in one call, for the guarded attention loop on hosts without
 *    the AVX-512 backend (qk_avx512.h).
 *
 * This translation unit is the only one in the library built with
 * -mavx2; everything else stays baseline-ISA, and callers must gate
 * on qkAvx2Compiled() plus the runtime CPUID probe (see
 * qk_dispatch.h) before calling these functions.
 *
 * Strategy by row shape (words = packed 64-bit words per plane):
 *  - words <= 4 (head_dim <= 256), and any row up to 4064 elements
 *    when the query carries >= 6 planes: the value-domain kernel. The
 *    weighted plane identity sum_t w_t popcount(q_t & m) equals the
 *    sum of the *original int8 query values* under the mask, so the
 *    kernel skips the query planes entirely: 32 mask bits at a time
 *    are broadcast (vpbroadcastd), fanned out to a byte select
 *    (vpshufb + bit-test vpcmpeqb), ANDed with the caller-maintained
 *    byte mirror of the query row (QPlaneView::values), and
 *    accumulated pairwise into 16-bit lanes with vpmaddubsw. One pass
 *    over head_dim bytes per key plane, independent of the query's
 *    bit-width — this is what makes the short rows beat the scalar
 *    popcount kernel, whose work scales with bits * words.
 *  - other rows (wide with a narrow query, or past the value
 *    kernel's 16-bit saturation ceiling): the plane-domain kernel.
 *    Per query plane, full 32-byte chunks accumulate vpshufb
 *    nibble-LUT popcounts in a byte accumulator (flushed through
 *    vpsadbw before any byte can saturate); rows of >= 16 chunks
 *    (head_dim >= 4096) first collapse 16 chunks at a time through a
 *    Harley-Seal carry-save adder tree, quartering the pshufb work.
 *    Here the plane domain wins: it touches bits/8 bytes per element
 *    versus the value kernel's 1, so narrow queries cost
 *    proportionally less.
 *
 * When CMake could not enable AVX2 (PADE_AVX2=OFF or an unsupporting
 * compiler), this file compiles a portable fallback with identical
 * semantics and qkAvx2Compiled() reports false.
 */

#ifndef PADE_CORE_SIMD_QK_AVX2_H
#define PADE_CORE_SIMD_QK_AVX2_H

#include <cstdint>

namespace pade {
namespace simd {

/**
 * Raw view of a QueryPlanes object (QueryPlanes owns the invariants):
 *  - plane t of planes starts at offset t * stride;
 *  - stride is a multiple of 4 words and the pointers are 32-byte
 *    aligned, so plane rows support aligned 32-byte loads;
 *  - padding words beyond the logical row length are zero;
 *  - values holds the cols int8 elements the planes decompose
 *    (exactly their plane reconstruction, so plane-domain and
 *    value-domain sums agree bit for bit), 32-byte aligned and
 *    zero-padded to the next 32-byte boundary.
 */
struct QPlaneView
{
    const uint64_t *planes; //!< packed query planes
    const int8_t *values;   //!< byte mirror of the query row
    int stride;             //!< words between consecutive planes
    int bits;               //!< number of query planes
    int cols;               //!< logical row length in elements
};

/** True when this build carries real AVX2 code paths. */
bool qkAvx2Compiled();

/**
 * Weighted masked popcount sum over the packed query planes:
 * returns sum_{t>0} popcount(q_t & mask) << (bits-1-t)
 *       - popcount(q_0 & mask) << (bits-1).
 *
 * @p mask may be arbitrary caller memory of exactly @p words words:
 * the value-domain path reads 4-byte dwords within the span and the
 * wide path reads its tail chunk with vpmaskmovq — never past the
 * end either way.
 *
 * Must only be called when qkAvx2Compiled() and the runtime AVX2
 * probe both hold; the portable stub in non-AVX2 builds computes the
 * same value in scalar code (bit-identical, just slower).
 */
int64_t maskedSumAvx2(const QPlaneView &q, const uint64_t *mask,
                      int words);

/**
 * Fused partial dot product: the weighted sum of maskedSumAvx2 over
 * the first @p nplanes key planes of one key,
 *
 *   sum_{p < nplanes} w_p * maskedSum(kplane_p),
 *
 * with w_0 = -2^{kbits-1} and w_p = 2^{kbits-1-p}. @p kplanes points
 * at plane 0 of the key's plane block; plane p starts at
 * kplanes + p * kstride, under the same alignment/zero-padding
 * contract as QPlaneView (BitPlaneSet guarantees it), which lets the
 * kernel use full-width loads on both sides with no tail masking.
 * Same availability contract as maskedSumAvx2.
 */
int64_t dotPlanesAvx2(const QPlaneView &q, const uint64_t *kplanes,
                      int kstride, int kbits, int nplanes, int words);

/**
 * All prefix scores of one key, prefix[r] = S^r for r < @p kbits —
 * the AVX2 form of prefixScoresAvx512 (same arguments and result; see
 * qk_avx512.h), which kSimd runs on hosts without AVX-512 VPOPCNTDQ.
 * Short rows run the value-domain kernel once per key plane and
 * reduce the eight per-plane vectors with one hadd tree; other rows
 * run the plane-domain kernel per key plane. Only the kbits * kstride
 * row block is read. Same availability contract as maskedSumAvx2.
 */
void prefixScoresAvx2(const QPlaneView &q, const uint64_t *kplanes,
                      int kstride, int kbits, int words,
                      int64_t *prefix);

} // namespace simd
} // namespace pade

#endif // PADE_CORE_SIMD_QK_AVX2_H
