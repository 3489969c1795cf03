/**
 * @file
 * AVX-512 VPOPCNTDQ implementation of the all-planes prefix-score
 * kernel — the QK half of PADE's bit-serial stage fusion in one call.
 *
 * For one (key, query) pair the kernel returns every prefix score
 *
 *   S^r = sum_{p <= r} w_p * maskedSum(kplane_p),   r < kbits,
 *
 * with w_0 = -2^{kbits-1} and w_p = 2^{kbits-1-p}: the score the
 * BUI-GF guard inspects after key plane r. The guard then walks that
 * array with no further calls (core/key_scan.h).
 *
 * Layout: ZMM lane p holds key plane p's word, so the eight key planes
 * are scored side by side. Per query plane t the kernel broadcasts
 * that plane's word, ANDs it with the key vector, counts with
 * vpopcntq, and Horner-accumulates (subtracting the query sign plane
 * first). After the last word each lane is shifted by its key-plane
 * weight, lane 0 is negated, and a 3-step valignq prefix sum turns the
 * per-plane terms into S^0 .. S^{kbits-1}.
 *
 * Key planes are read with masked loads confined to the key's
 * kbits * kstride row block (a masked gather on rows wider than 256
 * elements), so a key on the last row of a full page never reads past
 * the page, whatever kbits is.
 *
 * This translation unit is the only one built with -mavx512f
 * -mavx512vpopcntdq. When CMake could not enable them (PADE_AVX2=OFF
 * or an unsupporting compiler) it compiles a portable fallback with
 * identical results and qkAvx512Compiled() reports false. Callers
 * gate on qkAvx512Available() (qk_dispatch.h), which adds the runtime
 * CPU + OS probe.
 */

#ifndef PADE_CORE_SIMD_QK_AVX512_H
#define PADE_CORE_SIMD_QK_AVX512_H

#include <cstdint>

#include "core/simd/qk_avx2.h"

namespace pade {
namespace simd {

/** True when this build carries the real AVX-512 code path. */
bool qkAvx512Compiled();

/**
 * All prefix scores of one key: writes prefix[r] = S^r for
 * r < @p kbits (see the file comment). @p kplanes points at plane 0
 * of the key's row block; plane p starts at kplanes + p * kstride and
 * holds @p words packed words (BitPlaneSet::rowPlanes layout, kbits in
 * [1, 8]). Only the kbits * kstride block is read. @p prefix must hold
 * kbits values.
 *
 * Must only be called when qkAvx512Available(); the portable stub in
 * builds without the backend computes the same values.
 */
void prefixScoresAvx512(const QPlaneView &q, const uint64_t *kplanes,
                        int kstride, int kbits, int words,
                        int64_t *prefix);

} // namespace simd
} // namespace pade

#endif // PADE_CORE_SIMD_QK_AVX512_H
