#include "core/simd/qk_avx512.h"

#include <cstddef>

#ifdef PADE_HAVE_AVX512

#include <immintrin.h>

namespace pade {
namespace simd {
namespace {

/**
 * Broadcasts, variable shifts and valignq use their masked (maskz)
 * forms on purpose: the unmasked intrinsics pass
 * _mm512_undefined_*() as the merge source, which GCC 12 reports as
 * -Wuninitialized once inlined. An all-ones mask generates the same
 * instruction.
 */
constexpr __mmask8 kAllLanes = 0xFF;

/** Mask of lanes 0 .. n-1 (n in [0, 8]). */
inline __mmask8
lowLanes(int n)
{
    return static_cast<__mmask8>((1u << n) - 1u);
}

inline __m512i
broadcast(uint64_t v)
{
    return _mm512_maskz_set1_epi64(kAllLanes, static_cast<long long>(v));
}

/** Lane i <- lane i - K; the low K lanes become zero. */
template <int K>
inline __m512i
shiftLanesUp(__m512i v)
{
    return _mm512_maskz_alignr_epi64(
        static_cast<__mmask8>(kAllLanes << K), v, v, 8 - K);
}

/**
 * Key-plane words of a row block whose planes sit 4 words apart (rows
 * up to 256 elements): the block is kbits * 4 words, i.e. at most four
 * ZMM registers holding two planes each, loaded with masks that stop
 * at the block's last word.
 */
class NarrowKey
{
  public:
    NarrowKey(const uint64_t *kplanes, int kbits)
    {
        const int block = kbits * 4;
        for (int j = 0; j < 4; j++) {
            const int live = block - 8 * j;
            z_[j] = live > 0
                ? _mm512_maskz_loadu_epi64(
                      lowLanes(live < 8 ? live : 8),
                      kplanes + static_cast<std::size_t>(j) * 8)
                : _mm512_setzero_si512();
        }
    }

    /** Lane p = word @p w of key plane p (block element 4p + w). */
    __m512i
    word(int w) const
    {
        const __m512i idx = _mm512_add_epi64(
            _mm512_setr_epi64(0, 4, 8, 12, 0, 4, 8, 12), broadcast(
                static_cast<uint64_t>(w)));
        // Planes 0-3 live in z_[0..1], planes 4-7 in z_[2..3].
        return _mm512_mask_blend_epi64(
            0xF0, _mm512_permutex2var_epi64(z_[0], idx, z_[1]),
            _mm512_permutex2var_epi64(z_[2], idx, z_[3]));
    }

  private:
    __m512i z_[4];
};

/** Wider rows: a masked gather of word w from each live plane. */
inline __m512i
gatherWord(const uint64_t *kplanes, int kstride, int kbits, int w)
{
    const long long s = kstride;
    const __m512i idx = _mm512_setr_epi64(
        w, s + w, 2 * s + w, 3 * s + w, 4 * s + w, 5 * s + w,
        6 * s + w, 7 * s + w);
    return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(),
                                       lowLanes(kbits), idx, kplanes,
                                       8);
}

/**
 * Per-lane maskedSum of key word vector @p k against word @p w of
 * every query plane: Horner over the query planes, the sign plane
 * (t = 0) entering negated.
 */
inline __m512i
maskedSumLanes(const QPlaneView &q, __m512i k, int w)
{
    const uint64_t *qw = q.planes + w;
    __m512i acc = _mm512_sub_epi64(
        _mm512_setzero_si512(),
        _mm512_popcnt_epi64(_mm512_and_si512(broadcast(qw[0]), k)));
    for (int t = 1; t < q.bits; t++) {
        const __m512i ones = _mm512_popcnt_epi64(_mm512_and_si512(
            broadcast(qw[static_cast<std::size_t>(t) * q.stride]), k));
        acc = _mm512_add_epi64(_mm512_add_epi64(acc, acc), ones);
    }
    return acc;
}

} // namespace

bool
qkAvx512Compiled()
{
    return true;
}

void
prefixScoresAvx512(const QPlaneView &q, const uint64_t *kplanes,
                   int kstride, int kbits, int words, int64_t *prefix)
{
    __m512i sums = _mm512_setzero_si512();
    if (q.bits > 0) {
        if (kstride == 4) {
            const NarrowKey key(kplanes, kbits);
            for (int w = 0; w < words; w++)
                sums = _mm512_add_epi64(
                    sums, maskedSumLanes(q, key.word(w), w));
        } else {
            for (int w = 0; w < words; w++)
                sums = _mm512_add_epi64(
                    sums, maskedSumLanes(
                              q, gatherWord(kplanes, kstride, kbits, w),
                              w));
        }
    }
    // Weight lane p by 2^{kbits-1-p} (lanes past kbits are zero and a
    // negative count shifts them out), then negate the sign plane.
    const __m512i shifts = _mm512_sub_epi64(
        broadcast(static_cast<uint64_t>(kbits - 1)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i s = _mm512_maskz_sllv_epi64(kAllLanes, sums, shifts);
    s = _mm512_mask_sub_epi64(s, 0x01, _mm512_setzero_si512(), s);
    // Inclusive prefix sum over the lanes.
    s = _mm512_add_epi64(s, shiftLanesUp<1>(s));
    s = _mm512_add_epi64(s, shiftLanesUp<2>(s));
    s = _mm512_add_epi64(s, shiftLanesUp<4>(s));
    _mm512_mask_storeu_epi64(prefix, lowLanes(kbits), s);
}

} // namespace simd
} // namespace pade

#else // !PADE_HAVE_AVX512: portable stub with identical results.

#include <bit>

namespace pade {
namespace simd {

bool
qkAvx512Compiled()
{
    return false;
}

void
prefixScoresAvx512(const QPlaneView &q, const uint64_t *kplanes,
                   int kstride, int kbits, int words, int64_t *prefix)
{
    int64_t acc = 0;
    for (int p = 0; p < kbits; p++) {
        const uint64_t *kp =
            kplanes + static_cast<std::size_t>(p) * kstride;
        int64_t sum = 0;
        for (int t = 0; t < q.bits; t++) {
            const uint64_t *qp =
                q.planes + static_cast<std::size_t>(t) * q.stride;
            int64_t ones = 0;
            for (int w = 0; w < words; w++)
                ones += std::popcount(qp[w] & kp[w]);
            sum = t == 0 ? -ones : 2 * sum + ones;
        }
        const int64_t w = p == 0 ? -(int64_t{1} << (kbits - 1))
                                 : int64_t{1} << (kbits - 1 - p);
        acc += w * sum;
        prefix[p] = acc;
    }
}

} // namespace simd
} // namespace pade

#endif // PADE_HAVE_AVX512
