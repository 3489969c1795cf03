/**
 * @file
 * QK scoring kernel selection — the library's ISA-dispatch seam.
 *
 * Three kernels compute the identical integer scores; outputs,
 * retention masks, and statistics are bit-identical by contract
 * (enforced by the property tests), so the choice is purely a
 * throughput decision:
 *
 *  - QkKernel::kScalar — per-set-bit ctz walk; the exactness oracle.
 *  - QkKernel::kPopcount — word-parallel weighted popcount over
 *    packed 64-bit words (baseline ISA + POPCNT).
 *  - QkKernel::kSimd — the vector backend; requires it to be compiled
 *    in (CMake option PADE_AVX2) *and* the executing CPU/OS to
 *    support AVX2 (runtime CPUID + XGETBV probe). Within kSimd the
 *    guarded attention loop runs the AVX-512 VPOPCNTDQ kernel
 *    (src/core/simd/qk_avx512.h) when the CPU and OS support it and
 *    the AVX2 kernels (src/core/simd/qk_avx2.h) otherwise.
 *
 * The guarded attention loops (padeAttention, DecodeEngine) score a
 * key with ONE call per (key, query row): the call returns every
 * prefix score S^r = sum_{p<=r} w_p * maskedSum(kplane_p), r < bits,
 * and the BUI-GF guard walks that array (core/key_scan.h). kSimd does
 * it in one vector kernel (simdPrefixScoresKernel()); kPopcount and
 * kScalar loop over the planes.
 *
 * Selection: PadeConfig::qk_kernel names the requested kernel and
 * defaults to defaultQkKernel() (kSimd when available, else
 * kPopcount). resolveQkKernel() applies the PADE_QK_KERNEL
 * environment override — "scalar" | "popcount" | "simd" | "auto" —
 * and downgrades an unavailable kSimd to kPopcount, so requesting
 * SIMD is always safe.
 */

#ifndef PADE_CORE_SIMD_QK_DISPATCH_H
#define PADE_CORE_SIMD_QK_DISPATCH_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace pade {

namespace simd {
struct QPlaneView;
}

/** QK scoring kernel (see file comment for the dispatch story). */
enum class QkKernel
{
    kScalar,   //!< per-set-bit scalar reference (oracle)
    kPopcount, //!< word-parallel weighted-popcount kernel
    kSimd,     //!< AVX2 backend (falls back to kPopcount if absent)
};

/** Environment variable overriding the configured kernel. */
inline constexpr const char kQkKernelEnv[] = "PADE_QK_KERNEL";

/** Lower-case name of @p k ("scalar" / "popcount" / "simd"). */
const char *qkKernelName(QkKernel k);

/**
 * Parse a kernel name (case-insensitive); nullopt for anything else
 * (including "auto", which is resolveQkKernel()'s job).
 */
std::optional<QkKernel> qkKernelFromName(std::string_view name);

/**
 * True when kSimd can actually execute vector code here: the AVX2
 * translation unit was compiled (PADE_AVX2) and the runtime probe
 * reports AVX2 with OS-saved YMM state. Cached after the first call.
 */
bool qkSimdAvailable();

/**
 * True when kSimd runs the AVX-512 kernel here: qkSimdAvailable(),
 * the AVX-512 translation unit was compiled, and the CPU reports
 * AVX512F + AVX512_VPOPCNTDQ with OS-saved opmask/ZMM state. Cached.
 */
bool qkAvx512Available();

/** ISA kSimd executes here: "avx512", "avx2", or "none". */
const char *qkSimdIsa();

/**
 * An all-planes prefix-score kernel (simd::prefixScoresAvx512 /
 * simd::prefixScoresAvx2): (query view, key row block, plane stride,
 * key bits, words per plane, prefix[kbits] out).
 */
using PrefixScoresFn = void (*)(const simd::QPlaneView &,
                                const uint64_t *, int, int, int,
                                int64_t *);

/**
 * The prefix-score kernel kSimd runs: AVX-512 when
 * qkAvx512Available(), else AVX2. Only meaningful when
 * qkSimdAvailable().
 */
PrefixScoresFn simdPrefixScoresKernel();

/** kSimd when qkSimdAvailable(), else kPopcount. */
QkKernel defaultQkKernel();

/**
 * Final dispatch decision for one execution: applies the
 * PADE_QK_KERNEL environment override (if set and valid; "auto"
 * selects defaultQkKernel(), an unknown value warns once on stderr
 * and is ignored), then downgrades kSimd to kPopcount when the
 * backend is unavailable. The environment is re-read on every call
 * so benchmarking harnesses can flip kernels between runs.
 */
QkKernel resolveQkKernel(QkKernel requested);

} // namespace pade

#endif // PADE_CORE_SIMD_QK_DISPATCH_H
