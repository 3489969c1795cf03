/**
 * @file
 * Tests for the QK kernel dispatch seam (core/simd/qk_dispatch.h) and
 * the AVX2 backend's bit-exactness against the scalar oracle,
 * including the remainder/tail shapes that exercise masked loads and
 * padded storage: head_dims that are not multiples of the SIMD width
 * and the boundary between the value-domain and plane-domain kernels.
 *
 * Every parity test also passes in non-AVX2 builds (or on non-AVX2
 * hosts): the *Simd entry points then fall back to the popcount
 * kernel, which must produce the same values anyway.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bit_serial.h"
#include "core/key_scan.h"
#include "core/simd/cpu_features.h"
#include "core/simd/qk_avx2.h"
#include "core/simd/qk_avx512.h"
#include "core/simd/qk_dispatch.h"
#include "quant/bitplane.h"

namespace pade {
namespace {

/** Random matrix whose values fit a @p bits two's-complement range,
 *  with an adjustable bias toward negative values. */
MatrixI8
randomRanged(int r, int c, int bits, uint64_t seed,
             double negative_frac = 0.5)
{
    Rng rng(seed);
    const int lo = -(1 << (bits - 1));
    const int hi = (1 << (bits - 1)) - 1;
    MatrixI8 m(r, c);
    for (int i = 0; i < r; i++)
        for (int j = 0; j < c; j++) {
            int v = rng.bernoulli(negative_frac)
                ? static_cast<int>(rng.range(lo, -1))
                : static_cast<int>(rng.range(0, hi));
            m.at(i, j) = static_cast<int8_t>(v);
        }
    return m;
}

/** RAII environment-variable override (restores on scope exit). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_old_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_ = false;
    std::string old_;
};

TEST(QkDispatch, KernelNamesRoundTrip)
{
    for (QkKernel k : {QkKernel::kScalar, QkKernel::kPopcount,
                       QkKernel::kSimd}) {
        const auto parsed = qkKernelFromName(qkKernelName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_EQ(qkKernelFromName("SIMD"), QkKernel::kSimd);
    EXPECT_EQ(qkKernelFromName("Scalar"), QkKernel::kScalar);
    EXPECT_FALSE(qkKernelFromName("auto").has_value());
    EXPECT_FALSE(qkKernelFromName("").has_value());
    EXPECT_FALSE(qkKernelFromName("avx512").has_value());
}

TEST(QkDispatch, DefaultMatchesAvailability)
{
    EXPECT_EQ(defaultQkKernel(), qkSimdAvailable()
                  ? QkKernel::kSimd
                  : QkKernel::kPopcount);
}

TEST(QkDispatch, SimdAvailabilityImpliesCpuSupport)
{
    // qkSimdAvailable() must never report true without both the
    // compiled backend and full runtime (CPU + OS) support.
    if (qkSimdAvailable()) {
        const simd::CpuFeatures &f = simd::cpuFeatures();
        EXPECT_TRUE(f.avx2);
        EXPECT_TRUE(f.os_ymm);
    }
}

TEST(QkDispatch, ResolvePassesThroughWithoutEnv)
{
    ScopedEnv env(kQkKernelEnv, nullptr);
    EXPECT_EQ(resolveQkKernel(QkKernel::kScalar), QkKernel::kScalar);
    EXPECT_EQ(resolveQkKernel(QkKernel::kPopcount),
              QkKernel::kPopcount);
    // kSimd resolves to itself when available, kPopcount otherwise —
    // never to something that cannot execute.
    const QkKernel resolved = resolveQkKernel(QkKernel::kSimd);
    EXPECT_EQ(resolved, qkSimdAvailable() ? QkKernel::kSimd
                                          : QkKernel::kPopcount);
}

TEST(QkDispatch, EnvOverridesConfiguredKernel)
{
    {
        ScopedEnv env(kQkKernelEnv, "scalar");
        EXPECT_EQ(resolveQkKernel(QkKernel::kSimd), QkKernel::kScalar);
    }
    {
        ScopedEnv env(kQkKernelEnv, "POPCOUNT");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  QkKernel::kPopcount);
    }
    {
        // "auto" resolves to the best available backend.
        ScopedEnv env(kQkKernelEnv, "auto");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  defaultQkKernel());
    }
    {
        // Unknown values are ignored (with a one-time warning).
        ScopedEnv env(kQkKernelEnv, "gpu");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  QkKernel::kScalar);
    }
    {
        // An env-forced simd request still clamps to availability.
        ScopedEnv env(kQkKernelEnv, "simd");
        EXPECT_EQ(resolveQkKernel(QkKernel::kScalar),
                  qkSimdAvailable() ? QkKernel::kSimd
                                    : QkKernel::kPopcount);
    }
}

TEST(QkDispatch, PlaneStorageIs32ByteAligned)
{
    // The alignment contract the SIMD backend relies on, checked
    // through the public span accessors across tail shapes.
    for (int cols : {1, 63, 65, 127, 129, 256, 300}) {
        MatrixI8 k = randomRanged(3, cols, 8, 1000 + cols);
        BitPlaneSet planes(k, 8);
        for (int row = 0; row < 3; row++)
            for (int r = 0; r < 8; r++)
                EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                              planes.plane(row, r).data()) %
                              32,
                          0u)
                    << "cols=" << cols;
        MatrixI8 q = randomRanged(1, cols, 8, 2000 + cols);
        const QueryPlanes qp(q.row(0));
        for (int t = 0; t < qp.numPlanes(); t++)
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                          qp.plane(t).data()) %
                          32,
                      0u)
                << "cols=" << cols;
    }
}

/**
 * Parameterized over head_dim: every shape must be bit-identical
 * across all three kernels. The values deliberately straddle the
 * SIMD width boundaries — 65/127 leave masked remainders in the
 * value-domain kernel, 257/300 exercise the plane-domain wide path's
 * tail chunk, and 1/3 are degenerate single-word rows.
 */
class SimdTailTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SimdTailTest, MaskedSumSimdMatchesOracle)
{
    const int cols = GetParam();
    for (int bits : {2, 5, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 50 + cols, 0.6);
        MatrixI8 k = randomRanged(4, cols, bits, 60 + cols);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 4; j++)
            for (int r = 0; r < bits; r++) {
                int64_t ref = 0;
                for (int d = 0; d < cols; d++)
                    if (planes.bit(j, r, d))
                        ref += q.at(0, d);
                const auto mask = planes.plane(j, r);
                EXPECT_EQ(qp.maskedSum(mask), ref)
                    << "cols=" << cols << " bits=" << bits;
                EXPECT_EQ(qp.maskedSumSimd(mask), ref)
                    << "cols=" << cols << " bits=" << bits;
            }
    }
}

TEST_P(SimdTailTest, PlaneDeltaSimdMatchesScalar)
{
    const int cols = GetParam();
    for (int bits : {2, 4, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 70 + cols, 0.7);
        MatrixI8 k = randomRanged(3, cols, bits, 80 + cols, 0.7);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 3; j++)
            for (int r = 0; r < bits; r++) {
                const int64_t ref =
                    planeDeltaScalar(q.row(0), planes, j, r);
                EXPECT_EQ(planeDelta(qp, planes, j, r), ref);
                EXPECT_EQ(planeDeltaSimd(qp, planes, j, r), ref)
                    << "cols=" << cols << " bits=" << bits
                    << " j=" << j << " r=" << r;
            }
    }
}

TEST_P(SimdTailTest, PartialAndExactDotSimdMatchScalar)
{
    const int cols = GetParam();
    for (int bits : {2, 4, 8}) {
        MatrixI8 q = randomRanged(1, cols, 8, 90 + cols);
        MatrixI8 k = randomRanged(3, cols, bits, 95 + cols);
        BitPlaneSet planes(k, bits);
        const QueryPlanes qp(q.row(0));
        for (int j = 0; j < 3; j++) {
            for (int r = 0; r < bits; r++)
                EXPECT_EQ(partialDotSimd(qp, planes, j, r),
                          partialDotScalar(q.row(0), planes, j, r))
                    << "cols=" << cols << " bits=" << bits
                    << " j=" << j << " r=" << r;
            int64_t ref = 0;
            for (int d = 0; d < cols; d++)
                ref += static_cast<int64_t>(q.at(0, d)) * k.at(j, d);
            EXPECT_EQ(exactDotSimd(qp, planes, j), ref);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TailShapes, SimdTailTest,
                         ::testing::Values(1, 3, 31, 63, 64, 65, 96,
                                           127, 128, 129, 255, 256,
                                           257, 300, 512));

TEST(QkSimd, NarrowedQueryWidthsMatch)
{
    // assign() without an explicit width narrows to the minimal
    // covering range; the value mirror must reflect the (possibly
    // truncated) plane reconstruction, keeping all kernels identical.
    for (int qbits : {2, 3, 4, 6, 8}) {
        const int cols = 130;
        MatrixI8 q = randomRanged(1, cols, qbits, 300 + qbits);
        MatrixI8 k = randomRanged(2, cols, 8, 310 + qbits);
        BitPlaneSet planes(k, 8);
        QueryPlanes qp;
        qp.assign(q.row(0));
        EXPECT_LE(qp.numPlanes(), qbits + 1);
        for (int j = 0; j < 2; j++)
            for (int r = 0; r < 8; r++)
                EXPECT_EQ(planeDeltaSimd(qp, planes, j, r),
                          planeDeltaScalar(q.row(0), planes, j, r))
                    << "qbits=" << qbits;
    }
}

TEST(QkSimd, ForcedWidthTruncationStaysConsistent)
{
    // A caller-forced width that truncates values must keep the
    // plane-domain and value-domain kernels mutually consistent
    // (both see the truncated reconstruction).
    MatrixI8 q = randomRanged(1, 96, 8, 400);
    MatrixI8 k = randomRanged(2, 96, 8, 401);
    BitPlaneSet planes(k, 8);
    QueryPlanes qp;
    qp.assign(q.row(0), 4); // truncates 8-bit values to 4 bits
    for (int j = 0; j < 2; j++)
        for (int r = 0; r < 8; r++)
            EXPECT_EQ(qp.maskedSumSimd(planes.plane(j, r)),
                      qp.maskedSum(planes.plane(j, r)));
}

TEST(QkSimd, ReusedQueryPlanesStayConsistent)
{
    // Workspace reuse across different shapes must rebuild the value
    // mirror correctly (stale bytes from a longer previous row must
    // not leak into the padding).
    QueryPlanes qp;
    for (int cols : {300, 65, 128, 1, 257, 64}) {
        MatrixI8 q = randomRanged(1, cols, 8, 500 + cols, 0.8);
        MatrixI8 k = randomRanged(2, cols, 8, 510 + cols);
        BitPlaneSet planes(k, 8);
        qp.assign(q.row(0));
        for (int j = 0; j < 2; j++) {
            EXPECT_EQ(exactDotSimd(qp, planes, j),
                      exactDotScalar(q.row(0), planes, j))
                << "cols=" << cols;
        }
    }
}

/**
 * Prefix-score kernels (one call per key for every S^r) against sums
 * of planeDeltaScalar, over head_dim x key bits x query width. The
 * scored key is the last row of a page filled to its reserved
 * capacity, so its row block ends exactly at the end of the
 * allocation and a sanitizer build reports any read past it.
 */
enum class PrefixPath
{
    kAvx512,
    kAvx2,
    kPopcount,
};

class PrefixScoresTest : public ::testing::TestWithParam<PrefixPath>
{
};

TEST_P(PrefixScoresTest, EveryPrefixMatchesScalarPlaneSums)
{
    const PrefixPath path = GetParam();
    if (path == PrefixPath::kAvx512 && !qkAvx512Available())
        GTEST_SKIP() << "CPU/OS lacks AVX512F + AVX512_VPOPCNTDQ (or "
                        "the backend is not compiled); AVX-512 "
                        "prefix-score kernel not exercised";
    if (path == PrefixPath::kAvx2 && simd::qkAvx2Compiled() &&
        !qkSimdAvailable())
        GTEST_SKIP() << "CPU/OS lacks AVX2; AVX2 prefix-score kernel "
                        "not exercised";
    constexpr int kRows = 3;
    for (int cols : {8, 63, 64, 65, 128, 256, 300, 512}) {
        for (int kbits = 2; kbits <= 8; kbits++) {
            BitPlaneSet page(cols, kbits, kRows);
            const MatrixI8 k = randomRanged(kRows, cols, kbits,
                                            7000 + cols * 16 + kbits);
            for (int row = 0; row < kRows; row++)
                page.appendToken(k.row(row));
            const int last = kRows - 1;
            for (int qbits = 1; qbits <= 8; qbits++) {
                const MatrixI8 q =
                    randomRanged(1, cols, qbits == 1 ? 2 : qbits,
                                 9000 + cols * 64 + kbits * 8 + qbits);
                QueryPlanes qp;
                qp.assign(q.row(0), qbits);
                // The oracle scores what the planes encode: a forced
                // 1-bit width truncates the row to {-1, 0}.
                std::vector<int8_t> qv(static_cast<std::size_t>(cols));
                for (int d = 0; d < cols; d++)
                    for (int t = 0; t < qbits; t++)
                        qv[static_cast<std::size_t>(d)] =
                            static_cast<int8_t>(
                                qv[static_cast<std::size_t>(d)] +
                                qp.planeWeight(t) * qp.bit(t, d));
                int64_t got[8] = {};
                switch (path) {
                case PrefixPath::kAvx512:
                    simd::prefixScoresAvx512(
                        qp.planeView(), page.rowPlanes(last).data(),
                        page.planeStride(), kbits,
                        page.wordsPerPlane(), got);
                    break;
                case PrefixPath::kAvx2:
                    simd::prefixScoresAvx2(
                        qp.simdView(), page.rowPlanes(last).data(),
                        page.planeStride(), kbits,
                        page.wordsPerPlane(), got);
                    break;
                case PrefixPath::kPopcount:
                    prefixScores(qp, page, last, got);
                    break;
                }
                int64_t want = 0;
                for (int r = 0; r < kbits; r++) {
                    want += planeDeltaScalar(qv, page, last, r);
                    ASSERT_EQ(got[r], want)
                        << "cols=" << cols << " kbits=" << kbits
                        << " qbits=" << qbits << " r=" << r;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PrefixScoresTest,
    ::testing::Values(PrefixPath::kAvx512, PrefixPath::kAvx2,
                      PrefixPath::kPopcount),
    [](const ::testing::TestParamInfo<PrefixPath> &path) {
        switch (path.param) {
        case PrefixPath::kAvx512: return std::string("Avx512");
        case PrefixPath::kAvx2: return std::string("Avx2");
        case PrefixPath::kPopcount: return std::string("Popcount");
        }
        return std::string("Unknown");
    });

TEST(QkSimd, PrefixScorerMatchesOracleForEveryKernel)
{
    // The hot loops' entry point: whatever ISA kSimd resolves to here,
    // every kernel the scorer can be staged with matches the oracle.
    const MatrixI8 q = randomRanged(1, 96, 8, 600);
    const MatrixI8 k = randomRanged(4, 96, 6, 601);
    const BitPlaneSet planes(k, 6);
    for (QkKernel kernel : {QkKernel::kScalar, QkKernel::kPopcount,
                            QkKernel::kSimd}) {
        PrefixScorer scorer;
        scorer.assign(resolveQkKernel(kernel), q.row(0));
        for (int j = 0; j < 4; j++) {
            int64_t got[8] = {};
            scorer(planes, j, got);
            int64_t want = 0;
            for (int r = 0; r < 6; r++) {
                want += planeDeltaScalar(q.row(0), planes, j, r);
                EXPECT_EQ(got[r], want)
                    << qkKernelName(kernel) << " r=" << r;
            }
            EXPECT_EQ(got[5], exactDotScalar(q.row(0), planes, j));
        }
    }
}

TEST(QkDispatch, SimdIsaMatchesAvailability)
{
    const std::string isa = qkSimdIsa();
    if (qkAvx512Available()) {
        EXPECT_EQ(isa, "avx512");
        const simd::CpuFeatures &f = simd::cpuFeatures();
        EXPECT_TRUE(f.avx512f && f.avx512_vpopcntdq && f.os_zmm);
        EXPECT_EQ(simdPrefixScoresKernel(), &simd::prefixScoresAvx512);
    } else {
        EXPECT_EQ(isa, qkSimdAvailable() ? "avx2" : "none");
        EXPECT_EQ(simdPrefixScoresKernel(), &simd::prefixScoresAvx2);
    }
}

} // namespace
} // namespace pade
