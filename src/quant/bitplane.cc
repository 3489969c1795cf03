#include "quant/bitplane.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/math_util.h"
#include "core/simd/qk_avx2.h"
#include "core/simd/qk_dispatch.h"

namespace pade {
namespace {

/**
 * Hot-path (per-accessor) check of the storage contract the SIMD
 * backend relies on; debug builds only. The Release-armed version of
 * this invariant runs once per mutation (checkStorageAligned), where
 * the base pointer is (re)established.
 */
inline void
assertPlaneAligned(const uint64_t *p)
{
    PADE_DCHECK(reinterpret_cast<std::uintptr_t>(p) % 32 == 0);
    (void)p;
}

/**
 * Release-armed storage-contract check: the backing store the SIMD
 * kernels will load 32 bytes at a time must sit on a 32-byte
 * boundary. Misalignment here means AlignedAllocator (or a future
 * storage refactor) broke the contract — fail at the mutation that
 * established the pointer, in every build type.
 */
inline void
checkStorageAligned(const uint64_t *base)
{
    if (base != nullptr)
        PADE_CHECK_EQ(reinterpret_cast<std::uintptr_t>(base) % 32,
                      0u);
}

} // namespace

BitPlaneSet::BitPlaneSet(const MatrixI8 &m, int bits)
    : BitPlaneSet(m.cols(), bits, m.rows())
{
    for (int row = 0; row < m.rows(); row++)
        appendToken(m.row(row));
}

uint64_t
BitPlaneSet::nextRevision()
{
    // Relaxed is enough: the counter only needs uniqueness, not
    // ordering with respect to other memory operations.
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

BitPlaneSet::BitPlaneSet(int cols, int bits, int capacity_rows)
    : cols_(cols), bits_(bits), words_((cols + 63) / 64),
      stride_(planeStrideWords(words_)), revision_(nextRevision())
{
    PADE_CHECK_GE(bits_, 2);
    PADE_CHECK_LE(bits_, 8);
    PADE_CHECK_GE(cols_, 0);
    PADE_CHECK_GE(capacity_rows, 0);
    storage_.reserve(static_cast<std::size_t>(capacity_rows) * bits_ *
                     stride_);
    popcounts_.reserve(static_cast<std::size_t>(capacity_rows) * bits_);
    checkStorageAligned(storage_.data());
}

void
BitPlaneSet::appendToken(std::span<const int8_t> row)
{
    PADE_CHECK_EQ(static_cast<int>(row.size()), cols_);
    const int lo = -(1 << (bits_ - 1));
    const int hi = (1 << (bits_ - 1)) - 1;
    (void)lo;
    (void)hi;

    // Grow by one row block (bits_ planes of stride_ words each);
    // within the reserved capacity this never reallocates, and the new
    // words start zeroed so the alignment/zero-padding storage
    // contract holds for the appended row too.
    revision_ = nextRevision();
    const int row_idx = rows_++;
    storage_.resize(storage_.size() +
                        static_cast<std::size_t>(bits_) * stride_,
                    0);
    popcounts_.resize(popcounts_.size() + bits_, 0);
    checkStorageAligned(storage_.data());

    for (int col = 0; col < cols_; col++) {
        const int v = row[col];
        PADE_DCHECK(v >= lo && v <= hi);
        // Two's complement over the low `bits_` bits represents v
        // exactly when it is in range.
        const uint8_t u = static_cast<uint8_t>(v) &
            static_cast<uint8_t>((1u << bits_) - 1);
        for (int r = 0; r < bits_; r++) {
            const int bitpos = bits_ - 1 - r;
            if ((u >> bitpos) & 1u) {
                storage_[planeIndex(row_idx, r) + col / 64] |=
                    1ULL << (col % 64);
                popcounts_[static_cast<size_t>(row_idx) * bits_ + r]++;
            }
        }
    }
}

int
BitPlaneSet::planeWeight(int r) const
{
    PADE_DCHECK(r >= 0 && r < bits_);
    if (r == 0)
        return -(1 << (bits_ - 1));
    return 1 << (bits_ - 1 - r);
}

int
BitPlaneSet::remainingMagnitude(int r) const
{
    PADE_DCHECK(r >= 0 && r < bits_);
    return (1 << (bits_ - 1 - r)) - 1;
}

bool
BitPlaneSet::bit(int row, int r, int col) const
{
    PADE_DCHECK(col >= 0 && col < cols_);
    return (storage_[planeIndex(row, r) + col / 64] >> (col % 64)) & 1ULL;
}

std::span<const uint64_t>
BitPlaneSet::plane(int row, int r) const
{
    const uint64_t *p = storage_.data() + planeIndex(row, r);
    assertPlaneAligned(p);
    return {p, static_cast<size_t>(words_)};
}

std::span<const uint64_t>
BitPlaneSet::rowPlanes(int row) const
{
    PADE_DCHECK(row >= 0 && row < rows_);
    const uint64_t *p = storage_.data() + planeIndex(row, 0);
    assertPlaneAligned(p);
    return {p, static_cast<size_t>(bits_) * stride_};
}

int
BitPlaneSet::popcount(int row, int r) const
{
    PADE_DCHECK(row >= 0 && row < rows_ && r >= 0 && r < bits_);
    return popcounts_[static_cast<size_t>(row) * bits_ + r];
}

int
BitPlaneSet::reconstruct(int row, int col, int r) const
{
    int v = 0;
    for (int p = 0; p <= r; p++)
        if (bit(row, p, col))
            v += planeWeight(p);
    return v;
}

QueryPlanes::QueryPlanes(std::span<const int8_t> q, int bits)
{
    assign(q, bits);
}

void
QueryPlanes::assign(std::span<const int8_t> q, int bits)
{
    cols_ = static_cast<int>(q.size());
    words_ = (cols_ + 63) / 64;
    stride_ = planeStrideWords(words_);

    if (bits == 0) {
        // Minimal two's-complement width covering the value range:
        // v in [-2^{b-1}, 2^{b-1} - 1].
        int lo = 0;
        int hi = 0;
        for (int8_t v : q) {
            lo = std::min<int>(lo, v);
            hi = std::max<int>(hi, v);
        }
        bits = 1;
        while (lo < -(1 << (bits - 1)) || hi > (1 << (bits - 1)) - 1)
            bits++;
    }
    PADE_CHECK_GE(bits, 1);
    PADE_CHECK_LE(bits, 8);
    bits_ = bits;

    storage_.assign(static_cast<std::size_t>(bits_) * stride_, 0);
    checkStorageAligned(storage_.data());
    for (int col = 0; col < cols_; col++) {
        const uint8_t u = static_cast<uint8_t>(q[col]) &
            static_cast<uint8_t>((1u << bits_) - 1);
        for (int t = 0; t < bits_; t++) {
            if ((u >> (bits_ - 1 - t)) & 1u)
                storage_[static_cast<std::size_t>(t) * stride_ +
                         col / 64] |= 1ULL << (col % 64);
        }
    }

    // The byte value mirror is rebuilt lazily on first simdView() —
    // scalar/popcount executions never pay for it.
    values_valid_ = false;
}

void
QueryPlanes::buildValues() const
{
    // Byte mirror for the AVX2 value-domain kernel (see the header):
    // the sign-extended reconstruction of the packed planes, NOT the
    // raw assign() input, so plane-domain and value-domain sums agree
    // bit for bit even if a caller-forced narrow width truncated
    // values.
    values_.assign((static_cast<std::size_t>(cols_) + 31) / 32 * 32,
                   0);
    const int shift = 8 - bits_;
    for (int col = 0; col < cols_; col++) {
        unsigned u = 0;
        for (int t = 0; t < bits_; t++)
            u = (u << 1) | static_cast<unsigned>(bit(t, col));
        values_[col] = static_cast<int8_t>(
            static_cast<int8_t>(u << shift) >> shift);
    }
    values_valid_ = true;
}

int
QueryPlanes::planeWeight(int t) const
{
    PADE_DCHECK(t >= 0 && t < bits_);
    if (t == 0)
        return -(1 << (bits_ - 1));
    return 1 << (bits_ - 1 - t);
}

bool
QueryPlanes::bit(int t, int col) const
{
    PADE_DCHECK(col >= 0 && col < cols_);
    return (storage_[static_cast<std::size_t>(t) * stride_ +
                     col / 64] >> (col % 64)) & 1ULL;
}

std::span<const uint64_t>
QueryPlanes::plane(int t) const
{
    PADE_DCHECK(t >= 0 && t < bits_);
    const uint64_t *p =
        storage_.data() + static_cast<std::size_t>(t) * stride_;
    assertPlaneAligned(p);
    return {p, static_cast<std::size_t>(words_)};
}

simd::QPlaneView
QueryPlanes::simdView() const
{
    assertPlaneAligned(storage_.data());
    if (!values_valid_)
        buildValues();
    return {storage_.data(), values_.data(), stride_, bits_, cols_};
}

simd::QPlaneView
QueryPlanes::planeView() const
{
    assertPlaneAligned(storage_.data());
    return {storage_.data(), nullptr, stride_, bits_, cols_};
}

int64_t
QueryPlanes::maskedSumSimd(std::span<const uint64_t> mask) const
{
    PADE_DCHECK(static_cast<int>(mask.size()) == words_);
    if (!qkSimdAvailable())
        return maskedSum(mask);
    return simd::maskedSumAvx2(simdView(), mask.data(), words_);
}

int64_t
partialDot(std::span<const int8_t> q, const BitPlaneSet &keys, int row,
           int r)
{
    return partialDot(QueryPlanes(q), keys, row, r);
}

int64_t
partialDot(const QueryPlanes &q, const BitPlaneSet &keys, int row, int r)
{
    PADE_DCHECK(q.numCols() == keys.numCols());
    int64_t total = 0;
    for (int p = 0; p <= r; p++)
        total += static_cast<int64_t>(keys.planeWeight(p)) *
            q.maskedSum(keys.plane(row, p));
    return total;
}

int64_t
partialDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
                 int row, int r)
{
    PADE_DCHECK(static_cast<int>(q.size()) == keys.numCols());
    int64_t total = 0;
    for (int p = 0; p <= r; p++) {
        int64_t plane_sum = 0;
        auto words = keys.plane(row, p);
        for (int w = 0; w < keys.wordsPerPlane(); w++) {
            uint64_t bits = words[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                plane_sum += q[w * 64 + b];
                bits &= bits - 1;
            }
        }
        total += static_cast<int64_t>(keys.planeWeight(p)) * plane_sum;
    }
    return total;
}

int64_t
partialDotSimd(const QueryPlanes &q, const BitPlaneSet &keys, int row,
               int r)
{
    PADE_DCHECK(q.numCols() == keys.numCols());
    PADE_DCHECK(r >= 0 && r < keys.numPlanes());
    if (!qkSimdAvailable())
        return partialDot(q, keys, row, r);
    const simd::QPlaneView view = q.simdView();
    return simd::dotPlanesAvx2(view, keys.rowPlanes(row).data(),
                               keys.planeStride(), keys.numPlanes(),
                               r + 1, keys.wordsPerPlane());
}

int64_t
exactDot(std::span<const int8_t> q, const BitPlaneSet &keys, int row)
{
    return partialDot(q, keys, row, keys.numPlanes() - 1);
}

int64_t
exactDot(const QueryPlanes &q, const BitPlaneSet &keys, int row)
{
    return partialDot(q, keys, row, keys.numPlanes() - 1);
}

int64_t
exactDotScalar(std::span<const int8_t> q, const BitPlaneSet &keys,
               int row)
{
    return partialDotScalar(q, keys, row, keys.numPlanes() - 1);
}

int64_t
exactDotSimd(const QueryPlanes &q, const BitPlaneSet &keys, int row)
{
    return partialDotSimd(q, keys, row, keys.numPlanes() - 1);
}

} // namespace pade
