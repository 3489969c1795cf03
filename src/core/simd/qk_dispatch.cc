#include "core/simd/qk_dispatch.h"

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "core/simd/cpu_features.h"
#include "core/simd/qk_avx2.h"
#include "core/simd/qk_avx512.h"

namespace pade {
namespace {

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

} // namespace

const char *
qkKernelName(QkKernel k)
{
    switch (k) {
    case QkKernel::kScalar: return "scalar";
    case QkKernel::kPopcount: return "popcount";
    case QkKernel::kSimd: return "simd";
    }
    return "unknown";
}

std::optional<QkKernel>
qkKernelFromName(std::string_view name)
{
    if (equalsIgnoreCase(name, "scalar"))
        return QkKernel::kScalar;
    if (equalsIgnoreCase(name, "popcount"))
        return QkKernel::kPopcount;
    if (equalsIgnoreCase(name, "simd"))
        return QkKernel::kSimd;
    return std::nullopt;
}

bool
qkSimdAvailable()
{
    static const bool available = [] {
        const simd::CpuFeatures &f = simd::cpuFeatures();
        return simd::qkAvx2Compiled() && f.avx2 && f.os_ymm;
    }();
    return available;
}

bool
qkAvx512Available()
{
    static const bool available = [] {
        const simd::CpuFeatures &f = simd::cpuFeatures();
        return qkSimdAvailable() && simd::qkAvx512Compiled() &&
            f.avx512f && f.avx512_vpopcntdq && f.os_zmm;
    }();
    return available;
}

const char *
qkSimdIsa()
{
    if (qkAvx512Available())
        return "avx512";
    return qkSimdAvailable() ? "avx2" : "none";
}

PrefixScoresFn
simdPrefixScoresKernel()
{
    return qkAvx512Available() ? simd::prefixScoresAvx512
                               : simd::prefixScoresAvx2;
}

QkKernel
defaultQkKernel()
{
    return qkSimdAvailable() ? QkKernel::kSimd : QkKernel::kPopcount;
}

QkKernel
resolveQkKernel(QkKernel requested)
{
    if (const char *env = std::getenv(kQkKernelEnv)) {
        if (const auto k = qkKernelFromName(env)) {
            requested = *k;
        } else if (equalsIgnoreCase(env, "auto")) {
            requested = defaultQkKernel();
        } else {
            // Atomic: padeAttention resolves per call, possibly from
            // many BatchDriver workers at once.
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true, std::memory_order_relaxed))
                std::fprintf(stderr,
                             "pade: ignoring %s=\"%s\" (expected "
                             "scalar|popcount|simd|auto)\n",
                             kQkKernelEnv, env);
        }
    }
    if (requested == QkKernel::kSimd && !qkSimdAvailable())
        return QkKernel::kPopcount;
    return requested;
}

} // namespace pade
