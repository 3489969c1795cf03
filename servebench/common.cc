#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "core/simd/qk_dispatch.h"
#include "obs/telemetry.h"
#include "runtime/thread_pool.h"

namespace servebench {

namespace {

pade::TraceSpec
traceSpec(int requests, double rate, int prompt_min, int prompt_max,
          int decode_min, int decode_max, int prefix_groups = 0,
          int prefix_tokens = 0)
{
    pade::TraceSpec s;
    s.num_requests = requests;
    s.rate_per_s = rate;
    s.prompt_min = prompt_min;
    s.prompt_max = prompt_max;
    s.decode_min = decode_min;
    s.decode_max = decode_max;
    s.prefix_groups = prefix_groups;
    s.prefix_tokens = prefix_tokens;
    return s;
}

// A run pools every request of its traces, so that a seed's draws
// (prompt lengths, prefix groups, arrival gaps) move the result
// little; length ranges are narrow for the same reason. Each trace is
// served several times so that it can keep its best serve.
const Workload kWorkloads[] = {
    // Open loop at about a twelfth of one worker's saturation (~12
    // req/s): prefill and prefix adoption dominate and decode contexts
    // stay short. At a sixth of saturation and above, host-speed noise
    // changed which sessions shared a round, and TPOT jumped between
    // serves of the same trace. 24 requests per trace: with 3 traces
    // of 16, the few cold prefix misses of each trace decided the
    // result (trace throughput differed by 40%).
    {"chat_prefix", traceSpec(24, 1.0, 64, 128, 16, 24, 4, 256), true, true,
     {}},
    // Decode under a StreamingLLM window dominates: scans, QK kernels
    // and GQA fan-out over O(window) keys while the context grows to
    // ~770, with KV pages dropped while reads go on. The prefix cache
    // does no work, so a prefix-cache change must show no change here.
    {"stream_window", traceSpec(4, 1.0, 256, 320, 384, 448), false,
     false, pade::RetentionPolicy{4, 252}},
};

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL);
    return pade::splitMix64(state);
}

} // namespace

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::vector<pade::ServingRequest>
makeTrace(const Workload &w, uint64_t seed, int index, bool smoke)
{
    pade::TraceSpec spec = w.spec;
    uint64_t name_hash = 1469598103934665603ULL; // FNV-1a
    for (const char *c = w.name; *c; c++)
        name_hash = (name_hash ^ static_cast<unsigned char>(*c)) *
            1099511628211ULL;
    spec.seed = mixSeed(mixSeed(seed, name_hash),
                        static_cast<uint64_t>(index));
    if (smoke) {
        spec.num_requests = 3;
        spec.prompt_min = 16;
        spec.prompt_max = 48;
        spec.decode_min = 4;
        spec.decode_max = 8;
        if (spec.prefix_groups > 0) {
            spec.prefix_groups = 1;
            spec.prefix_tokens = kPageTokens;
        }
    }
    std::vector<pade::ServingRequest> trace =
        pade::poissonArrivalTrace(spec);
    if (!w.open_loop)
        for (pade::ServingRequest &r : trace)
            r.arrival_ms = 0.0;
    return trace;
}

pade::BatcherOptions
servingOptions(const Workload &w, int threads)
{
    pade::BatcherOptions o;
    o.threads = threads;
    o.max_active = kSlots;
    o.prefill_chunk = kPrefillChunk;
    o.layers = kLayers;
    o.heads = kHeads;
    o.kv_heads = kKvHeads;
    o.head_dim = kHeadDim;
    o.bits = kBits;
    o.page_tokens = kPageTokens;
    o.prefix_cache = w.prefix_cache;
    o.retention = w.retention;
    return o;
}

Oracle
computeOracle(const Workload &w,
              std::span<const pade::ServingRequest> trace)
{
    pade::BatcherOptions opt = servingOptions(w, 1);
    opt.pipeline = false;
    const pade::ServingReport r = pade::ContinuousBatcher(opt).run(trace);
    Oracle oracle;
    for (const pade::SessionStats &s : r.sessions) {
        oracle.checksum.push_back(s.checksum);
        oracle.prefill_checksum.push_back(s.prefill_checksum);
    }
    return oracle;
}

int
countFailures(std::span<const pade::ServingRequest> trace,
              const Oracle &oracle, const pade::ServingReport &report)
{
    uint64_t want_prefill = 0;
    uint64_t want_decode = 0;
    int failed = 0;
    for (std::size_t i = 0; i < trace.size(); i++) {
        want_prefill += static_cast<uint64_t>(trace[i].prompt_len);
        want_decode += static_cast<uint64_t>(trace[i].decode_steps);
        const bool served = i < report.sessions.size() &&
            report.sessions[i].admit_seq >= 0;
        if (!served ||
            report.sessions[i].checksum != oracle.checksum[i] ||
            report.sessions[i].prefill_checksum !=
                oracle.prefill_checksum[i])
            failed++;
    }
    // Every requested token must have been prefilled and decoded.
    if (failed == 0 && (report.tokens_prefilled != want_prefill ||
                        report.tokens_decoded != want_decode))
        failed = 1;
    return failed;
}

int
hostThreads()
{
    return pade::ThreadPool::hardwareThreads();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void
printManifest()
{
    std::printf("manifest {\"serve_threads\": %d, \"host_threads\": %d, "
                "\"qk_kernel\": \"%s\", \"telemetry\": %s, "
                "\"compiler_version\": \"%s\", \"ndebug\": %s}\n",
                kServeThreads, hostThreads(),
                pade::qkKernelName(
                    pade::resolveQkKernel(pade::defaultQkKernel())),
                pade::obs::kTelemetryEnabled ? "true" : "false",
                __VERSION__,
#ifdef NDEBUG
                "true"
#else
                "false"
#endif
    );
}

void
printResult(bool correct, long attempted, long failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %16.6f %-8s n=%ld%s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples,
                    m.gated ? "" : " (reported only)");
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char *sep = "";
    for (const Metric &m : metrics) {
        if (!m.gated)
            continue;
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    sep, m.name.c_str(), v, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace servebench
