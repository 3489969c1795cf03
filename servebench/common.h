/**
 * @file
 * Shared pieces of the serving benchmark: the fixed model slice, the
 * traffic mixes, trace generation from a seed, the serial oracle, the
 * correctness gate, and result printing.
 *
 * Every run uses one model slice — 2 layers, 8 query heads on 2 KV
 * heads (GQA 4:1), head_dim 64, 8-bit keys, 64-token pages, 128-token
 * prefill chunks, 8 slots — so numbers from different workloads and
 * different layers describe the same geometry.
 */

#ifndef SERVEBENCH_COMMON_H
#define SERVEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serving/continuous_batcher.h"
#include "workload/generator.h"

namespace servebench {

inline constexpr int kLayers = 2;
inline constexpr int kHeads = 8;
inline constexpr int kKvHeads = 2;
inline constexpr int kHeadDim = 64;
inline constexpr int kBits = 8;
inline constexpr int kPageTokens = 64;
inline constexpr int kPrefillChunk = 128;
inline constexpr int kSlots = 8;

/**
 * Serving workers of the timed serves and of the traced run's
 * real-clock legs. One: on a shared multi-tenant host, more workers
 * made each serve's wall depend on the other tenants (see README.md).
 * The traced run's wide probes use every hardware thread.
 */
inline constexpr int kServeThreads = 1;

/** SLO used by slo_attain_frac (chat_prefix's interactive target). */
inline constexpr double kSloTtftMs = 500.0;
inline constexpr double kSloTpotMs = 25.0;

/** One traffic mix. */
struct Workload
{
    const char *name;
    pade::TraceSpec spec; //!< seed is filled per sub-trace
    bool open_loop;       //!< false: every request arrives at t = 0
    bool prefix_cache;
    pade::RetentionPolicy retention;
};

/** Command-line settings of one benchmark run. */
struct RunConfig
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool smoke = false;    //!< tiny traces, one pass (self-test)
    /** Self-test: corrupt one expected checksum per trace, which the
     *  correctness gate must report as a failure. */
    bool corrupt_oracle = false;
    std::string tmpdir = "."; //!< where the traced leg writes spans
};

/** Workload by name (BENCHMARK.json's names); nullptr when unknown. */
const Workload *findWorkload(std::string_view name);

/** Traces a --trace 0 run serves; its metrics pool their requests. */
inline constexpr int kTracesPerRun = 4;

/** Leading requests of trace 0 that the traced run replays. */
inline constexpr int kReplayRequests = 16;

/**
 * Trace @p index of a run seeded with @p seed: poissonArrivalTrace
 * with a seed mixed from (seed, workload name, index), so the same
 * seed gives the same inputs. @p smoke shrinks it to a few short
 * requests (self-test mode).
 */
std::vector<pade::ServingRequest> makeTrace(const Workload &w,
                                            uint64_t seed, int index,
                                            bool smoke);

/** Batcher options of the serving path at @p threads workers. */
pade::BatcherOptions servingOptions(const Workload &w, int threads);

/** Traced run (per-layer metrics); defined in replay.cc. */
int runTraced(const RunConfig &cfg);

/** Expected per-request checksums. */
struct Oracle
{
    std::vector<uint64_t> checksum;
    std::vector<uint64_t> prefill_checksum;
};

/**
 * Serial oracle: @p trace served once on a 1-worker, pipeline=false
 * batcher — the library's serial reference schedule. Per-session
 * checksums do not depend on threads, pipelining, co-residency or
 * prefix adoption, so these are the values every timed serve must
 * reproduce.
 */
Oracle computeOracle(const Workload &w,
                     std::span<const pade::ServingRequest> trace);

/**
 * Requests of @p report that were not served completely or whose
 * checksums differ from @p oracle.
 */
int countFailures(std::span<const pade::ServingRequest> trace,
                  const Oracle &oracle,
                  const pade::ServingReport &report);

/** Hardware threads of the host (at least 1). */
int hostThreads();

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Median of @p v (0 for an empty set). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100] of @p v. */
double percentile(std::vector<double> v, double p);

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value;
    long samples; //!< observations behind the value
    /** false: printed for the reader but left out of the result
     *  object (not one of BENCHMARK.json's metrics). */
    bool gated = true;
};

/**
 * Print the program's `manifest {...}` line: what only the built
 * program knows (resolved QK kernel, telemetry, compiler). run.py
 * prints the host's facts in a second line of the same format.
 */
void printManifest();

/**
 * Print each metric as a human-readable line, then the result object
 * (gated metrics only) as the last line of stdout.
 */
void printResult(bool correct, long attempted, long failed,
                 const std::vector<Metric> &metrics);

} // namespace servebench

#endif // SERVEBENCH_COMMON_H
