/**
 * @file
 * Serving benchmark program.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--smoke] [--corrupt-oracle] [--tmpdir DIR]
 *
 * --trace 0 (end-to-end): builds kTracesPerRun traces from the seed
 * with poissonArrivalTrace and computes each one's serial oracle (the
 * timed set-up), then serves the traces in turn through the public
 * ContinuousBatcher::run on one worker (see README.md), with span
 * recording off, until `--seconds` have passed.
 * Every served request is checked against its trace's oracle.
 *
 * --trace 1 (per layer): see replay.cc.
 *
 * Output: one `metric NAME VALUE UNIT n=SAMPLES` line per metric, then
 * the result object {"correct", "attempted", "failed", "metrics"} as
 * the last line. Exit status is nonzero on any correctness failure.
 * run.py builds this program and wraps it with the host manifest.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

using namespace servebench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--corrupt-oracle] [--tmpdir DIR]\n",
                 why);
    return 2;
}

/** Strict unsigned parse: the whole string must be digits. */
bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *end == '\0' && s[0] != '-';
}

constexpr double kNone = std::numeric_limits<double>::infinity();

/** One trace's timed values over its serves. */
struct TraceSamples
{
    double best_wall_ms = kNone; //!< fastest serve
    uint64_t tokens = 0;         //!< prompt + decoded tokens per serve
    uint64_t decoded = 0;        //!< decoded tokens per serve
    double peak_kv_mb = 0.0;     //!< over every serve
    /** Per request: lowest TTFT / TPOT over the serves (+inf: none). */
    std::vector<double> best_ttft, best_tpot;
};

int
runEndToEnd(const RunConfig &cfg)
{
    const Workload &w = *cfg.workload;

    // Set-up: generate each trace and compute its serial oracle;
    // setup_s is the median over the traces.
    std::vector<std::vector<pade::ServingRequest>> traces;
    std::vector<Oracle> oracles;
    std::vector<double> setup_s;
    for (int k = 0; k < kTracesPerRun; k++) {
        const auto t_setup = Clock::now();
        traces.push_back(makeTrace(w, cfg.seed, k, cfg.smoke));
        oracles.push_back(computeOracle(w, traces.back()));
        setup_s.push_back(secondsSince(t_setup));
    }
    if (cfg.corrupt_oracle)
        oracles[0].checksum[0] ^= 1;

    // The traces are served in turn until --seconds have passed (each
    // at least once). A co-tenant can only slow a serve down, so a
    // trace keeps its fastest serve and each request its best latency;
    // the run then pools every trace's requests, so that one unusual
    // trace moves the result little.
    const pade::ContinuousBatcher batcher(servingOptions(w, kServeThreads));
    std::vector<TraceSamples> samples(traces.size());
    for (std::size_t k = 0; k < traces.size(); k++) {
        samples[k].best_ttft.assign(traces[k].size(), kNone);
        samples[k].best_tpot.assign(traces[k].size(), kNone);
    }
    long attempted = 0, failed = 0, slo_met = 0, serves = 0;
    const auto t_measure = Clock::now();
    for (int serve = 0;; serve++) {
        const std::size_t k = static_cast<std::size_t>(serve) % traces.size();
        if (serve >= static_cast<int>(traces.size()) &&
            (cfg.smoke || secondsSince(t_measure) >= cfg.seconds))
            break;
        const std::vector<pade::ServingRequest> &trace = traces[k];
        const Oracle &oracle = oracles[k];
        TraceSamples &ts = samples[k];
        const pade::ServingReport rep = batcher.run(trace);
        serves++;
        const int bad = countFailures(trace, oracle, rep);
        attempted += static_cast<long>(trace.size());
        failed += bad;

        // The correctness gate makes these the same on every serve.
        ts.tokens = rep.tokens_prefilled + rep.tokens_decoded;
        ts.decoded = rep.tokens_decoded;
        ts.best_wall_ms = std::min(ts.best_wall_ms, rep.wall_ms);
        const double kv_mb = static_cast<double>(rep.peak_cache_bytes) /
            (1024.0 * 1024.0);
        ts.peak_kv_mb = std::max(ts.peak_kv_mb, kv_mb);
        std::vector<double> ttft, tpot;
        for (std::size_t i = 0; i < rep.sessions.size(); i++) {
            const pade::SessionStats &s = rep.sessions[i];
            if (s.admit_seq < 0)
                continue;
            const double t_first = s.first_token_ms - s.arrival_ms;
            const double t_tok = s.decode_steps >= 2
                ? (s.finish_ms - s.first_token_ms) / (s.decode_steps - 1)
                : 0.0;
            if (s.first_token_ms >= 0.0) {
                ttft.push_back(t_first);
                ts.best_ttft[i] = std::min(ts.best_ttft[i], t_first);
            }
            if (s.decode_steps >= 2) {
                tpot.push_back(t_tok);
                ts.best_tpot[i] = std::min(ts.best_tpot[i], t_tok);
            }
            // A request whose outputs differ from the oracle misses.
            if (s.checksum == oracle.checksum[i] &&
                s.prefill_checksum == oracle.prefill_checksum[i] &&
                t_first <= kSloTtftMs && t_tok <= kSloTpotMs)
                slo_met++;
        }
        std::printf("serve %d (trace %zu): %zu requests, wall %.1f ms, "
                    "%d rounds, %d failed, tok/s %.1f, decode tok/s %.1f, "
                    "ttft %.2f/%.2f ms, tpot %.3f/%.3f ms, kv %.3f MiB\n",
                    serve, k, trace.size(), rep.wall_ms, rep.rounds, bad,
                    static_cast<double>(ts.tokens) / (rep.wall_ms / 1000.0),
                    rep.decode_tok_per_s, percentile(ttft, 50),
                    percentile(ttft, 95), percentile(tpot, 50),
                    percentile(tpot, 95), kv_mb);
    }

    // Pooled over the traces: throughput is their tokens over the sum
    // of their fastest walls, latency a percentile of every request's
    // best value.
    double tokens = 0.0, decoded = 0.0, best_wall_s = 0.0, peak_kv_mb = 0.0;
    std::vector<double> ttft, tpot;
    for (const TraceSamples &ts : samples) {
        tokens += static_cast<double>(ts.tokens);
        decoded += static_cast<double>(ts.decoded);
        best_wall_s += ts.best_wall_ms / 1000.0;
        peak_kv_mb = std::max(peak_kv_mb, ts.peak_kv_mb);
        for (double x : ts.best_ttft)
            if (x != kNone)
                ttft.push_back(x);
        for (double x : ts.best_tpot)
            if (x != kNone)
                tpot.push_back(x);
    }
    std::vector<Metric> metrics = {
        {"setup_s", "s", median(setup_s),
         static_cast<long>(setup_s.size())},
        {"tok_per_s", "tok/s", tokens / best_wall_s, serves},
        {"decode_tok_per_s", "tok/s", decoded / best_wall_s, serves},
        {"ttft_p50_ms", "ms", percentile(ttft, 50),
         static_cast<long>(ttft.size())},
        {"ttft_p95_ms", "ms", percentile(ttft, 95),
         static_cast<long>(ttft.size()), false},
        {"tpot_p50_ms", "ms", percentile(tpot, 50),
         static_cast<long>(tpot.size())},
        {"tpot_p95_ms", "ms", percentile(tpot, 95),
         static_cast<long>(tpot.size()), false},
        {"peak_kv_mb", "MiB", peak_kv_mb, serves, false},
        {"peak_rss_mb", "MiB", peakRssMb(), 1},
        // Reported, not gated: exactly 0 or 1 on many healthy runs,
        // and a gated metric must never read 0.
        {"slo_attain_frac", "frac",
         static_cast<double>(slo_met) / static_cast<double>(attempted),
         attempted, false},
        {"failed_frac", "frac",
         static_cast<double>(failed) / static_cast<double>(attempted),
         attempted, false},
    };
    printManifest();
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool have_seed = false, have_seconds = false;
    int trace = -1;
    for (int i = 1; i < argc; i++) {
        const std::string_view a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        uint64_t num = 0;
        if (a == "--smoke") {
            cfg.smoke = true;
        } else if (a == "--corrupt-oracle") {
            cfg.corrupt_oracle = true;
        } else if (a == "--workload" && v) {
            cfg.workload = findWorkload(v);
            if (!cfg.workload)
                return usage("unknown workload");
            i++;
        } else if (a == "--tmpdir" && v) {
            cfg.tmpdir = v;
            i++;
        } else if (parseUnsigned(v, num) &&
                   (a == "--seed" || a == "--seconds" || a == "--trace")) {
            if (a == "--seed") {
                cfg.seed = num;
                have_seed = true;
            } else if (a == "--seconds") {
                cfg.seconds = static_cast<double>(num);
                have_seconds = num > 0;
            } else {
                trace = num <= 1 ? static_cast<int>(num) : -1;
            }
            i++;
        } else {
            return usage(("bad argument " + std::string(a)).c_str());
        }
    }
    if (!cfg.workload || !have_seed || !have_seconds || trace < 0)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    return trace == 0 ? runEndToEnd(cfg) : runTraced(cfg);
}
