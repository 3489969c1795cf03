/**
 * @file
 * Continuous-batching serving demo: a Poisson arrival trace of mixed
 * prefill+decode requests served through the incremental KV-cache
 * engine (`ContinuousBatcher` on the shared `ThreadPool`), with the
 * cross-session prefix cache on (requests share seeded prompt
 * prefixes, so later arrivals adopt the pages earlier ones built).
 *
 *   $ ./batch_serving [--requests 24] [--rate 200] [--slots 4]
 *                     [--threads 0] [--layers 1] [--seed 42]
 *                     [--trace out.json] [--stats stats.json]
 *
 * --layers deepens each session's model, and with it the engine's
 * token pipeline (up to `layers` units in flight per session).
 *
 * The same trace is served twice — on 1 worker and on all cores — to
 * show that (a) every decoded token AND every scored prefill output
 * is bit-for-bit identical regardless of thread count (the
 * per-session computation is sequential and seeded; only latency is
 * a host measurement), and (b) wall-clock and tail latency improve
 * with the machine.
 *
 * Telemetry artifacts (docs/OBSERVABILITY.md): --trace writes a
 * Chrome trace_event JSON of the multi-worker run (open in
 * chrome://tracing or https://ui.perfetto.dev) and --stats writes the
 * run's metric-registry delta — lane-idle ratio, KV bytes per
 * token, prefix-cache hit counters. --trace alone also writes the
 * stats next to it (<trace>.stats.json), so one flag produces both
 * artifacts.
 *
 * Exit status is nonzero if the two runs' token checksums diverge,
 * any request fails to finish, or the trace or stats file cannot be
 * written, so CI can smoke-test the scheduler.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/json_writer.h"
#include "serving/continuous_batcher.h"
#include "serving/report_format.h"
#include "workload/generator.h"

using namespace pade;
using namespace pade::bench;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const int n = static_cast<int>(cli.getInt("requests", 24));
    const double rate = cli.getDouble("rate", 200.0);
    const int slots = static_cast<int>(cli.getInt("slots", 4));
    const int threads = static_cast<int>(cli.getInt("threads", 0));
    const int layers = static_cast<int>(cli.getInt("layers", 1));
    const uint64_t seed =
        static_cast<uint64_t>(cli.getInt("seed", 42));
    const std::string trace_file = cli.get("trace", "");
    std::string stats_file = cli.get("stats", "");
    if (stats_file.empty() && !trace_file.empty())
        stats_file = trace_file + ".stats.json";
    banner("Continuous batching on the PADE serving engine");

    TraceSpec ts;
    ts.num_requests = n;
    ts.rate_per_s = rate;
    ts.prompt_min = 64;
    ts.prompt_max = 512;
    ts.decode_min = 8;
    ts.decode_max = 48;
    // Two shared-prefix families: page-aligned 128-token prefixes so
    // the prefix cache has real hits to count in the stats snapshot.
    ts.prefix_groups = 2;
    ts.prefix_tokens = 128;
    ts.seed = seed;
    const std::vector<ServingRequest> trace = poissonArrivalTrace(ts);

    BatcherOptions opt;
    opt.max_active = slots;
    opt.head_dim = 64;
    opt.prefill_chunk = 128;
    // 64-token pages make the 128-token prefixes exactly two shared
    // pages; prefix caching is numerically transparent (see
    // serving/continuous_batcher.h), so both runs keep it on.
    opt.page_tokens = 64;
    opt.prefix_cache = true;
    opt.layers = layers;

    opt.threads = 1;
    const ServingReport seq = ContinuousBatcher(opt).run(trace);
    const int workers =
        threads > 0 ? threads : ThreadPool::hardwareThreads();
    opt.threads = workers;
    opt.trace_file = trace_file; // only the parallel run is traced
    const ServingReport par = ContinuousBatcher(opt).run(trace);

    Table t;
    t.header({"#", "arrive ms", "prompt", "steps", "queue ms",
              "ttft ms", "latency ms"});
    for (std::size_t i = 0; i < par.sessions.size(); i++) {
        const SessionStats &s = par.sessions[i];
        t.row({std::to_string(i), Table::num(s.arrival_ms, 1),
               std::to_string(s.prompt_len),
               std::to_string(s.decode_steps),
               Table::num(s.admit_ms - s.arrival_ms, 1),
               Table::num(s.first_token_ms - s.arrival_ms, 1),
               Table::num(s.finish_ms - s.arrival_ms, 1)});
    }
    t.print();

    std::printf("\n%s", formatServingReport("1 worker ", seq).c_str());
    char label[32];
    std::snprintf(label, sizeof(label), "%d workers", workers);
    std::printf("%s", formatServingReport(label, par).c_str());

    if (!stats_file.empty()) {
        if (!writeTextFile(stats_file, par.telemetry + '\n')) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_file.c_str());
            return 1;
        }
        std::printf("stats snapshot    : %s\n", stats_file.c_str());
    }
    if (!trace_file.empty()) {
        if (!par.trace_written) {
            std::fprintf(stderr, "cannot write %s\n",
                         trace_file.c_str());
            return 1;
        }
        std::printf("chrome trace      : %s (chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    trace_file.c_str());
    }

    // Real completion gate: every prompt token prefilled and every
    // requested token decoded, in both runs, per the trace itself.
    uint64_t want_prefill = 0;
    uint64_t want_decode = 0;
    for (const ServingRequest &r : trace) {
        want_prefill += static_cast<uint64_t>(r.prompt_len);
        want_decode += static_cast<uint64_t>(r.decode_steps);
    }
    const bool identical = seq.checksum == par.checksum &&
        seq.prefill_checksum == par.prefill_checksum;
    const bool complete = par.tokens_decoded == want_decode &&
        seq.tokens_decoded == want_decode &&
        par.tokens_prefilled == want_prefill &&
        seq.tokens_prefilled == want_prefill;
    std::printf("\nwall-clock: %.1f ms -> %.1f ms (%.2fx); token "
                "streams %s across thread counts\n",
                seq.wall_ms, par.wall_ms,
                seq.wall_ms / std::max(par.wall_ms, 1e-9),
                identical ? "bit-identical" : "DIVERGED");
    return (identical && complete) ? 0 : 1;
}
