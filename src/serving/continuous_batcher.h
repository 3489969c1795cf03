/**
 * @file
 * Continuous-batching serving loop over model-granularity sessions.
 *
 * The batcher turns the library from a per-head simulator into a
 * request-level serving engine: requests arrive on a (Poisson) trace,
 * are admitted into a bounded set of active *sessions*, and every
 * scheduling round advances each active session by one unit of work —
 * workload materialization, a scored prefill chunk, or one decoded
 * token — through its own `ModelEngine::drain`, the sessions fanned
 * across a ThreadPool in one parallelFor (inline on the caller when
 * the pool or the host has one lane, or one session is active; the
 * pool reaches the engines' nested fan-outs only while sessions
 * alone cannot fill the lanes). Finished sessions are evicted
 * immediately (their KV pages freed), opening the slot for the next
 * queued request: the continuous-batching discipline, as opposed to
 * static batching where a batch drains at the pace of its longest
 * member.
 *
 * Sessions are whole *models*, not single layers: each owns a
 * `ModelEngine` — `layers` LayerEngines, each one `KvCache` per KV
 * head shared by heads/kv_heads grouped query heads (GQA) — and every
 * prefill/decode unit drains the engine's software pipeline, so token
 * t's layer-l work overlaps token t+1's layer-(l-1) work on the pool
 * (serving/model_engine.h proves that schedule bit-identical to the
 * serial layer loop). Prefill *scores*: each prefill round feeds a
 * chunk of prompt positions through every layer, bit-identical to
 * whole-prompt padeAttention (prefill outputs feed
 * `SessionStats::prefill_checksum`; decode outputs feed `checksum`).
 *
 * Cross-session prefix caching (`BatcherOptions::prefix_cache`): one
 * PrefixIndex is shared by all slots of a run. At materialization a
 * session looks its prompt's prefix page chain up and adopts every
 * matched page read-only — skipping the packing *and* the scored
 * prefill of those tokens; after its own prefix completes it
 * publishes the pages for later arrivals. Because workload prefix
 * rows are pure functions of the prefix stream and quantization
 * scales are static (workload/generator.h, ModelWorkload), an
 * adopted page is byte-identical to the page the session would have
 * built — decode outputs, and therefore `checksum`, do not depend on
 * whether a prefix hit occurred, and `prefill_checksum` mixes only
 * positions >= the request's prefix_len so both checksums stay
 * thread-count- and timing-invariant.
 *
 * Admission order: priority first (higher `ServingRequest::priority`
 * wins), arrival/trace order as the tie-break — deterministic for any
 * thread count. `SessionStats::admit_seq` records the resulting
 * global admission sequence.
 *
 * Concurrency: sessions advance on pool workers and touch disjoint
 * state; the one shared object inside a round is the PrefixIndex,
 * which is internally mutex'd. Everything a round reports — prefix
 * publication, resident KV bytes, first-token times — is gathered on
 * the scheduler thread after the round's barrier, in session order.
 * Admission invariants (slot count, prefill chunk, GQA divisibility,
 * trace monotonicity) are PADE_CHECKs: violations abort in Release
 * servers, not only in test builds.
 *
 * Clock model: admission and latency run on a virtual clock that
 * advances by each round's measured host wall time, and jumps forward
 * to the next arrival when the engine is idle. Token *outputs* (and
 * the report checksums) are bit-deterministic for any thread count —
 * each session's computation is sequential and seeded, and the
 * in-session KV-head fan-out reduces in fixed order — while latency
 * *values* are host timings and therefore noisy; tests assert the
 * former and only shape properties of the latter.
 */

#ifndef PADE_SERVING_CONTINUOUS_BATCHER_H
#define PADE_SERVING_CONTINUOUS_BATCHER_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/run_metrics.h"
#include "core/pade_attention.h"
#include "serving/decode_engine.h"
#include "serving/prefix_index.h"
#include "workload/generator.h"

namespace pade {

/** Scheduling and per-session workload knobs. */
struct BatcherOptions
{
    int threads = 0;       //!< pool workers; 0 = hardware threads
    int max_active = 4;    //!< concurrent sessions (slots)
    int prefill_chunk = 64; //!< prompt tokens appended+scored per round
    int layers = 1;        //!< transformer layers per session
    int heads = 1;         //!< query heads per layer
    int kv_heads = 1;      //!< shared K/V streams (< heads => GQA)
    int head_dim = 64;     //!< per-head geometry
    int bits = 8;
    int page_tokens = 256; //!< KvCache page capacity
    /** false = serial layer-by-layer schedule (the reference the
     *  pipelined engine is differentially tested against). */
    bool pipeline = true;
    /** Share full prefix KV pages across sessions via a PrefixIndex. */
    bool prefix_cache = false;
    /** Shared-page byte budget of the index; 0 = unbounded. */
    std::size_t prefix_cache_bytes = 0;
    /** Virtual milliseconds each scheduling round advances the
     *  admission clock. Negative (the default) uses the round's real
     *  host wall time, so latency percentiles reflect machine speed —
     *  but then WHICH sessions are co-resident depends on timing, and
     *  co-residency-derived results (peak_cache_bytes, peak_active,
     *  prefix-publish order) are not reproducible across runs or
     *  thread counts. Tests asserting schedule invariants set a fixed
     *  value to make the admission schedule a pure function of the
     *  trace. */
    double fixed_round_ms = -1.0;
    double concentration = 1.0; //!< workload-generator knobs
    double locality = 0.5;
    PadeConfig pade;       //!< decode algorithm configuration
    RetentionPolicy retention; //!< optional sink+recency KV eviction
    /**
     * Non-empty: enable span recording for the run and write the
     * Chrome trace_event JSON (chrome://tracing / Perfetto) here at
     * the end. Spans cover batcher rounds, per-session units
     * (materialize / prefill chunk / decode token), and ModelEngine
     * pipeline stages; admissions and evictions are instant events.
     * See docs/OBSERVABILITY.md.
     */
    std::string trace_file;
};

/** Per-request timeline, index-aligned with the input trace. */
struct SessionStats
{
    double arrival_ms = 0.0;
    double admit_ms = 0.0;       //!< slot granted (queueing ends)
    int admit_seq = -1;          //!< global admission order (0-based)
    int priority = 0;            //!< scheduling class of the request
    /** First decoded token done; -1 for prefill-only requests
     *  (decode_steps == 0), which are excluded from ttft_ms. */
    double first_token_ms = 0.0;
    double finish_ms = 0.0;      //!< last token done, session evicted
    int prompt_len = 0;
    int decode_steps = 0;
    int prefix_len = 0;        //!< shared-prefix tokens of the request
    /** Prompt tokens adopted from the prefix cache (0 on miss or when
     *  caching is off) — timing-dependent, unlike the checksums. */
    int prefix_hit_tokens = 0;
    uint64_t checksum = 0;         //!< mixed bits of decoded outputs
    /** Mixed bits of prefill outputs at positions >= prefix_len
     *  (prefix positions are excluded so hits and misses agree). */
    uint64_t prefill_checksum = 0;
};

/** Aggregate of one serving run. */
struct ServingReport
{
    std::vector<SessionStats> sessions;
    Percentiles latency_ms; //!< finish - arrival
    Percentiles ttft_ms;    //!< time to first token
    /** Time per output token after the first ((finish - first_token)
     *  / (decoded - 1)); sessions decoding < 2 tokens are excluded. */
    Percentiles tpot_ms;
    double wall_ms = 0.0;     //!< real host wall of the run loop
    double makespan_ms = 0.0; //!< final virtual-clock value
    uint64_t tokens_prefilled = 0;
    uint64_t tokens_decoded = 0;
    double decode_tok_per_s = 0.0; //!< decoded tokens / real wall
    int rounds = 0;
    int peak_active = 0;           //!< most simultaneous sessions
    std::size_t peak_cache_bytes = 0; //!< max resident KV bytes
    /** Prompt tokens served from the prefix cache instead of being
     *  packed and scored (subset of tokens_prefilled). */
    uint64_t tokens_prefix_hit = 0;
    /** KV bytes adopters did not have to materialize privately. */
    std::size_t prefix_bytes_saved = 0;
    /** Prefix-index counters at run end (zeros when caching is off). */
    PrefixIndexStats prefix;
    /** XOR of session decode checksums: thread-count invariant. */
    uint64_t checksum = 0;
    /** XOR of session prefill checksums: thread-count invariant. */
    uint64_t prefill_checksum = 0;
    /**
     * Lane-idle ratio of the run's batcher rounds: the share of lane
     * capacity (lanes x round wall, summed over rounds) in which no
     * ModelEngine unit computed,
     * 1 - model.unit_busy_us / model.round_capacity_us over the run's
     * metric delta. Lanes = min(pool threads, hardware threads), the
     * same for every round: sessions fill them, or the engines'
     * nested fan-outs do when sessions are fewer. Materialization,
     * scheduling and barrier time count as idle. 0 when the library
     * was built without telemetry (PADE_TELEMETRY=OFF) — the counters
     * never move.
     */
    double pipeline_bubble_ratio = 0.0;
    /** KV bytes committed per token the run appended privately
     *  (page-granular; all layers and KV heads of the model). 0
     *  without telemetry. */
    double kv_bytes_per_token = 0.0;
    /**
     * The run's metric delta as a JSON document
     * ({"schema":"pade-serving-telemetry-v1","enabled":...,
     * "derived":{...},"metrics":{...}}); always well-formed, all
     * zeros when built with PADE_TELEMETRY=OFF. Exported verbatim by
     * examples/batch_serving --stats and bench/perf_suite.
     */
    std::string telemetry;
    /** True when BatcherOptions::trace_file was written; false when
     *  no trace was requested or the file could not be written. */
    bool trace_written = false;
};

/**
 * Runs serving traces; stateless between run() calls (options only).
 */
class ContinuousBatcher
{
  public:
    explicit ContinuousBatcher(BatcherOptions opt = {});

    /**
     * Serve @p trace to completion. Arrival times must be
     * non-decreasing (poissonArrivalTrace() guarantees it).
     */
    ServingReport run(std::span<const ServingRequest> trace) const;

  private:
    BatcherOptions opt_;
};

} // namespace pade

#endif // PADE_SERVING_CONTINUOUS_BATCHER_H
