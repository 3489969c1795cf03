/**
 * @file
 * One shared text formatter for serving results. The example programs
 * (batch_serving, model_serving) and any future CLI print
 * ServingReport summaries, percentile lines, and checksum gates
 * through these helpers instead of each keeping its own printf block
 * — one place decides what a report looks like, so adding a field
 * (as PR 9 did with tpot/p999) edits one function.
 */

#ifndef PADE_SERVING_REPORT_FORMAT_H
#define PADE_SERVING_REPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "arch/run_metrics.h"
#include "serving/continuous_batcher.h"

namespace pade {

/**
 * Compact tail summary: "p50/p95/p99 = a/b/c ms (mean m, max M,
 * n=k)". p999 is appended only when the set is large enough for it to
 * differ from max (count >= 1000) — the usual serving-demo sample
 * sizes would print a duplicate of max.
 */
std::string formatPercentiles(const Percentiles &p);

/**
 * Multi-line run summary of @p r, each line prefixed with @p label:
 * token totals and rounds, peak residency, throughput, latency/TTFT/
 * TPOT percentile lines, and — when the report carries telemetry —
 * the derived lane-idle and KV-bytes-per-token ratios.
 */
std::string formatServingReport(std::string_view label,
                                const ServingReport &r);

/**
 * One checksum gate line: "<label>: <16-hex checksum> (<note>)",
 * aligned for stacking several gates.
 */
std::string formatChecksumLine(std::string_view label,
                               uint64_t checksum,
                               std::string_view note);

} // namespace pade

#endif // PADE_SERVING_REPORT_FORMAT_H
