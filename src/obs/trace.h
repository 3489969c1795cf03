/**
 * @file
 * Scoped trace spans recorded into per-thread ring buffers and
 * exported as Chrome trace_event JSON (chrome://tracing, Perfetto).
 *
 * A span is (name, tid, start, duration, up to two integer args).
 * Recording is designed for coarse units — a batcher round, a
 * pipeline unit, a prefill chunk — not per-key loops:
 *
 *  - Tracing is off until setTraceEnabled(true); a disabled span is
 *    one relaxed atomic load (see ScopedSpan's constructor), so
 *    instrumented code pays ~nothing in normal operation.
 *  - An enabled span takes two steady_clock stamps and appends one
 *    fixed-size event to its *own thread's* ring buffer under that
 *    buffer's (uncontended) mutex. Buffers overwrite their oldest
 *    events when full and count the overwrites (TraceStats::dropped)
 *    — tracing never blocks or allocates on the hot path after the
 *    buffer exists.
 *  - Export walks all buffers (including those of exited threads —
 *    ownership is shared with a global list) and emits a single JSON
 *    document of "X" (complete) and "i" (instant) events with
 *    microsecond timestamps relative to the process trace epoch.
 *
 * Names and arg keys must be string literals (or otherwise outlive
 * the trace): events store the pointer, not a copy.
 *
 * Compiled out when the CMake option PADE_TELEMETRY is OFF: recording
 * inlines to nothing and the exporter produces a valid empty trace.
 */

#ifndef PADE_OBS_TRACE_H
#define PADE_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "obs/telemetry.h"

namespace pade::obs {

/** One named integer attached to a span or instant event. */
struct TraceArg
{
    const char *key; //!< string literal; stored by pointer
    int64_t value;
};

namespace detail {

inline std::atomic<bool> g_trace_enabled{false};

/** Outlined slow paths; only called when tracing is enabled. */
int64_t traceNowNs();
void recordComplete(const char *name, int64_t start_ns,
                    int64_t dur_ns, const TraceArg *args, int nargs);
void recordInstant(const char *name, const TraceArg *args, int nargs);

} // namespace detail

/** True after setTraceEnabled(true); relaxed read, hot-path safe. */
inline bool
traceEnabled()
{
#if PADE_TELEMETRY_ENABLED
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/** Turns span recording on or off process-wide. */
void setTraceEnabled(bool on);

/** Discards all recorded events (buffers stay registered). */
void clearTrace();

/**
 * Ring capacity, in events, applied to every buffer (existing
 * buffers are cleared and resized; cold, for tests and tools).
 * Default is 16384 events per thread (~1 MiB).
 */
void setTraceCapacity(std::size_t events);

/** Counts since the last clearTrace(). */
struct TraceStats
{
    uint64_t recorded = 0; //!< events ever recorded
    uint64_t dropped = 0;  //!< of those, overwritten by ring wrap
    int threads = 0;       //!< buffers registered
};

TraceStats traceStats();

/** Records a zero-duration "i" event (admission, eviction, ...). */
inline void
traceInstant(const char *name, std::initializer_list<TraceArg> args)
{
    if (traceEnabled())
        detail::recordInstant(name, args.begin(),
                              static_cast<int>(args.size()));
}

inline void
traceInstant(const char *name)
{
    traceInstant(name, {});
}

/**
 * RAII timer: records one complete ("X") event covering its own
 * lifetime. Cheap enough to leave in place permanently; see file
 * comment for the disabled-path cost.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : ScopedSpan(name, {}) {}

    ScopedSpan(const char *name, std::initializer_list<TraceArg> args)
    {
        if (traceEnabled())
        {
            name_ = name;
            nargs_ = 0;
            for (const TraceArg &a : args)
            {
                if (nargs_ == kMaxArgs)
                    break;
                args_[nargs_++] = a;
            }
            start_ns_ = detail::traceNowNs();
        }
    }

    ~ScopedSpan()
    {
        if (name_ != nullptr && traceEnabled())
            detail::recordComplete(name_, start_ns_,
                                   detail::traceNowNs() - start_ns_,
                                   args_, nargs_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    static constexpr int kMaxArgs = 2;

    const char *name_ = nullptr; //!< null => disabled at entry
    int64_t start_ns_ = 0;
    TraceArg args_[kMaxArgs] = {};
    int nargs_ = 0;
};

/**
 * The whole trace as a Chrome trace_event JSON document:
 * {"traceEvents":[...],"displayTimeUnit":"ms"}. Events are sorted by
 * timestamp; valid (and empty) when nothing was recorded.
 */
std::string chromeTraceJson();

} // namespace pade::obs

#endif // PADE_OBS_TRACE_H
