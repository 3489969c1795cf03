#include "serving/model_engine.h"

#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace pade {

namespace {

// Engine telemetry: advance() rounds, the layer units they ran, and
// the wall time each unit computed. The batcher adds the lane
// capacity of its rounds (model.round_capacity_us), so the lane-idle
// ratio of a serving run is
//     1 - model.unit_busy_us / model.round_capacity_us
// (docs/OBSERVABILITY.md).
struct ModelMetrics
{
    obs::Counter &rounds;
    obs::Counter &units;
    obs::Counter &unit_busy_us;

    static ModelMetrics &
    get()
    {
        static ModelMetrics m{
            obs::Registry::instance().counter("model.rounds"),
            obs::Registry::instance().counter("model.units"),
            obs::Registry::instance().counter("model.unit_busy_us"),
        };
        return m;
    }
};

/** Count one advance() round of @p units layer units. */
void
recordRound(int units)
{
    if constexpr (obs::kTelemetryEnabled) {
        ModelMetrics &m = ModelMetrics::get();
        m.rounds.add(1);
        m.units.add(static_cast<uint64_t>(units));
    }
}

int64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

ModelEngine::ModelEngine(const ModelEngineConfig &cfg,
                         std::span<const float> v_scales,
                         std::span<const float> logit_scales,
                         Stager stager, Sink sink)
    : cfg_(cfg), v_scales_(v_scales.begin(), v_scales.end()),
      logit_scales_(logit_scales.begin(), logit_scales.end()),
      stager_(std::move(stager)), sink_(std::move(sink))
{
    PADE_CHECK_GE(cfg_.layers, 1);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(v_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK_EQ(logit_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK(stager_ != nullptr);
    PADE_CHECK(sink_ != nullptr);

    layers_.reserve(static_cast<std::size_t>(cfg_.layers));
    stage_k_.reserve(static_cast<std::size_t>(cfg_.layers));
    stage_v_.reserve(static_cast<std::size_t>(cfg_.layers));
    stage_q_.reserve(static_cast<std::size_t>(cfg_.layers));
    for (int l = 0; l < cfg_.layers; l++) {
        layers_.emplace_back(
            cfg_.layer,
            std::span<const float>(v_scales_)
                .subspan(static_cast<std::size_t>(l) * kv, kv));
        stage_k_.emplace_back(cfg_.layer.kv_heads, cfg_.layer.head_dim);
        stage_v_.emplace_back(cfg_.layer.kv_heads, cfg_.layer.head_dim);
        stage_q_.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
    }
}

void
ModelEngine::feed(int pos, int prompt_len)
{
    // Contiguous feed from the frontier keeps every layer's append
    // sequence gapless — the property the whole cache layer assumes.
    PADE_CHECK_EQ(pos, fed_);
    PADE_CHECK_GE(prompt_len, 0);
    fed_++;
    queue_.push_back(Job{pos, prompt_len});
}

ModelEngine::Flight
ModelEngine::takeFlight(const Job &job)
{
    Flight f;
    if (!spares_.empty()) {
        f = std::move(spares_.back());
        spares_.pop_back();
    } else {
        f.outs.reserve(static_cast<std::size_t>(cfg_.layers));
        for (int l = 0; l < cfg_.layers; l++)
            f.outs.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
        f.steps.resize(static_cast<std::size_t>(cfg_.layers));
    }
    f.job = job;
    f.age = 0;
    return f;
}

void
ModelEngine::runUnit(Flight &f, int l, ThreadPool *pool)
{
    const obs::ScopedSpan span("model.unit",
                               {{"layer", l}, {"pos", f.job.pos}});
    std::chrono::steady_clock::time_point t0;
    if constexpr (obs::kTelemetryEnabled)
        t0 = std::chrono::steady_clock::now();
    const auto li = static_cast<std::size_t>(l);
    MatrixI8 &k = stage_k_[li];
    MatrixI8 &v = stage_v_[li];
    MatrixI8 &q = stage_q_[li];
    stager_(l, f.job.pos, k, v, q);

    LayerEngine &layer = layers_[li];
    layer.appendToken(k, v);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    const std::span<const float> scales =
        std::span<const float>(logit_scales_).subspan(li * kv, kv);
    if (f.job.pos < f.job.prompt_len) {
        f.steps[li] = layer.prefillPosition(q, f.job.pos,
                                            f.job.prompt_len, scales,
                                            f.outs[li], pool);
    } else {
        f.steps[li] = layer.decode(q, scales, f.outs[li], pool);
        layer.evict();
    }
    if constexpr (obs::kTelemetryEnabled)
        ModelMetrics::get().unit_busy_us.add(
            static_cast<uint64_t>(microsSince(t0)));
}

void
ModelEngine::retire(Flight &&f)
{
    TokenResult result;
    result.pos = f.job.pos;
    result.prompt_len = f.job.prompt_len;
    result.outs = f.outs;
    result.steps = f.steps;
    sink_(result);
    completed_++;
    spares_.push_back(std::move(f));
}

bool
ModelEngine::advance(ThreadPool *pool)
{
    if (!cfg_.pipeline) {
        // Serial reference schedule: one whole token through every
        // layer, in layer order.
        if (queue_.empty())
            return false;
        Flight f = takeFlight(queue_.front());
        queue_.pop_front();
        for (int l = 0; l < cfg_.layers; l++)
            runUnit(f, l, pool);
        recordRound(cfg_.layers);
        retire(std::move(f));
        return true;
    }
    if (queue_.empty() && flight_.empty())
        return false;
    if (!queue_.empty()) {
        flight_.push_back(takeFlight(queue_.front()));
        queue_.pop_front();
    }

    // The systolic round: every in-flight token at its own layer.
    // Ages are pairwise distinct (strictly decreasing front to back),
    // so the units touch disjoint engines/buffers — see file comment.
    const int n = static_cast<int>(flight_.size());
    {
        const obs::ScopedSpan round_span("model.round",
                                         {{"flights", n}});
        const auto unit = [&](int i) {
            Flight &f = flight_[static_cast<std::size_t>(i)];
            runUnit(f, f.age, pool);
        };
        if (pool && pool->threadCount() > 1 && n > 1)
            parallelFor(*pool, n, unit);
        else
            for (int i = 0; i < n; i++)
                unit(i);
    }
    recordRound(n);

    // Post-barrier, on the caller: age everyone, retire the front
    // when its last layer just ran. At most one token can retire per
    // round (ages are distinct), and it is always the oldest — tokens
    // leave in feed order.
    for (Flight &f : flight_)
        f.age++;
    while (!flight_.empty() && flight_.front().age == cfg_.layers) {
        Flight f = std::move(flight_.front());
        flight_.pop_front();
        retire(std::move(f));
    }
    return true;
}

void
ModelEngine::drain(ThreadPool *pool)
{
    while (advance(pool)) {
    }
}

void
ModelEngine::adoptPrefixPages(
    std::span<const std::shared_ptr<const KvPage>> pages)
{
    // Adoption splices pages at the frontier; with tokens in flight
    // the frontier would move under them.
    PADE_CHECK(queue_.empty() && flight_.empty());
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(pages.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    for (int l = 0; l < cfg_.layers; l++)
        layers_[static_cast<std::size_t>(l)].adoptSharedPages(
            pages.subspan(static_cast<std::size_t>(l) * kv, kv));
    fed_ += cfg_.layer.page_tokens;
}

void
ModelEngine::sharePrefixPages(
    int page, std::vector<std::shared_ptr<const KvPage>> &out) const
{
    for (const LayerEngine &layer : layers_)
        layer.sharePages(page, out);
}

PruneStats
ModelEngine::stats() const
{
    PruneStats sum;
    for (const LayerEngine &layer : layers_)
        sum += layer.stats();
    return sum;
}

std::size_t
ModelEngine::bytesUsed() const
{
    std::size_t bytes = 0;
    for (const LayerEngine &layer : layers_)
        bytes += layer.bytesUsed();
    return bytes;
}

} // namespace pade
