/**
 * @file
 * BUI-enabled Guarded Filtering (BUI-GF) — paper §IV-A, Fig. 7.
 *
 * Maintains the running max of score *lower bounds* for one query row
 * and derives the pruning threshold T = max(LB) - alpha * radius. A key
 * is pruned the moment its *upper* bound falls below T: softmax decay
 * (softmax(x0) < e^{-delta}) guarantees its contribution is negligible,
 * and the uncertainty interval guards against bit-serial estimation
 * error (the paper's Challenge 1).
 *
 * `radius` is specified in logit units (paper default 5, i.e. pruned
 * tokens contribute < e^-5 relative mass at alpha = 1); it is converted
 * into the integer score domain through the dequantization scale.
 */

#ifndef PADE_CORE_GUARD_FILTER_H
#define PADE_CORE_GUARD_FILTER_H

#include <cstdint>
#include <limits>

namespace pade {

/** Threshold state for one query row. */
class GuardFilter
{
  public:
    /**
     * @param alpha guard-band fraction in [0, 1]; 1 keeps the full
     *        radius (conservative), smaller values prune harder
     * @param radius guard band in logit units (paper default 5)
     * @param logit_scale integer-score -> logit conversion factor
     */
    GuardFilter(double alpha, double radius, double logit_scale);

    /** Fold a score lower bound into the row max (paper Step 0). */
    void
    observe(int64_t lower_bound)
    {
        if (!seen_ || lower_bound > max_lb_) {
            max_lb_ = lower_bound;
            seen_ = true;
            updates_++;
        }
    }

    /** Current integer-domain threshold; -inf until first observe. */
    int64_t
    threshold() const
    {
        if (!seen_)
            return std::numeric_limits<int64_t>::min();
        // Saturating subtraction to avoid wraparound at the sentinel.
        const int64_t t = max_lb_ - margin_int_;
        return t > max_lb_ ? std::numeric_limits<int64_t>::min() : t;
    }

    /** True if a key with this upper bound should be pruned. */
    bool
    shouldPrune(int64_t upper_bound) const
    {
        return seen_ && upper_bound < threshold();
    }

    /** Number of threshold-raising updates (hardware activity). */
    uint64_t updates() const { return updates_; }

    int64_t maxLowerBound() const { return max_lb_; }

  private:
    int64_t margin_int_;
    int64_t max_lb_ = std::numeric_limits<int64_t>::min();
    bool seen_ = false;
    uint64_t updates_ = 0;
};

} // namespace pade

#endif // PADE_CORE_GUARD_FILTER_H
