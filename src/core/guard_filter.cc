#include "core/guard_filter.h"

#include <cassert>
#include <cmath>

namespace pade {

GuardFilter::GuardFilter(double alpha, double radius, double logit_scale)
{
    assert(alpha >= 0.0 && alpha <= 1.0);
    assert(radius >= 0.0);
    assert(logit_scale > 0.0);
    // Margin below the best lower bound, converted to integer scores.
    // T = max(LB) - alpha * radius (paper Eq. 4): alpha = 1 keeps the
    // full guard band (most conservative); smaller alpha raises the
    // threshold toward the max and prunes more aggressively, matching
    // the paper's Fig. 16(b) sweep direction.
    margin_int_ = static_cast<int64_t>(
        std::llround(alpha * radius / logit_scale));
}

} // namespace pade
