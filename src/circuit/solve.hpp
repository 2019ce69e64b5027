// Scalar root helpers shared by the circuit solvers. Header-only so
// the Monte-Carlo hot path can inline them.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hynapse::circuit {

/// Finds x in [lo, hi] with f(x) = 0 for a monotonically *increasing*
/// residual f, by bisection. If f has no sign change on the bracket the
/// nearer endpoint is returned (the circuit callers rely on this clamping
/// behaviour for rail-saturated nodes).
template <typename F>
[[nodiscard]] double bisect_increasing(F&& f, double lo, double hi,
                                       int iterations = 60) {
  if (!(hi >= lo)) throw std::invalid_argument{"bisect: bad bracket"};
  double flo = f(lo);
  double fhi = f(hi);
  if (flo >= 0.0) return lo;
  if (fhi <= 0.0) return hi;
  for (int i = 0; i < iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// An interval [lo, hi] certified to hold the root of a monotone residual.
struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
};

/// Root bracket of a monotonically *increasing* residual by safeguarded
/// Newton iteration. `f(x, df)` returns the residual and stores its
/// derivative in `df`. Clamps exactly where bisect_increasing does: {lo, lo}
/// when f(lo) >= 0 and {hi, hi} when f(hi) <= 0. Otherwise the result
/// satisfies f(lo) < 0 <= f(hi) and hi - lo <= tol, so it holds the root
/// bisect_increasing converges to. `x0` is the first iterate (clamped into
/// the bracket). A Newton step that leaves the bracket falls back to
/// bisection; once the steps drop below tol the iterate steps just past the
/// root to close the bracket from the other side.
template <typename F>
[[nodiscard]] Bracket newton_bracket_increasing(F&& f, double lo, double hi,
                                                double tol, double x0) {
  if (!(hi >= lo) || !(tol > 0.0))
    throw std::invalid_argument{"newton_bracket: bad bracket or tolerance"};
  double df = 0.0;
  if (f(lo, df) >= 0.0) return {lo, lo};
  if (f(hi, df) <= 0.0) return {hi, hi};
  constexpr int kNewtonSteps = 16;  // bisection only after this many
  double x = std::clamp(x0, lo, hi);
  for (int i = 0; hi - lo > tol; ++i) {
    if (!(x > lo && x < hi)) {
      x = 0.5 * (lo + hi);
      if (!(x > lo && x < hi)) break;  // tol below the spacing of doubles
    }
    const double fx = f(x, df);
    if (fx < 0.0) {
      lo = x;
    } else {
      hi = x;
    }
    if (i >= kNewtonSteps || !(df > 0.0)) {
      x = 0.5 * (lo + hi);
      continue;
    }
    const double step = -fx / df;
    x += step;
    if (std::fabs(step) < 0.5 * tol) {
      // Converged to within tol: overshoot by a quarter tol so the next
      // evaluation lands on the far side of the root.
      x += std::copysign(0.25 * tol, step);
    }
  }
  return {lo, hi};
}

}  // namespace hynapse::circuit
