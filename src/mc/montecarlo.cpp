#include "mc/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace hynapse::mc {

namespace {

// Deterministic per-chunk seeding: the sample stream is split into a fixed
// number of chunks whose seeds derive only from (seed, chunk index), so the
// result is identical for any thread count.
constexpr std::size_t kChunks = 64;

std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ull * (chunk + 1));
  return util::splitmix64(s);
}

RateEstimate finish_mc(std::size_t hits, std::size_t n) {
  const auto ci = util::wilson_interval(hits, n);
  return {.p = static_cast<double>(hits) / static_cast<double>(n),
          .ci_lo = ci.lo,
          .ci_hi = ci.hi,
          .trials = n,
          .hits = static_cast<double>(hits),
          .total_samples = n};
}

// ---- adaptive (CI-targeted) sampling ---------------------------------------
// docs/adaptive_mc.md. Each batch is decomposed into kBatchChunks chunks;
// chunk c's stream is the batch's base Rng (seeded from (seed, batch index))
// jumped ahead by c * kChunkStride draws, so chunk streams never overlap and
// the batch result is bit-identical for any thread count. Batch sizes are a
// pure function of the policy and the deterministic cumulative (hits, trials)
// sequence, which makes the stopping decisions thread-count invariant too.

constexpr std::size_t kBatchChunks = 16;
constexpr std::uint64_t kChunkStride = 1ull << 44;

/// Process-wide adaptive-sampler counters (obs naming: mc.adaptive.*).
struct AdaptiveInstruments {
  obs::Counter& estimates;
  obs::Counter& batches;
  obs::Counter& samples_saved;
  obs::Counter& ci_misses;

  static AdaptiveInstruments& get() {
    static AdaptiveInstruments* instruments = [] {
      obs::Registry& r = obs::Registry::global();
      return new AdaptiveInstruments{
          r.counter("mc.adaptive.estimates"),
          r.counter("mc.adaptive.batches"),
          r.counter("mc.adaptive.samples_saved"),
          r.counter("mc.adaptive.ci_misses"),
      };
    }();
    return *instruments;
  }
};

/// Policy with every 0-means-default resolved against the analyzer options
/// and clamped to sane ranges (batches are chunk multiples, min <= max).
struct ResolvedPolicy {
  double rel = 0.0;
  double abs = 0.0;
  double z = 1.96;
  double confidence = 0.95;
  IntervalKind interval = IntervalKind::wilson;
  std::size_t batch0 = 0;
  double growth = 2.0;
  std::size_t min_mc = 0;
  std::size_t max_mc = 0;
  std::size_t tail_escape = 0;
  std::size_t max_is = 0;
  std::size_t min_hits = 0;
};

ResolvedPolicy resolve_policy(const AnalyzerOptions& opts) {
  const AdaptivePolicy& p = opts.adaptive;
  ResolvedPolicy r;
  r.rel = std::max(0.0, p.rel_target);
  r.abs = std::max(0.0, p.abs_target);
  r.z = p.z > 0.0 ? p.z : 1.96;
  r.confidence =
      std::clamp(2.0 * util::normal_cdf(r.z) - 1.0, 0.5, 1.0 - 1e-12);
  r.interval = p.interval;
  r.max_mc = std::max<std::size_t>(
      p.max_samples != 0 ? p.max_samples : opts.mc_samples, kBatchChunks);
  r.min_mc = std::clamp<std::size_t>(p.min_samples, kBatchChunks, r.max_mc);
  r.batch0 = std::clamp<std::size_t>(p.batch_samples, kBatchChunks, r.max_mc);
  r.growth = std::clamp(p.batch_growth, 1.0, 8.0);
  r.tail_escape =
      p.tail_escape_samples != 0
          ? std::clamp(p.tail_escape_samples, r.min_mc, r.max_mc)
          : r.max_mc;
  r.max_is = std::max<std::size_t>(
      p.max_is_samples != 0 ? p.max_is_samples : opts.is_samples,
      kBatchChunks);
  r.min_hits = opts.min_hits_for_mc;
  return r;
}

util::Interval stopping_interval(const ResolvedPolicy& pol, std::size_t hits,
                                 std::size_t trials) {
  if (pol.interval == IntervalKind::clopper_pearson) {
    return util::clopper_pearson_interval(hits, trials, pol.confidence);
  }
  return util::wilson_interval(hits, trials, pol.z);
}

/// The stopping rule proper: the looser of the relative and absolute
/// half-width targets wins; both zero (or p = 0 with no abs target) means
/// "keep sampling".
bool target_met(const ResolvedPolicy& pol, double p, double half_width) {
  const double target = std::max(pol.abs, pol.rel * p);
  return target > 0.0 && half_width <= target;
}

/// Next batch's chunk count: geometric request, clamped so the cumulative
/// trial count can never exceed the hard max clamp. 0 means the budget has
/// fewer than kBatchChunks trials left -- stop.
std::size_t next_per_chunk(double requested, std::size_t trials,
                           std::size_t max_total) {
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(requested), max_total - trials);
  std::size_t per_chunk = (want + kBatchChunks - 1) / kBatchChunks;
  if (trials + per_chunk * kBatchChunks > max_total) {
    per_chunk = (max_total - trials) / kBatchChunks;
  }
  return per_chunk;
}

// ---- limit states -----------------------------------------------------------
// What the samplers below need from one (cell, mechanism, vdd): the device
// sigmas, `draw(rng)` -- one plain-MC sample -- and `pack(x)`, the sample of
// a flat dVT vector in volts; `decide(samples, out)`, the exact decision of
// a block of samples (plain and IS alike); and the continuous `metric(x)`
// (read only by the IS gradient and the origin verdict). A decision equals
// metric > 0.0 always, so blocking never changes a result bit
// (docs/performance.md).

/// The sampler side of a limit state: one cell kind's sigmas, draw and pack.
template <CellKind K>
struct CellSampler {
  static constexpr bool kSixT = K == CellKind::six_t;
  static constexpr std::size_t D = kSixT ? k6t_devices : k8t_devices;
  using Sample =
      std::conditional_t<kSixT, circuit::Variation6T, circuit::Variation8T>;
  const VariationSampler& sampler;

  const std::array<double, D>& sigmas() const {
    if constexpr (kSixT)
      return sampler.sigmas_6t();
    else
      return sampler.sigmas_8t();
  }
  Sample draw(util::Rng& rng) const {
    if constexpr (kSixT)
      return sampler.sample_6t(rng);
    else
      return sampler.sample_8t(rng);
  }
  static Sample pack(const std::array<double, D>& x) {
    if constexpr (kSixT)
      return VariationSampler::pack_6t(x);
    else
      return VariationSampler::pack_8t(x);
  }
};

/// One failure mechanism of a cell kind at vdd.
template <CellKind K>
struct Cell : CellSampler<K> {
  using Base = CellSampler<K>;
  const FailureCriteria& criteria;
  Mechanism m;
  double vdd;

  void decide(std::span<const typename Base::Sample> xs,
              std::span<bool> out) const {
    criteria.fails_block(m, xs, vdd, out);
  }
  double metric(const std::array<double, Base::D>& x) const {
    return criteria.metric(m, Base::pack(x), vdd);
  }
};
using Cell6T = Cell<CellKind::six_t>;
using Cell8T = Cell<CellKind::eight_t>;

/// Standby retention of a 6T cell: no decision path, the hold metric's sign
/// is the verdict.
struct Retention6T : CellSampler<CellKind::six_t> {
  const FailureCriteria& criteria;
  double v_standby;

  void decide(std::span<const Sample> xs, std::span<bool> out) const {
    for (std::size_t k = 0; k < xs.size(); ++k) {
      out[k] = criteria.hold_metric_6t(xs[k], v_standby) > 0.0;
    }
  }
  double metric(const std::array<double, D>& x) const {
    return criteria.hold_metric_6t(pack(x), v_standby);
  }
};

/// Samples a sampling loop draws before deciding them in one call; bounds
/// each loop's sample buffers.
constexpr std::size_t kBlock = 256;

// ---- chunk folds ---------------------------------------------------------------

/// Sums draw(rng, part) over the fixed path's kChunks streams, chunk c's
/// seeded from (seed, c), in ascending chunk order: bit-identical for any
/// thread count.
template <typename T, typename Draw>
T fixed_chunks(std::uint64_t seed, const Draw& draw, std::size_t threads) {
  return util::parallel_reduce(
      kChunks, kChunks, T{},
      [&](std::size_t begin, std::size_t end) {
        T part{};
        for (std::size_t c = begin; c < end; ++c) {
          util::Rng rng{chunk_seed(seed, c)};
          draw(rng, part);
        }
        return part;
      },
      std::plus<T>{}, threads);
}

/// The same over adaptive batch `batch`'s kBatchChunks streams: the batch's
/// base stream, seeded from (seed, batch), jumped ahead c * kChunkStride
/// draws for chunk c.
template <typename T, typename Draw>
T batch_chunks(std::uint64_t seed, std::size_t batch, const Draw& draw,
               std::size_t threads) {
  const util::Rng base{chunk_seed(seed, batch)};
  return util::parallel_reduce(
      kBatchChunks, kBatchChunks, T{},
      [&](std::size_t begin, std::size_t end) {
        T part{};
        for (std::size_t c = begin; c < end; ++c) {
          util::Rng rng = base;
          rng.discard(static_cast<std::uint64_t>(c) * kChunkStride);
          draw(rng, part);
        }
        return part;
      },
      std::plus<T>{}, threads);
}

// ---- plain MC ------------------------------------------------------------------

/// A chunk's plain-MC draw: adds the hits among `count` samples drawn in
/// order from its stream and decided kBlock at a time.
template <typename LS>
auto mc_draw(const LS& ls, std::size_t count) {
  return [&ls, count](util::Rng& rng, std::size_t& hits) {
    std::array<typename LS::Sample, kBlock> xs;
    std::array<bool, kBlock> fails{};
    for (std::size_t done = 0; done < count;) {
      const std::size_t b = std::min(kBlock, count - done);
      for (std::size_t k = 0; k < b; ++k) xs[k] = ls.draw(rng);
      ls.decide(std::span{xs.data(), b}, std::span{fails.data(), b});
      hits += static_cast<std::size_t>(
          std::count(fails.begin(), fails.begin() + b, true));
      done += b;
    }
  };
}

/// Fixed-sample plain MC over kChunks seeded chunks.
template <typename LS>
RateEstimate plain_mc(const LS& ls, std::size_t n, std::uint64_t seed,
                      std::size_t threads) {
  const std::size_t per_chunk = (n + kChunks - 1) / kChunks;
  return finish_mc(
      fixed_chunks<std::size_t>(seed, mc_draw(ls, per_chunk), threads),
      per_chunk * kChunks);
}

RateEstimate record_adaptive(const AnalyzerOptions& opts, RateEstimate r) {
  AdaptiveInstruments& in = AdaptiveInstruments::get();
  in.estimates.add(1);
  in.batches.add(r.batches);
  if (opts.mc_samples > r.total_samples) {
    in.samples_saved.add(opts.mc_samples - r.total_samples);
  }
  if (!r.converged) in.ci_misses.add(1);
  return r;
}

// ---- importance sampling -------------------------------------------------------

/// Partial sums of the weighted importance-sampling estimator.
struct IsPartial {
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::size_t hits = 0;

  IsPartial operator+(const IsPartial& o) const {
    return {sum_w + o.sum_w, sum_w2 + o.sum_w2, hits + o.hits};
  }
};

/// The IS mean shift in standardized coordinates (one unit = one sigma).
template <std::size_t D>
struct Shift {
  std::array<double, D> mu{};
  double mu_sq = 0.0;
};

/// Shifts beta sigmas along the dominant failure direction: the metric's
/// gradient at the origin by central differences (one step = one sigma).
/// nullopt where the metric is insensitive to variation.
template <typename LS>
std::optional<Shift<LS::D>> failure_shift(const LS& ls, double beta) {
  const std::array<double, LS::D>& sigmas = ls.sigmas();
  std::array<double, LS::D> grad{};
  double norm = 0.0;
  for (std::size_t i = 0; i < LS::D; ++i) {
    std::array<double, LS::D> plus{};
    std::array<double, LS::D> minus{};
    plus[i] = 0.5 * sigmas[i];
    minus[i] = -0.5 * sigmas[i];
    grad[i] = ls.metric(plus) - ls.metric(minus);
    norm += grad[i] * grad[i];
  }
  norm = std::sqrt(norm);
  if (norm <= 0.0) return std::nullopt;
  Shift<LS::D> shift;
  for (std::size_t i = 0; i < LS::D; ++i) shift.mu[i] = beta * grad[i] / norm;
  shift.mu_sq = beta * beta;
  return shift;
}

/// The IS answer where the metric is insensitive to variation: the nominal
/// verdict, booked as `trials` samples in `batches` batches.
template <typename LS>
RateEstimate nominal_verdict(const LS& ls, std::size_t trials,
                             std::size_t batches) {
  const double p = ls.metric(std::array<double, LS::D>{}) > 0.0 ? 1.0 : 0.0;
  return {.p = p,
          .ci_lo = p,
          .ci_hi = p,
          .trials = trials,
          .importance_sampled = true,
          .total_samples = trials,
          .batches = batches};
}

/// A chunk's IS draw: `count` mean-shifted samples from its stream, decided
/// kBlock at a time and folded into `part` in draw order.
template <typename LS>
auto is_draw(const LS& ls, std::size_t count, const Shift<LS::D>& shift) {
  return [&ls, count, &shift](util::Rng& rng, IsPartial& part) {
    const std::array<double, LS::D>& sigmas = ls.sigmas();
    std::array<typename LS::Sample, kBlock> xs;
    std::array<double, kBlock> dots{};
    std::array<bool, kBlock> fails{};
    std::array<double, LS::D> x{};
    for (std::size_t done = 0; done < count;) {
      const std::size_t b = std::min(kBlock, count - done);
      for (std::size_t k = 0; k < b; ++k) {
        double dot = 0.0;
        for (std::size_t i = 0; i < LS::D; ++i) {
          const double z = rng.normal();
          const double xi = shift.mu[i] + z;
          dot += shift.mu[i] * xi;
          x[i] = xi * sigmas[i];  // back to volts
        }
        xs[k] = ls.pack(x);
        dots[k] = dot;
      }
      ls.decide(std::span{xs.data(), b}, std::span{fails.data(), b});
      for (std::size_t k = 0; k < b; ++k) {
        if (!fails[k]) continue;
        const double w = std::exp(-dots[k] + 0.5 * shift.mu_sq);
        part.sum_w += w;
        part.sum_w2 += w * w;
        ++part.hits;
      }
      done += b;
    }
  };
}

/// The weighted IS estimate over `trials` draws with the delta-method
/// interval p +- z * se, clamped to [0, 1]. Second: z * se unclamped, the
/// half-width the adaptive stopping rule reads.
std::pair<RateEstimate, double> is_estimate(const IsPartial& sum,
                                            std::size_t trials, double z) {
  const double total = static_cast<double>(trials);
  const double p = sum.sum_w / total;
  const double var = std::max(0.0, sum.sum_w2 / total - p * p) / total;
  const double half = z * std::sqrt(var);
  const RateEstimate r{.p = p,
                       .ci_lo = std::max(0.0, p - half),
                       .ci_hi = std::min(1.0, p + half),
                       .trials = trials,
                       .hits = static_cast<double>(sum.hits),
                       .importance_sampled = true,
                       .total_samples = trials};
  return {r, half};
}

template <typename LS>
RateEstimate importance_sample(const LS& ls, std::size_t n, double beta,
                               std::uint64_t seed, std::size_t threads) {
  const auto shift = failure_shift(ls, beta);
  if (!shift) return nominal_verdict(ls, n, 1);
  const std::size_t per_chunk = (n + kChunks - 1) / kChunks;
  return is_estimate(
             fixed_chunks<IsPartial>(seed, is_draw(ls, per_chunk, *shift),
                                     threads),
             per_chunk * kChunks, 1.96)
      .first;
}

/// Importance-sampled tail phase of the adaptive path: same mean-shifted
/// estimator as importance_sample, run in growing batches until the
/// delta-method CI meets the policy target or the IS clamp is spent.
template <typename LS>
RateEstimate adaptive_importance(const LS& ls, const ResolvedPolicy& pol,
                                 double beta, std::uint64_t seed,
                                 std::size_t threads) {
  const auto shift = failure_shift(ls, beta);
  if (!shift) return nominal_verdict(ls, 0, 0);
  RateEstimate r;
  IsPartial sum;
  std::size_t trials = 0;
  std::size_t batches = 0;
  bool converged = false;
  double next_batch = static_cast<double>(pol.batch0);
  while (const std::size_t per_chunk =
             next_per_chunk(next_batch, trials, pol.max_is)) {
    sum = sum + batch_chunks<IsPartial>(seed, batches,
                                        is_draw(ls, per_chunk, *shift),
                                        threads);
    trials += per_chunk * kBatchChunks;
    ++batches;
    next_batch *= pol.growth;
    double half = 0.0;
    std::tie(r, half) = is_estimate(sum, trials, pol.z);
    if (target_met(pol, r.p, half)) {
      converged = true;
      break;
    }
  }
  r.batches = batches;
  r.converged = converged;
  return r;
}

// ---- estimators ----------------------------------------------------------------

/// Running state of the adaptive plain-MC phase.
struct McBatches {
  std::size_t hits = 0;
  std::size_t trials = 0;
  std::size_t batches = 0;
  double next_batch = 0.0;
  util::Interval ci{};
  bool converged = false;

  /// Draws geometric batches until the CI target is met or the budget is
  /// spent. While `may_escape`, a hit-starved mechanism is not held to the
  /// target but stops once it proves demonstrably rare: after tail_escape
  /// trials, when the CI upper bound on p projects fewer than
  /// min_hits_for_mc hits over the full plain-MC budget.
  template <typename LS>
  void run(const LS& ls, const ResolvedPolicy& pol, std::uint64_t seed,
           std::size_t threads, bool may_escape) {
    while (const std::size_t per_chunk =
               next_per_chunk(next_batch, trials, pol.max_mc)) {
      hits += batch_chunks<std::size_t>(seed, batches,
                                        mc_draw(ls, per_chunk), threads);
      trials += per_chunk * kBatchChunks;
      ++batches;
      next_batch *= pol.growth;
      ci = stopping_interval(pol, hits, trials);
      if (trials < pol.min_mc) continue;  // hard min clamp: no stopping yet
      const double p =
          static_cast<double>(hits) / static_cast<double>(trials);
      if (hits >= pol.min_hits || !may_escape) {
        if (target_met(pol, p, 0.5 * (ci.hi - ci.lo))) {
          converged = true;
          return;
        }
      } else if (trials >= pol.tail_escape &&
                 ci.hi * static_cast<double>(pol.max_mc) <
                     1.5 * static_cast<double>(pol.min_hits)) {
        // Demonstrably rare: even p at its CI upper bound projects into the
        // fixed path's own IS-fallback region (under min_hits over the FULL
        // plain-MC budget, with 1.5x slack because ci.hi is already a
        // conservative upper-confidence bound), so the mechanism is beyond
        // plain-MC reach and the budget is better spent on the IS tail. (A
        // merely hit-starved mechanism -- say p ~ 2e-3 with ~8 hits in the
        // escape window -- fails this test by an order of magnitude and
        // keeps sampling plain MC, where its estimate is unbiased; the IS
        // mean-shift is tuned for far-tail rates and is the wrong tool
        // there.)
        return;
      }
    }
  }

  [[nodiscard]] RateEstimate estimate() const {
    return {.p = static_cast<double>(hits) / static_cast<double>(trials),
            .ci_lo = ci.lo,
            .ci_hi = ci.hi,
            .trials = trials,
            .hits = static_cast<double>(hits),
            .total_samples = trials,
            .batches = batches,
            .converged = converged};
  }
};

/// The adaptive driver: batched plain MC with the CI stopping rule, escaping
/// to the importance-sampled tail once the mechanism is demonstrably rare
/// (McBatches::run) or the budget runs out still hit-starved.
template <typename LS>
RateEstimate adaptive_estimate(const AnalyzerOptions& opts, const LS& ls,
                               std::uint64_t mc_seed, std::uint64_t is_seed) {
  const ResolvedPolicy pol = resolve_policy(opts);
  McBatches mc{.next_batch = static_cast<double>(pol.batch0)};
  mc.run(ls, pol, mc_seed, opts.threads, true);
  if (mc.hits >= pol.min_hits) return record_adaptive(opts, mc.estimate());

  RateEstimate r =
      adaptive_importance(ls, pol, opts.is_beta, is_seed, opts.threads);
  // Consistency guard: the escape was a projection from sparse evidence. If
  // the IS answer falls below even the lower confidence bound of the plain-MC
  // hits already observed, the mean-shift missed the dominant failure region
  // (its moderate-p bias, not a tail) -- discard it and resume plain MC,
  // whose estimate is unbiased at any rate. Genuine tail escapes observe
  // zero hits and are untouched. Depends only on deterministic counts, so
  // thread-count invariance is preserved.
  if (mc.hits > 0 && r.p < mc.ci.lo) {
    mc.run(ls, pol, mc_seed, opts.threads, false);
    RateEstimate resumed = mc.estimate();
    resumed.total_samples += r.trials;
    resumed.batches += r.batches;
    return record_adaptive(opts, resumed);
  }
  r.total_samples += mc.trials;
  r.batches += mc.batches;
  return record_adaptive(opts, r);
}

/// Fixed-budget path: plain MC, re-estimated by importance sampling when it
/// sees fewer than min_hits_for_mc hits.
template <typename LS>
RateEstimate fixed_estimate(const AnalyzerOptions& opts, const LS& ls,
                            std::uint64_t mc_seed, std::uint64_t is_seed) {
  RateEstimate est = plain_mc(ls, opts.mc_samples, mc_seed, opts.threads);
  if (est.hits < static_cast<double>(opts.min_hits_for_mc)) {
    const std::size_t mc_spent = est.total_samples;
    est = importance_sample(ls, opts.is_samples, opts.is_beta, is_seed,
                            opts.threads);
    est.total_samples += mc_spent;
    ++est.batches;
  }
  return est;
}

}  // namespace

FailureAnalyzer::FailureAnalyzer(const FailureCriteria& criteria,
                                 const VariationSampler& sampler,
                                 AnalyzerOptions opts)
    : criteria_{&criteria}, sampler_{&sampler}, opts_{opts} {}

RateEstimate FailureAnalyzer::plain_mc_6t(Mechanism m, double vdd,
                                          std::size_t n,
                                          std::uint64_t seed) const {
  return plain_mc(Cell6T{{*sampler_}, *criteria_, m, vdd}, n, seed,
                  opts_.threads);
}

RateEstimate FailureAnalyzer::plain_mc_8t(Mechanism m, double vdd,
                                          std::size_t n,
                                          std::uint64_t seed) const {
  return plain_mc(Cell8T{{*sampler_}, *criteria_, m, vdd}, n, seed,
                  opts_.threads);
}

RateEstimate FailureAnalyzer::importance_6t(Mechanism m, double vdd,
                                            std::size_t n,
                                            std::uint64_t seed) const {
  return importance_sample(Cell6T{{*sampler_}, *criteria_, m, vdd}, n,
                           opts_.is_beta, seed, opts_.threads);
}

RateEstimate FailureAnalyzer::importance_8t(Mechanism m, double vdd,
                                            std::size_t n,
                                            std::uint64_t seed) const {
  return importance_sample(Cell8T{{*sampler_}, *criteria_, m, vdd}, n,
                           opts_.is_beta, seed, opts_.threads);
}

RateEstimate FailureAnalyzer::retention_6t(double v_standby,
                                           std::uint64_t seed) const {
  return fixed_estimate(opts_,
                        Retention6T{{*sampler_}, *criteria_, v_standby}, seed,
                        seed ^ 0xfeedull);
}

RateEstimate FailureAnalyzer::estimate(CellKind cell, Mechanism m, double vdd,
                                       std::uint64_t mc_seed,
                                       std::uint64_t is_seed) const {
  const auto run = [&](const auto& ls) {
    return opts_.adaptive.enabled
               ? adaptive_estimate(opts_, ls, mc_seed, is_seed)
               : fixed_estimate(opts_, ls, mc_seed, is_seed);
  };
  if (cell == CellKind::eight_t) {
    return run(Cell8T{{*sampler_}, *criteria_, m, vdd});
  }
  return run(Cell6T{{*sampler_}, *criteria_, m, vdd});
}

CellFailureRates FailureAnalyzer::analyze(CellKind cell, double vdd,
                                          std::uint64_t seed) const {
  RateEstimate absent;
  absent.trials = opts_.mc_samples;
  CellFailureRates out{absent, absent, absent};
  for (const CellMechanism& job : kCellMechanisms) {
    if (job.cell != cell) continue;
    rate_of(out, job.mechanism) =
        estimate(cell, job.mechanism, vdd, seed + job.mc_seed_offset,
                 seed + job.is_seed_offset);
  }
  return out;
}

}  // namespace hynapse::mc
