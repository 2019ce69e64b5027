// The Monte-Carlo decision path: FailureCriteria::fails must return
// exactly metric(...) > 0.0 on every sample of either cell kind, because
// tables depend on the metric only through that sign. Pins the pieces it is
// built from (the derivative overload of Mosfet::ids, the Newton root
// brackets, the monotone write transient) and the agreement itself on
// plain, IS-shifted and boundary-clustered samples at every paper voltage,
// for the per-sample fails and for the block path the sampling loops call
// (FailureCriteria::fails_block on every ISA tier this host runs, which
// decides write and read samples on the lanes of circuit/lanes.hpp).
//
// DISABLED_MillionDecisionSweep is the long agreement sweep; run it with
//   ./test_mc_decisions --gtest_also_run_disabled_tests
//                       --gtest_filter='*MillionDecision*'
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "circuit/bitcell.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/reference.hpp"
#include "circuit/solve.hpp"
#include "circuit/lanes.hpp"
#include "circuit/lanes_kernel.hpp"
#include "mc/circuit_stack.hpp"
#include "obs/metrics.hpp"
#include "util/isa.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hynapse::mc {
namespace {

const CircuitStack& stack() {
  static const CircuitStack s;
  return s;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t oracle_fallbacks() {
  return counter("mc.decide.oracle_fallbacks");
}

std::uint64_t write_lane_fallbacks() {
  return counter("mc.write.lane_fallbacks");
}

std::uint64_t read_lane_fallbacks() {
  return counter("mc.read.lane_fallbacks");
}

bool on_lanes() {
  return circuit::detail::lane_kernels(util::isa_tier()) != nullptr;
}

/// ISA tiers this host runs that have lanes (none without libmvec).
std::size_t tiers_with_lanes() {
  const std::vector<util::IsaTier> tiers = util::available_isa_tiers();
  return static_cast<std::size_t>(
      std::count_if(tiers.begin(), tiers.end(), [](util::IsaTier tier) {
        return circuit::detail::lane_kernels(tier) != nullptr;
      }));
}

// ---- Mosfet::ids derivative overload ---------------------------------------

TEST(MosfetDerivatives, ValueBitEqualAndSlopesMatchCentralDifferences) {
  const CircuitStack& s = stack();
  struct Point {
    const char* region;
    double vgs;
    double vds;
  };
  const Point points[] = {
      {"subthreshold", 0.10, 0.50}, {"subthreshold", 0.25, 0.02},
      {"saturation", 0.90, 0.80},   {"saturation", 0.60, 0.70},
      {"linear", 0.90, 0.05},       {"linear", 0.70, 0.10},
      {"strong", 2.60, 0.40},       {"vds<0", 0.70, -0.10},
  };
  const circuit::Mosfet devices[] = {
      {s.tech.nmos, s.sizing6.w_pd, s.tech.lmin, 0.02},
      {s.tech.pmos, s.sizing6.w_pu, s.tech.lmin, -0.03},
      {s.tech.nmos, s.sizing6.w_pg, s.tech.lmin, 0.0},
  };
  constexpr double h = 1e-6;
  const auto near = [](double analytic, double numeric) {
    return std::fabs(analytic - numeric) <=
           1e-6 * std::max(std::fabs(numeric), 1e-30);
  };
  for (const circuit::Mosfet& fet : devices) {
    for (const Point& p : points) {
      double d_vgs = -1.0;
      double d_vds = -1.0;
      const double value = fet.ids(p.vgs, p.vds, d_vgs, d_vds);
      EXPECT_EQ(value, fet.ids(p.vgs, p.vds)) << p.region;
      const double fd_vgs =
          (fet.ids(p.vgs + h, p.vds) - fet.ids(p.vgs - h, p.vds)) / (2 * h);
      const double fd_vds =
          (fet.ids(p.vgs, p.vds + h) - fet.ids(p.vgs, p.vds - h)) / (2 * h);
      EXPECT_TRUE(near(d_vgs, fd_vgs))
          << p.region << ": d_vgs " << d_vgs << " vs " << fd_vgs;
      EXPECT_TRUE(near(d_vds, fd_vds))
          << p.region << ": d_vds " << d_vds << " vs " << fd_vds;
    }
  }
}

// ---- Newton root brackets ---------------------------------------------------

TEST(NewtonBracket, ClampsExactlyWhereBisectionDoes) {
  for (const double root : {-0.3, 0.0, 0.4, 1.0, 1.7}) {
    const auto f = [root](double x) { return x - root; };
    const auto fd = [root](double x, double& df) {
      df = 1.0;
      return x - root;
    };
    const double bisected = circuit::bisect_increasing(f, 0.0, 1.0);
    const circuit::Bracket b =
        circuit::newton_bracket_increasing(fd, 0.0, 1.0, 1e-9, 0.5);
    if (root <= 0.0 || root >= 1.0) {
      EXPECT_EQ(b.lo, bisected) << root;
      EXPECT_EQ(b.hi, bisected) << root;
    } else {
      EXPECT_LE(b.lo, bisected);
      EXPECT_GE(b.hi, bisected);
      EXPECT_LE(b.hi - b.lo, 1e-9);
      EXPECT_LT(f(b.lo), 0.0);
      EXPECT_GE(f(b.hi), 0.0);
    }
  }
}

TEST(NewtonBracket, BisectsWhenNewtonStalls) {
  // Zero slope everywhere: every step falls back to bisection.
  const auto flat_slope = [](double x, double& df) {
    df = 0.0;
    return std::cbrt(x - 0.3);
  };
  const circuit::Bracket b =
      circuit::newton_bracket_increasing(flat_slope, 0.0, 1.0, 1e-9, 0.9);
  EXPECT_LE(b.hi - b.lo, 1e-9);
  EXPECT_LE(b.lo, 0.3);
  EXPECT_GE(b.hi, 0.3);
}

TEST(NewtonBracket, HoldsTheBisectionRootOnSampledCells) {
  // Near its root a residual's sign is rounding noise, so the bisection can
  // settle an ulp or two outside a strict bracket; the decision path widens
  // every bracket by kBracketSlack, and within that slack the root is held.
  const CircuitStack& s = stack();
  constexpr double tol = FailureCriteria::kBracketTol;
  constexpr double slack = FailureCriteria::kBracketSlack;
  const auto holds = [](const circuit::Bracket& b, double root) {
    return b.lo - slack <= root && root <= b.hi + slack && b.hi - b.lo <= tol;
  };
  util::Rng rng{2024};
  for (const double vdd : circuit::paper_voltage_grid()) {
    for (int i = 0; i < 150; ++i) {
      const circuit::Bitcell6T cell6{s.tech, s.sizing6,
                                     s.sampler.sample_6t(rng)};
      const circuit::Bitcell8T cell8{s.tech, s.sizing8,
                                     s.sampler.sample_8t(rng)};
      EXPECT_TRUE(holds(cell6.read_bump_bracket(vdd, tol),
                        cell6.read_bump(vdd)));
      for (const circuit::Side side :
           {circuit::Side::left, circuit::Side::right}) {
        EXPECT_TRUE(holds(cell6.trip_bracket(side, vdd, tol),
                          cell6.trip_voltage(side, vdd)));
      }
      EXPECT_TRUE(holds(cell8.read_node_bracket(vdd, tol),
                        cell8.read_node(vdd)));
      EXPECT_EQ(cell6.read_current_at(vdd, cell6.read_bump(vdd)),
                cell6.read_current(vdd));
      EXPECT_EQ(cell8.read_current_at(vdd, cell8.read_node(vdd)),
                cell8.read_current(vdd));
    }
  }
}

TEST(NewtonBracket, LaneBracketsHoldTheBisectionRootOnSampledCells) {
  // The lanes run the same Newton iterates on libmvec, whose rounding moves
  // the residual's root by far less than the slack; every lane bracket must
  // still close to tol and hold the scalar bisection's root.
  const CircuitStack& s = stack();
  constexpr double tol = FailureCriteria::kBracketTol;
  constexpr double slack = FailureCriteria::kBracketSlack;
  constexpr std::size_t n = 300;
  util::Rng rng{2025};
  for (const util::IsaTier tier : util::available_isa_tiers()) {
    if (circuit::detail::lane_kernels(tier) == nullptr) continue;
    const char* name = util::isa_tier_name(tier).data();
    for (const double vdd : circuit::paper_voltage_grid()) {
      std::vector<circuit::Variation6T> cells6(n);
      std::vector<circuit::Variation8T> cells8(n);
      for (std::size_t k = 0; k < n; ++k) {
        cells6[k] = s.sampler.sample_6t(rng);
        cells8[k] = s.sampler.sample_8t(rng);
      }
      std::vector<circuit::Bracket> bump(n), trip(n), node(n);
      ASSERT_TRUE(circuit::read_node_brackets_lanes(s.tech, s.sizing6, cells6,
                                                    vdd, tol, bump, tier));
      ASSERT_TRUE(circuit::trip_brackets_lanes(s.tech, s.sizing6, cells6,
                                               circuit::Side::right, vdd, tol,
                                               trip, tier));
      ASSERT_TRUE(circuit::read_node_brackets_lanes(s.tech, s.sizing8, cells8,
                                                    vdd, tol, node, tier));
      std::vector<double> vn6(n), vn8(n), i6(n), i8(n);
      for (std::size_t k = 0; k < n; ++k) {
        vn6[k] = bump[k].lo;
        vn8[k] = node[k].hi;
      }
      ASSERT_TRUE(circuit::read_currents_lanes(s.tech, s.sizing6, cells6, vdd,
                                               vn6, i6, tier));
      ASSERT_TRUE(circuit::read_currents_lanes(s.tech, s.sizing8, cells8, vdd,
                                               vn8, i8, tier));
      const auto holds = [](const circuit::Bracket& b, double root) {
        return b.lo - slack <= root && root <= b.hi + slack &&
               b.hi - b.lo <= tol;
      };
      for (std::size_t k = 0; k < n; ++k) {
        const circuit::Bitcell6T cell6{s.tech, s.sizing6, cells6[k]};
        const circuit::Bitcell8T cell8{s.tech, s.sizing8, cells8[k]};
        EXPECT_TRUE(holds(bump[k], cell6.read_bump(vdd)))
            << name << " 6T read bump at " << vdd << " V, sample " << k;
        EXPECT_TRUE(holds(trip[k],
                          cell6.trip_voltage(circuit::Side::right, vdd)))
            << name << " 6T trip point at " << vdd << " V, sample " << k;
        EXPECT_TRUE(holds(node[k], cell8.read_node(vdd)))
            << name << " 8T read node at " << vdd << " V, sample " << k;
        EXPECT_NEAR(i6[k], cell6.read_current_at(vdd, vn6[k]),
                    1e-12 * std::fabs(i6[k]))
            << name;
        EXPECT_NEAR(i8[k], cell8.read_current_at(vdd, vn8[k]),
                    1e-12 * std::fabs(i8[k]))
            << name;
      }
    }
  }
}

// ---- lane device current -----------------------------------------------------

TEST(LaneCurrent, MatchesMosfetIdsOnEveryBranch) {
  // The current kernel (vgs = vds = vdd - vn) against Mosfet::ids on each
  // branch of the device model, every point in several lanes and in a
  // partial last vector. Where the scalar current is 0 the bound demands
  // exactly 0, so a NaN fails: at +40 V exp(x) underflows, veff is 0 and
  // the lanes take log(0) = -inf; at +30 V veff stays positive
  // (exp(x) ~ 1e-265) and only isat underflows.
  const CircuitStack& s = stack();
  const circuit::TechCard& card = s.tech.nmos;
  const double w = s.sizing6.w_pg;
  constexpr double vdd = 2.5;
  // Mosfet::ids' own terms, so a retuned card cannot move a point off the
  // branch it names.
  struct Terms {
    double vds;
    double x;
    double veff;
    double vdsat;
  };
  const auto terms = [&card](double v, double dvt) {
    const double vds = std::max(v, 0.0);
    const double vt_eff = card.vt0 + dvt - card.dibl * vds;
    const double nvt = card.n_sub * card.phi_t;
    const double x = (v - vt_eff) / nvt;
    const double veff = x > 40.0 ? v - vt_eff : nvt * std::log1p(std::exp(x));
    return Terms{v, x, veff, card.vdsat_k * std::pow(veff, 0.5 * card.alpha)};
  };
  struct Point {
    const char* branch;
    double v;  ///< vgs = vds
    double dvt;
    bool (*on_branch)(const Terms&);
  };
  const Point points[] = {
      {"vds < 0, clamped", -0.10, 0.0,
       [](const Terms& t) { return t.vds < 0.0 && t.veff > 0.0; }},
      {"linear", 0.10, -0.6,
       [](const Terms& t) { return t.x <= 40.0 && t.vds < t.vdsat; }},
      {"saturated", 0.80, 0.0,
       [](const Terms& t) { return t.x <= 40.0 && t.vds >= t.vdsat; }},
      {"strong inversion", 2.50, 0.0,
       [](const Terms& t) { return t.x > 40.0; }},
      {"cut-off, isat underflows", 0.80, 30.0,
       [](const Terms& t) { return t.veff > 0.0 && t.x > -745.0; }},
      {"cut-off, veff = 0", 0.80, 40.0,
       [](const Terms& t) { return t.veff == 0.0; }},
  };
  constexpr std::size_t n = 3 * std::size(points);
  std::vector<double> dvt(n), vn(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Point& p = points[k % std::size(points)];
    dvt[k] = p.dvt;
    vn[k] = vdd - p.v;
  }
  const circuit::detail::LaneDevice dev =
      circuit::detail::lane_device(card, w, s.tech.lmin);
  for (const util::IsaTier tier : util::available_isa_tiers()) {
    const circuit::detail::LaneKernels* kernels =
        circuit::detail::lane_kernels(tier);
    if (kernels == nullptr) continue;
    std::vector<double> out(n, -1.0);
    kernels->current(dev, vdd, dvt.data(), vn.data(), n, out.data());
    for (std::size_t k = 0; k < n; ++k) {
      const Point& p = points[k % std::size(points)];
      const double v = vdd - vn[k];
      ASSERT_TRUE(p.on_branch(terms(v, p.dvt))) << p.branch;
      const double scalar =
          circuit::Mosfet{card, w, s.tech.lmin, p.dvt}.ids(v, v);
      EXPECT_NEAR(out[k], scalar, 1e-12 * std::fabs(scalar))
          << p.branch << ", sample " << k << " on "
          << util::isa_tier_name(tier);
    }
  }
}

// ---- sample sources ----------------------------------------------------------

/// One (cell, mechanism) of the decision path.
struct Case {
  const char* name;
  bool cell8;
  Mechanism m;
};

constexpr Case kCases[] = {
    {"6t.read_access", false, Mechanism::read_access},
    {"6t.write", false, Mechanism::write},
    {"6t.read_disturb", false, Mechanism::read_disturb},
    {"8t.read_access", true, Mechanism::read_access},
    {"8t.write", true, Mechanism::write},
};

/// A flat dVT vector in volts; 6T cases use the first six entries.
using Dvt = std::array<double, k8t_devices>;

std::size_t dims(const Case& c) { return c.cell8 ? k8t_devices : k6t_devices; }

double sigma(const Case& c, std::size_t i) {
  return c.cell8 ? stack().sampler.sigmas_8t()[i]
                 : stack().sampler.sigmas_6t()[i];
}

circuit::Variation6T pack6(const Dvt& x) {
  std::array<double, k6t_devices> six{};
  std::copy_n(x.begin(), k6t_devices, six.begin());
  return VariationSampler::pack_6t(six);
}

double metric(const Case& c, const Dvt& x, double vdd) {
  const FailureCriteria& crit = stack().criteria;
  return c.cell8 ? crit.metric(c.m, VariationSampler::pack_8t(x), vdd)
                 : crit.metric(c.m, pack6(x), vdd);
}

bool fails(const Case& c, const Dvt& x, double vdd) {
  const FailureCriteria& crit = stack().criteria;
  return c.cell8 ? crit.fails(c.m, VariationSampler::pack_8t(x), vdd)
                 : crit.fails(c.m, pack6(x), vdd);
}

/// Disagreements with `oracle` (each sample's metric > 0) of
/// FailureCriteria::fails_block for case c on each of `tiers`.
std::size_t block_disagreements(const Case& c, const std::vector<Dvt>& xs,
                                const std::vector<bool>& oracle, double vdd,
                                std::span<const util::IsaTier> tiers) {
  const CircuitStack& s = stack();
  const std::size_t n = xs.size();
  const auto out = std::make_unique<bool[]>(n);
  const std::span<bool> verdicts{out.get(), n};
  std::vector<circuit::Variation6T> cells6(n);
  std::vector<circuit::Variation8T> cells8(n);
  for (std::size_t k = 0; k < n; ++k) {
    cells6[k] = pack6(xs[k]);
    cells8[k] = VariationSampler::pack_8t(xs[k]);
  }
  std::size_t disagreements = 0;
  for (const util::IsaTier tier : tiers) {
    // Every run starts from wrong verdicts, so one it leaves unset shows.
    for (std::size_t k = 0; k < n; ++k) verdicts[k] = !oracle[k];
    if (c.cell8) {
      s.criteria.fails_block(c.m, std::span{cells8}, vdd, verdicts, tier);
    } else {
      s.criteria.fails_block(c.m, std::span{cells6}, vdd, verdicts, tier);
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (verdicts[k] == oracle[k]) continue;
      ++disagreements;
      ADD_FAILURE() << c.name << " at " << vdd << " V: sample " << k
                    << " decided against the oracle by fails_block on "
                    << util::isa_tier_name(tier);
    }
  }
  return disagreements;
}

/// Unit failure direction in standardized coordinates, from the same
/// central differences the importance sampler takes (all zero when the
/// metric does not respond to variation).
Dvt failure_direction(const Case& c, double vdd) {
  Dvt g{};
  double norm = 0.0;
  for (std::size_t i = 0; i < dims(c); ++i) {
    Dvt plus{};
    Dvt minus{};
    plus[i] = 0.5 * sigma(c, i);
    minus[i] = -0.5 * sigma(c, i);
    g[i] = metric(c, plus, vdd) - metric(c, minus, vdd);
    norm += g[i] * g[i];
  }
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& gi : g) gi /= norm;
  }
  return g;
}

/// Standardized draw shifted by `beta` along `dir`, scaled back to volts
/// (beta = 0 is a plain sample).
Dvt draw(const Case& c, util::Rng& rng, const Dvt& dir, double beta) {
  Dvt x{};
  for (std::size_t i = 0; i < dims(c); ++i) {
    x[i] = (beta * dir[i] + rng.normal()) * sigma(c, i);
  }
  return x;
}

struct Tally {
  std::size_t decisions = 0;
  std::size_t disagreements = 0;
};

Tally merge(Tally a, const Tally& b) {
  a.decisions += b.decisions;
  a.disagreements += b.disagreements;
  return a;
}

/// Sets oracle[k] = metric > 0 for each of `xs` (one case at one voltage)
/// and decides each one by one with fails against it.
Tally agree_one_by_one(const Case& c, const std::vector<Dvt>& xs, double vdd,
                       std::vector<bool>& oracle) {
  Tally t;
  oracle.assign(xs.size(), false);
  for (std::size_t k = 0; k < xs.size(); ++k) {
    oracle[k] = metric(c, xs[k], vdd) > 0.0;
    ++t.decisions;
    if (fails(c, xs[k], vdd) != oracle[k]) {
      ++t.disagreements;
      ADD_FAILURE() << c.name << " at " << vdd << " V: sample " << k
                    << " decided against the oracle";
    }
  }
  return t;
}

/// Decides `xs` of one case at one voltage one by one and on every block
/// path, against the oracle.
Tally agree_on(const Case& c, const std::vector<Dvt>& xs, double vdd) {
  std::vector<bool> oracle;
  Tally t = agree_one_by_one(c, xs, vdd, oracle);
  t.disagreements +=
      block_disagreements(c, xs, oracle, vdd, util::available_isa_tiers());
  return t;
}

/// `plain` plain and `shifted` IS-shifted (beta = 3.5) samples of one case
/// at one voltage.
std::vector<Dvt> plain_and_shifted(const Case& c, double vdd,
                                   std::size_t plain, std::size_t shifted,
                                   std::uint64_t seed) {
  util::Rng rng{seed};
  const Dvt dir = failure_direction(c, vdd);
  std::vector<Dvt> xs;
  for (std::size_t k = 0; k < plain + shifted; ++k) {
    xs.push_back(draw(c, rng, dir, k < plain ? 0.0 : 3.5));
  }
  return xs;
}

/// Samples within `jitter` sigma of the metric's `level` set (the failure
/// boundary at level 0): bisect (60 steps, on metric > level) between the
/// origin and a sample above the level, then jitter the crossing by
/// `jitter` sigma per device. Those samples are plain or IS-shifted
/// (beta = 3.5) draws, scaled up to 4x when the mechanism's tail lies
/// beyond the shift.
std::vector<Dvt> boundary_samples(const Case& c, double vdd,
                                  std::size_t crossings, std::size_t jitters,
                                  std::uint64_t seed, double level = 0.0,
                                  double jitter = 1e-10) {
  std::vector<Dvt> out;
  if (metric(c, Dvt{}, vdd) > level) return out;  // origin above the level
  util::Rng rng{seed};
  const Dvt dir = failure_direction(c, vdd);
  const auto scaled = [&](const Dvt& x, double t) {
    Dvt y{};
    for (std::size_t i = 0; i < dims(c); ++i) y[i] = t * x[i];
    return y;
  };
  for (std::size_t tries = 0;
       out.size() < crossings * jitters && tries < 20 * crossings; ++tries) {
    const Dvt base = draw(c, rng, dir, tries % 2 == 0 ? 0.0 : 3.5);
    double reach = 0.0;  // smallest scale at which `base` is above
    for (const double k : {1.0, 2.0, 3.0, 4.0}) {
      if (metric(c, scaled(base, k), vdd) > level) {
        reach = k;
        break;
      }
    }
    if (reach == 0.0) continue;
    double lo = 0.0;    // at or below the level
    double hi = reach;  // above it
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      (metric(c, scaled(base, mid), vdd) > level ? hi : lo) = mid;
    }
    const Dvt edge = scaled(base, 0.5 * (lo + hi));
    for (std::size_t j = 0; j < jitters; ++j) {
      Dvt x = edge;
      for (std::size_t i = 0; i < dims(c); ++i) {
        x[i] += jitter * rng.normal() * sigma(c, i);
      }
      out.push_back(x);
    }
  }
  return out;
}

// ---- agreement ------------------------------------------------------------------

class DecisionAgreement : public ::testing::TestWithParam<double> {};

TEST_P(DecisionAgreement, PlainAndShiftedSamplesMatchTheOracle) {
  const double vdd = GetParam();
  for (const Case& c : kCases) {
    const auto lane_fallbacks = [&c] {
      return c.m == Mechanism::write ? write_lane_fallbacks()
                                     : read_lane_fallbacks();
    };
    const std::uint64_t lane_before = lane_fallbacks();
    const Tally t = agree_on(c, plain_and_shifted(c, vdd, 500, 500, 17), vdd);
    EXPECT_EQ(t.decisions, 1000u);
    EXPECT_EQ(t.disagreements, 0u) << c.name;
    // Samples away from the boundary are the lanes' to decide: at most 1%
    // may fall back on each tier with lanes.
    EXPECT_LE(lane_fallbacks() - lane_before,
              tiers_with_lanes() * t.decisions / 100)
        << c.name << " at " << vdd << " V";
  }
  // The 8T read port has no disturb mechanism: the oracle is constant -1.
  util::Rng rng{3};
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(stack().criteria.fails(Mechanism::read_disturb,
                                        stack().sampler.sample_8t(rng), vdd));
  }
}

TEST_P(DecisionAgreement, BoundaryClusteredSamplesMatchAndFallBack) {
  const double vdd = GetParam();
  std::size_t cases_sampled = 0;
  for (const Case& c : kCases) {
    const std::uint64_t before = oracle_fallbacks();
    const std::uint64_t write_before = write_lane_fallbacks();
    const std::uint64_t read_before = read_lane_fallbacks();
    const std::vector<Dvt> samples = boundary_samples(c, vdd, 8, 16, 29);
    EXPECT_EQ(agree_on(c, samples, vdd).disagreements, 0u)
        << c.name << " at " << vdd << " V";
    if (samples.empty()) continue;
    ++cases_sampled;
    // Boundary samples end inside the lanes' band, which hands them to
    // fails(). The write verdict never needs the oracle; the bracketed
    // mechanisms must hand boundary samples to it.
    const bool write = c.m == Mechanism::write;
    const std::uint64_t own = write ? write_lane_fallbacks() - write_before
                                    : read_lane_fallbacks() - read_before;
    const std::uint64_t other = write ? read_lane_fallbacks() - read_before
                                      : write_lane_fallbacks() - write_before;
    EXPECT_EQ(other, 0u) << c.name;
    if (on_lanes()) {
      EXPECT_GT(own, 0u) << c.name << " at " << vdd;
    } else {
      EXPECT_EQ(own, 0u) << c.name;
    }
    if (write) {
      EXPECT_EQ(oracle_fallbacks(), before) << c.name;
    } else {
      EXPECT_GT(oracle_fallbacks(), before) << c.name << " at " << vdd;
    }
  }
  // Only a far 8T write tail may stay out of reach of the 4x-scaled draws.
  EXPECT_GE(cases_sampled, std::size(kCases) - 1);
}

TEST_P(DecisionAgreement, SamplesInsideTheLaneBandFallBack) {
  // Samples whose metric sits a third of the lane band above or below zero:
  // clear of the scalar margins, but inside the band, so no lane may decide
  // one. For write the metric is (Q - QB)/vdd, which the write band bounds.
  const double vdd = GetParam();
  const std::size_t tiers = tiers_with_lanes();
  std::size_t cases_sampled = 0;
  for (const Case& c : kCases) {
    const bool write = c.m == Mechanism::write;
    const double band =
        write ? circuit::kWriteLaneBand : FailureCriteria::kReadLaneBand;
    for (const double level : {1.0 / 3.0, -1.0 / 3.0}) {
      const std::uint64_t before =
          write ? write_lane_fallbacks() : read_lane_fallbacks();
      const std::vector<Dvt> samples =
          boundary_samples(c, vdd, 4, 4, 31, level * band);
      EXPECT_EQ(agree_on(c, samples, vdd).disagreements, 0u)
          << c.name << " at " << vdd << " V";
      cases_sampled += samples.empty() ? 0 : 1;
      const std::uint64_t after =
          write ? write_lane_fallbacks() : read_lane_fallbacks();
      EXPECT_EQ(after - before, tiers * samples.size())
          << c.name << " at " << vdd << " V, level " << level;
    }
  }
  // Only a far 8T write tail may stay out of reach of the 4x-scaled draws.
  EXPECT_GE(cases_sampled, 2 * (std::size(kCases) - 1));
}

TEST_P(DecisionAgreement, WriteLanesDecideAtATighterBand) {
  // The write lanes hand back only verdicts, so their drift from the scalar
  // transient is pinned through them: with the band narrowed from
  // kWriteLaneBand to 1e-12, every tier with lanes must decide each sample whose
  // scalar margin (Q - QB)/vdd sits at 2e-12 above or below zero (bisected
  // to that level, not jittered), and decide it as write_fails does. A lane
  // margin that drifted by 1e-12 vdd or more would leave some of them
  // undecided or decide them the other way; so the drift stays under 1e-12
  // vdd, six orders under the band the block path decides against.
  if (!on_lanes()) return;
  constexpr double band = 1e-12;
  const double vdd = GetParam();
  const CircuitStack& s = stack();
  const double budget = s.cycle.write_budget(vdd);
  std::size_t decided = 0;
  for (const Case& c : kCases) {
    if (c.m != Mechanism::write) continue;
    const circuit::Sizing6T& sz = c.cell8 ? s.sizing8.core : s.sizing6;
    const circuit::detail::WriteLaneJob job{
        circuit::detail::lane_device(s.tech.nmos, sz.w_pg, s.tech.lmin),
        circuit::detail::lane_device(s.tech.nmos, sz.w_pd, s.tech.lmin),
        circuit::detail::lane_device(s.tech.pmos, sz.w_pu, s.tech.lmin),
        vdd,
        budget / circuit::Bitcell6T::kWriteSteps,
        s.cycle.c_node(),
        -band * vdd,
        band};
    for (const double level : {2 * band, -2 * band}) {
      const std::vector<Dvt> xs =
          boundary_samples(c, vdd, 16, 1, 37, level, 0.0);
      std::vector<circuit::Variation6T> cells(xs.size());
      std::transform(xs.begin(), xs.end(), cells.begin(), pack6);
      for (const util::IsaTier tier : util::available_isa_tiers()) {
        const circuit::detail::LaneKernels* kernels =
            circuit::detail::lane_kernels(tier);
        if (kernels == nullptr) continue;
        std::vector<circuit::LaneVerdict> verdicts(
            cells.size(), circuit::LaneVerdict::undecided);
        kernels->write(job, cells.data(), cells.size(), verdicts.data());
        for (std::size_t k = 0; k < cells.size(); ++k) {
          const bool scalar = circuit::Bitcell6T{s.tech, sz, cells[k]}
                                  .write_fails(vdd, s.cycle.c_node(), budget);
          EXPECT_EQ(verdicts[k], scalar ? circuit::LaneVerdict::fail
                                        : circuit::LaneVerdict::pass)
              << c.name << " at " << vdd << " V, level " << level
              << ", sample " << k << " on " << util::isa_tier_name(tier);
        }
        decided += cells.size();
      }
    }
  }
  // The 6T write's boundary is in reach at every paper voltage.
  EXPECT_GT(decided, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperVoltages, DecisionAgreement,
                         ::testing::ValuesIn(circuit::paper_voltage_grid()));

// ---- the monotone-write premise -------------------------------------------------

/// Replays the write transient of Bitcell6T::write_residual (same devices,
/// same Euler step) and reports whether Q ever rose or QB ever fell. The
/// early exit of Bitcell6T::write_fails is exact only if neither happens.
bool write_transient_monotone(const circuit::Variation6T& v,
                              const circuit::Sizing6T& sz, double vdd) {
  const CircuitStack& s = stack();
  const circuit::Technology& t = s.tech;
  const circuit::Mosfet pu_l{t.pmos, sz.w_pu, t.lmin, v.pu_l};
  const circuit::Mosfet pd_l{t.nmos, sz.w_pd, t.lmin, v.pd_l};
  const circuit::Mosfet pu_r{t.pmos, sz.w_pu, t.lmin, v.pu_r};
  const circuit::Mosfet pd_r{t.nmos, sz.w_pd, t.lmin, v.pd_r};
  const circuit::Mosfet pg_l{t.nmos, sz.w_pg, t.lmin, v.pg_l};
  const circuit::Mosfet pg_r{t.nmos, sz.w_pg, t.lmin, v.pg_r};
  const double c_node = s.cycle.c_node();
  const double dt = s.cycle.write_budget(vdd) / 120;
  double q = vdd;
  double qb = 0.0;
  for (int i = 0; i < 120; ++i) {
    const double i_q = pu_l.ids(vdd - qb, vdd - q) - pd_l.ids(qb, q) -
                       pg_l.ids(vdd, q);
    const double i_qb = pu_r.ids(vdd - q, vdd - qb) - pd_r.ids(q, qb) +
                        pg_r.ids(vdd - qb, vdd - qb);
    const double q_next = std::clamp(q + dt * i_q / c_node, 0.0, vdd);
    const double qb_next = std::clamp(qb + dt * i_qb / c_node, 0.0, vdd);
    if (q_next > q || qb_next < qb) return false;
    q = q_next;
    qb = qb_next;
  }
  return true;
}

TEST(WritePremise, TransientNeverRaisesQOrLowersQb) {
  const CircuitStack& s = stack();
  const Case c6{"6t.write", false, Mechanism::write};
  const Case c8{"8t.write", true, Mechanism::write};
  for (const double vdd : circuit::paper_voltage_grid()) {
    for (const Case& c : {c6, c8}) {
      util::Rng rng{41};
      const Dvt dir = failure_direction(c, vdd);
      const circuit::Sizing6T& sz = c.cell8 ? s.sizing8.core : s.sizing6;
      for (int k = 0; k < 200; ++k) {
        const Dvt x = draw(c, rng, dir, k < 100 ? 0.0 : 3.5);
        EXPECT_TRUE(write_transient_monotone(pack6(x), sz, vdd))
            << c.name << " at " << vdd << " V, sample " << k;
      }
      // The write lanes' band rests on the premise exactly where their
      // margins end up: next to the flip boundary.
      const std::vector<Dvt> edge = boundary_samples(c, vdd, 4, 8, 43);
      for (std::size_t k = 0; k < edge.size(); ++k) {
        EXPECT_TRUE(write_transient_monotone(pack6(edge[k]), sz, vdd))
            << c.name << " at " << vdd << " V, boundary sample " << k;
      }
    }
  }
}

// ---- the long sweep ------------------------------------------------------------

/// Lane fallbacks of the million-decision sweep on one ISA tier, as
/// measured when they were pinned (AVX-512 host, GCC 12.2, glibc 2.36).
struct PinnedLaneFallbacks {
  util::IsaTier tier;
  std::uint64_t write;
  std::uint64_t read;
};

constexpr PinnedLaneFallbacks kPinnedLaneFallbacks[] = {
    {util::IsaTier::scalar, 0, 0},
    {util::IsaTier::avx2, 44200, 84000},
    {util::IsaTier::avx512, 44200, 84000},
};

/// One job of the sweep: samples of one case at one voltage and their
/// oracle verdicts.
struct SweepJob {
  const Case* c = nullptr;
  double vdd = 0.0;
  std::vector<Dvt> xs;
  std::vector<bool> oracle;
};

TEST(DecisionSweep, DISABLED_MillionDecisionSweep) {
  // ~1M decisions: for every paper voltage and mechanism, plain and
  // IS-shifted samples plus boundary-clustered ones, on all threads, each
  // decided one by one and then on the block path of each ISA tier in
  // turn, so the lane counters split by tier. A tier that sends more than
  // 1% more samples to the scalar path than pinned fails: the verdicts
  // would still agree, but the lanes would have lost work to the scalar
  // path.
  const std::vector<double> grid = circuit::paper_voltage_grid();
  constexpr std::size_t kChunksPerCase = 16;
  constexpr std::size_t kPerChunk = 1600;  // half plain, half shifted
  const std::size_t n_cases = std::size(kCases);
  const std::size_t sampled_jobs = grid.size() * n_cases * kChunksPerCase;
  const std::size_t boundary_jobs = grid.size() * n_cases;
  std::vector<SweepJob> jobs(sampled_jobs + boundary_jobs);
  const std::uint64_t fallbacks_before = oracle_fallbacks();
  const auto one_by_one = [&](std::size_t begin, std::size_t end) {
    Tally t;
    for (std::size_t j = begin; j < end; ++j) {
      SweepJob& job = jobs[j];
      if (j < sampled_jobs) {
        job.c = &kCases[(j / kChunksPerCase) % n_cases];
        job.vdd = grid[j / (kChunksPerCase * n_cases)];
        job.xs = plain_and_shifted(*job.c, job.vdd, kPerChunk / 2,
                                   kPerChunk / 2, 1000 + j);
      } else {
        const std::size_t b = j - sampled_jobs;
        job.c = &kCases[b % n_cases];
        job.vdd = grid[b / n_cases];
        job.xs = boundary_samples(*job.c, job.vdd, 40, 100, 7000 + b);
      }
      t = merge(t, agree_one_by_one(*job.c, job.xs, job.vdd, job.oracle));
    }
    return t;
  };
  const Tally sampled =
      util::parallel_reduce(sampled_jobs, sampled_jobs, Tally{}, one_by_one,
                            merge);
  const Tally boundary = util::parallel_reduce(
      boundary_jobs, boundary_jobs, Tally{},
      [&](std::size_t begin, std::size_t end) {
        return one_by_one(sampled_jobs + begin, sampled_jobs + end);
      },
      merge);
  std::printf(
      "decisions: %zu sampled + %zu boundary, one-by-one disagreements: "
      "%zu, oracle fallbacks: %llu\n",
      sampled.decisions, boundary.decisions,
      sampled.disagreements + boundary.disagreements,
      static_cast<unsigned long long>(oracle_fallbacks() - fallbacks_before));
  EXPECT_GE(sampled.decisions + boundary.decisions, 1000000u);
  EXPECT_EQ(sampled.disagreements, 0u);
  EXPECT_EQ(boundary.disagreements, 0u);
  for (const util::IsaTier tier : util::available_isa_tiers()) {
    const std::uint64_t oracle_before = oracle_fallbacks();
    const std::uint64_t write_before = write_lane_fallbacks();
    const std::uint64_t read_before = read_lane_fallbacks();
    const std::size_t block = util::parallel_reduce(
        jobs.size(), jobs.size(), std::size_t{0},
        [&](std::size_t begin, std::size_t end) {
          std::size_t d = 0;
          for (std::size_t j = begin; j < end; ++j) {
            const SweepJob& job = jobs[j];
            d += block_disagreements(*job.c, job.xs, job.oracle, job.vdd,
                                     std::span{&tier, 1});
          }
          return d;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
    const std::uint64_t write = write_lane_fallbacks() - write_before;
    const std::uint64_t read = read_lane_fallbacks() - read_before;
    const char* name = util::isa_tier_name(tier).data();
    std::printf(
        "%s: block disagreements: %zu, oracle fallbacks: %llu, lane "
        "fallbacks: write %llu, read %llu\n",
        name, block,
        static_cast<unsigned long long>(oracle_fallbacks() - oracle_before),
        static_cast<unsigned long long>(write),
        static_cast<unsigned long long>(read));
    EXPECT_EQ(block, 0u) << name;
    for (const PinnedLaneFallbacks& pin : kPinnedLaneFallbacks) {
      if (pin.tier != tier) continue;
      EXPECT_LE(write, pin.write + pin.write / 100)
          << name << ": write lane fallbacks, pinned at " << pin.write;
      EXPECT_LE(read, pin.read + pin.read / 100)
          << name << ": read lane fallbacks, pinned at " << pin.read;
    }
  }
}

}  // namespace
}  // namespace hynapse::mc
