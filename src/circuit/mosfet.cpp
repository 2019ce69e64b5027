#include "circuit/mosfet.hpp"

#include <cmath>
#include <stdexcept>

namespace hynapse::circuit {

Mosfet::Mosfet(const TechCard& card, double w, double l, double delta_vt)
    : card_{&card}, w_{w}, l_{l}, delta_vt_{delta_vt}, w_over_l_{w / l} {
  if (!(w > 0.0) || !(l > 0.0))
    throw std::invalid_argument{"Mosfet: geometry must be positive"};
}

double Mosfet::ids(double vgs, double vds) const noexcept {
  if (vds < 0.0) vds = 0.0;
  const TechCard& c = *card_;
  const double vt_eff = c.vt0 + delta_vt_ - c.dibl * vds;
  const double nvt = c.n_sub * c.phi_t;
  // Smoothed overdrive: ~ (vgs - vt) in strong inversion, exponential in
  // weak inversion. Keeps ids continuous and monotone across the threshold.
  const double x = (vgs - vt_eff) / nvt;
  double veff = 0.0;
  if (x > 40.0) {
    veff = vgs - vt_eff;
  } else {
    veff = nvt * std::log1p(std::exp(x));
  }
  if (veff <= 0.0) return 0.0;

  const double isat = c.b * w_over_l_ * std::pow(veff, c.alpha);
  const double vdsat = c.vdsat_k * std::pow(veff, 0.5 * c.alpha);
  if (vds >= vdsat) {
    return isat * (1.0 + c.lambda_clm * (vds - vdsat));
  }
  const double r = vds / vdsat;
  return isat * r * (2.0 - r);
}

double Mosfet::ids(double vgs, double vds, double& d_vgs,
                   double& d_vds) const noexcept {
  // Mirrors ids(vgs, vds) expression for expression, so the value is
  // bit-identical; the derivatives are chained alongside. dveff_dvgs is
  // d(veff)/d(vgs); the DIBL term makes d(veff)/d(vds) = dibl * dveff_dvgs.
  const bool clamped = vds < 0.0;
  if (clamped) vds = 0.0;
  const TechCard& c = *card_;
  const double vt_eff = c.vt0 + delta_vt_ - c.dibl * vds;
  const double nvt = c.n_sub * c.phi_t;
  const double x = (vgs - vt_eff) / nvt;
  double veff = 0.0;
  double dveff_dvgs = 1.0;
  if (x > 40.0) {
    veff = vgs - vt_eff;
  } else {
    const double ex = std::exp(x);
    veff = nvt * std::log1p(ex);
    dveff_dvgs = ex / (1.0 + ex);
  }
  d_vgs = 0.0;
  d_vds = 0.0;
  if (veff <= 0.0) return 0.0;

  const double isat = c.b * w_over_l_ * std::pow(veff, c.alpha);
  const double vdsat = c.vdsat_k * std::pow(veff, 0.5 * c.alpha);
  const double disat = c.alpha * isat / veff;
  const double dvdsat = 0.5 * c.alpha * vdsat / veff;
  double di_dveff = 0.0;  // through veff only
  double di_dvds = 0.0;   // explicit vds dependence
  double out = 0.0;
  if (vds >= vdsat) {
    const double clm = 1.0 + c.lambda_clm * (vds - vdsat);
    out = isat * clm;
    di_dveff = disat * clm - isat * c.lambda_clm * dvdsat;
    di_dvds = isat * c.lambda_clm;
  } else {
    const double r = vds / vdsat;
    out = isat * r * (2.0 - r);
    const double di_dr = isat * (2.0 - 2.0 * r);
    di_dveff = disat * r * (2.0 - r) - di_dr * r * dvdsat / vdsat;
    di_dvds = di_dr / vdsat;
  }
  d_vgs = di_dveff * dveff_dvgs;
  d_vds = clamped ? 0.0 : di_dveff * c.dibl * dveff_dvgs + di_dvds;
  return out;
}

double Mosfet::leakage(double vdd) const noexcept { return ids(0.0, vdd); }

double Mosfet::sigma_vt(double wmin, double lmin) const noexcept {
  return card_->sigma_vt0 * std::sqrt((lmin / l_) * (wmin / w_));
}

Mosfet Mosfet::with_delta_vt(double delta_vt) const {
  Mosfet copy = *this;
  copy.delta_vt_ = delta_vt;
  return copy;
}

}  // namespace hynapse::circuit
