#include "circuit/inverter.hpp"

namespace hynapse::circuit {

Inverter::Inverter(Mosfet pull_up, Mosfet pull_down)
    : pu_{std::move(pull_up)}, pd_{std::move(pull_down)} {}

double Inverter::output(double vin, double vdd, const Mosfet* load,
                        double v_load) const {
  // KCL residual at the output node, monotone increasing in vout:
  //   f(vout) = I_pulldown(vout) - I_pullup(vout) - I_load(vout)
  // PD current rises with vout (its vds), PU and the load current fall.
  const auto residual = [&](double vout) {
    const double i_pd = pd_.ids(vin, vout);
    const double i_pu = pu_.ids(vdd - vin, vdd - vout);
    double i_load = 0.0;
    if (load != nullptr) {
      if (v_load >= vout) {
        // NMOS access device conducting from v_load into the node; its
        // source is the output node.
        i_load = load->ids(vdd - vout, v_load - vout);
      } else {
        // Node above the load terminal: current flows out of the node.
        i_load = -load->ids(vdd - v_load, vout - v_load);
      }
    }
    return i_pd - i_pu - i_load;
  };
  return bisect_increasing(residual, 0.0, vdd);
}

double Inverter::trip_voltage(double vdd) const {
  // At the trip point vout == vin == v, so the KCL reduces to a single
  // monotone equation -- no nested solve needed (this sits on the
  // Monte-Carlo hot path).
  const auto residual = [&](double v) {
    return pd_.ids(v, v) - pu_.ids(vdd - v, vdd - v);
  };
  return bisect_increasing(residual, 0.0, vdd);
}

Bracket Inverter::trip_bracket(double vdd, double tol) const {
  const auto residual = [&](double v, double& df) {
    double pd_g = 0.0, pd_d = 0.0, pu_g = 0.0, pu_d = 0.0;
    const double i_pd = pd_.ids(v, v, pd_g, pd_d);
    const double i_pu = pu_.ids(vdd - v, vdd - v, pu_g, pu_d);
    df = pd_g + pd_d + pu_g + pu_d;
    return i_pd - i_pu;
  };
  return newton_bracket_increasing(residual, 0.0, vdd, tol, 0.5 * vdd);
}

double Inverter::gain_at_trip(double vdd) const {
  const double vt = trip_voltage(vdd);
  const double h = 1e-4 * vdd;
  const double lo = output(vt - h, vdd);
  const double hi = output(vt + h, vdd);
  return std::fabs((hi - lo) / (2.0 * h));
}

}  // namespace hynapse::circuit
