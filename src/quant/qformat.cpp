#include "quant/qformat.hpp"

#include <cmath>
#include <stdexcept>

namespace hynapse::quant {

QFormat::QFormat(int total_bits, int frac_bits)
    : total_bits_{total_bits},
      frac_bits_{frac_bits},
      lsb_{std::ldexp(1.0, -frac_bits)} {
  if (total_bits < 2 || total_bits > 16)
    throw std::invalid_argument{"QFormat: total_bits must be in [2,16]"};
  if (frac_bits < 0 || frac_bits >= total_bits)
    throw std::invalid_argument{"QFormat: frac_bits must be in [0,total_bits)"};
}

double QFormat::min_value() const noexcept {
  return -std::ldexp(1.0, int_bits() - 1);
}

double QFormat::max_value() const noexcept {
  return std::ldexp(1.0, int_bits() - 1) - lsb();
}

std::int32_t QFormat::quantize(double value) const noexcept {
  const double scaled = value * std::ldexp(1.0, frac_bits_);
  // Round half to even, matching IEEE default and keeping the quantizer
  // unbiased over symmetric weight distributions.
  double rounded = std::nearbyint(scaled);
  const std::int32_t lo = -(1 << (total_bits_ - 1));
  const std::int32_t hi = (1 << (total_bits_ - 1)) - 1;
  if (rounded < static_cast<double>(lo)) rounded = static_cast<double>(lo);
  if (rounded > static_cast<double>(hi)) rounded = static_cast<double>(hi);
  return static_cast<std::int32_t>(rounded);
}

std::int32_t QFormat::quantize(double value, RoundingMode mode,
                               util::Rng* rng) const {
  const double scaled = value * std::ldexp(1.0, frac_bits_);
  double rounded = 0.0;
  switch (mode) {
    case RoundingMode::nearest_even:
      rounded = std::nearbyint(scaled);
      break;
    case RoundingMode::truncate:
      rounded = std::floor(scaled);
      break;
    case RoundingMode::stochastic: {
      if (rng == nullptr)
        throw std::invalid_argument{
            "QFormat::quantize: stochastic rounding needs an Rng"};
      const double lo = std::floor(scaled);
      const double frac = scaled - lo;
      rounded = lo + (rng->uniform() < frac ? 1.0 : 0.0);
      break;
    }
  }
  const std::int32_t lo_code = -(1 << (total_bits_ - 1));
  const std::int32_t hi_code = (1 << (total_bits_ - 1)) - 1;
  if (rounded < static_cast<double>(lo_code))
    rounded = static_cast<double>(lo_code);
  if (rounded > static_cast<double>(hi_code))
    rounded = static_cast<double>(hi_code);
  return static_cast<std::int32_t>(rounded);
}

double QFormat::round_trip(double value) const noexcept {
  return dequantize(quantize(value));
}

double QFormat::bit_flip_magnitude(int bit) const {
  if (bit < 0 || bit >= total_bits_)
    throw std::out_of_range{"QFormat::bit_flip_magnitude: bad bit index"};
  return std::ldexp(1.0, bit) * lsb();
}

std::string QFormat::name() const {
  return "Q" + std::to_string(int_bits()) + "." + std::to_string(frac_bits_);
}

QFormat choose_format(double max_abs, int total_bits) {
  if (!(max_abs >= 0.0) || !std::isfinite(max_abs))
    throw std::invalid_argument{"choose_format: max_abs must be finite >= 0"};
  // Find the smallest int_bits >= 1 with 2^(int_bits-1) > max_abs. The strict
  // inequality leaves headroom for the asymmetric positive range.
  int int_bits = 1;
  while (int_bits < total_bits &&
         std::ldexp(1.0, int_bits - 1) <= max_abs) {
    ++int_bits;
  }
  return QFormat{total_bits, total_bits - int_bits};
}

double max_abs(std::span<const double> values) noexcept {
  double m = 0.0;
  for (double v : values) m = std::max(m, std::fabs(v));
  return m;
}

double max_abs(std::span<const float> values) noexcept {
  double m = 0.0;
  for (float v : values) m = std::max(m, std::fabs(static_cast<double>(v)));
  return m;
}

double ideal_rms_error(const QFormat& fmt) noexcept {
  return fmt.lsb() / std::sqrt(12.0);
}

}  // namespace hynapse::quant
