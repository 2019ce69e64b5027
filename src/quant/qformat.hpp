// Fixed-point synaptic weight representation.
//
// The paper stores synaptic weights at 8-bit precision (Section VI: "We use a
// synaptic precision of 8 bits since the observed degradation in accuracy is
// less than 0.5% from the nominal value"). Weights are two's-complement Qm.n
// values; the MSB-first bit order defines the "significance" that drives the
// hybrid 8T/6T partition: bit (total_bits-1) is the sign bit and most
// significant, bit 0 the LSB.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace hynapse::quant {

/// Quantizer rounding behaviour. The paper's storage path uses
/// round-to-nearest; truncation models a cheaper datapath, stochastic
/// rounding is the unbiased alternative used in training-oriented systems.
enum class RoundingMode : std::uint8_t {
  nearest_even,
  truncate,    ///< toward negative infinity (floor of the scaled value)
  stochastic,  ///< probability proportional to the fractional residue
};

/// Two's-complement fixed-point format with `total_bits` bits, of which
/// `frac_bits` are fractional. Integer bits (including sign) =
/// total_bits - frac_bits. Example: Q2.6 in 8 bits represents
/// [-2, 2 - 2^-6] with LSB 2^-6.
class QFormat {
 public:
  /// Throws std::invalid_argument unless 2 <= total_bits <= 16 and
  /// 0 <= frac_bits < total_bits.
  QFormat(int total_bits, int frac_bits);

  [[nodiscard]] int total_bits() const noexcept { return total_bits_; }
  [[nodiscard]] int frac_bits() const noexcept { return frac_bits_; }
  [[nodiscard]] int int_bits() const noexcept {
    return total_bits_ - frac_bits_;
  }

  /// Value of one LSB step, 2^-frac_bits.
  [[nodiscard]] double lsb() const noexcept { return lsb_; }
  /// Smallest representable value (-2^(int_bits-1)).
  [[nodiscard]] double min_value() const noexcept;
  /// Largest representable value (2^(int_bits-1) - lsb).
  [[nodiscard]] double max_value() const noexcept;

  /// Round-to-nearest-even quantization with saturation; returns the signed
  /// integer code in [-2^(total-1), 2^(total-1)-1].
  [[nodiscard]] std::int32_t quantize(double value) const noexcept;

  /// Quantization with an explicit rounding mode. `rng` is required for
  /// RoundingMode::stochastic and ignored otherwise.
  [[nodiscard]] std::int32_t quantize(double value, RoundingMode mode,
                                      util::Rng* rng = nullptr) const;

  /// Code -> real value.
  [[nodiscard]] double dequantize(std::int32_t code) const noexcept {
    return static_cast<double>(code) * lsb_;
  }

  /// Convenience: quantize then dequantize.
  [[nodiscard]] double round_trip(double value) const noexcept;

  /// Signed code -> raw two's-complement bit pattern (low `total_bits` bits).
  [[nodiscard]] std::uint32_t to_bits(std::int32_t code) const noexcept {
    return static_cast<std::uint32_t>(code) & ((1u << total_bits_) - 1u);
  }

  /// Raw bit pattern -> signed code (sign-extends bit total_bits-1).
  [[nodiscard]] std::int32_t from_bits(std::uint32_t bits) const noexcept {
    bits &= (1u << total_bits_) - 1u;
    if (bits & (1u << (total_bits_ - 1))) {
      return static_cast<std::int32_t>(bits) -
             static_cast<std::int32_t>(1u << total_bits_);
    }
    return static_cast<std::int32_t>(bits);
  }

  /// Magnitude of the value change caused by flipping `bit` (0 = LSB).
  /// For the sign bit this is 2^(total_bits-1) * lsb().
  [[nodiscard]] double bit_flip_magnitude(int bit) const;

  /// "Q<int_bits>.<frac_bits>" descriptor, e.g. "Q2.6".
  [[nodiscard]] std::string name() const;

  friend bool operator==(const QFormat&, const QFormat&) = default;

 private:
  int total_bits_;
  int frac_bits_;
  double lsb_;  ///< 2^-frac_bits_, exact
};

/// Smallest-integer-bits format of `total_bits` that can represent
/// +-max_abs without saturation (at least one integer bit for the sign).
/// This is the per-layer format-selection rule used for the benchmark ANN.
[[nodiscard]] QFormat choose_format(double max_abs, int total_bits);

/// Largest |value| over a span (0 for an empty span).
[[nodiscard]] double max_abs(std::span<const double> values) noexcept;
[[nodiscard]] double max_abs(std::span<const float> values) noexcept;

/// Flips `bit` in a raw pattern.
[[nodiscard]] constexpr std::uint32_t flip_bit(std::uint32_t bits,
                                               int bit) noexcept {
  return bits ^ (1u << bit);
}

/// RMS quantization error of an ideal uniform quantizer: lsb / sqrt(12).
[[nodiscard]] double ideal_rms_error(const QFormat& fmt) noexcept;

}  // namespace hynapse::quant
