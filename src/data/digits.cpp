#include "data/digits.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace hynapse::data {

namespace {

struct Point {
  double x;
  double y;
};

using Polyline = std::vector<Point>;

// Closed ellipse approximated by a polyline.
Polyline ellipse(double cx, double cy, double rx, double ry, int segments = 24,
                 double phase = 0.0) {
  Polyline p;
  p.reserve(static_cast<std::size_t>(segments) + 1);
  for (int i = 0; i <= segments; ++i) {
    const double t =
        phase + 2.0 * M_PI * static_cast<double>(i) / segments;
    p.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
  }
  return p;
}

Polyline arc(double cx, double cy, double rx, double ry, double t0, double t1,
             int segments = 16) {
  Polyline p;
  p.reserve(static_cast<std::size_t>(segments) + 1);
  for (int i = 0; i <= segments; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) / segments;
    p.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
  }
  return p;
}

// Stroke skeletons in the unit square, x to the right, y DOWN (image rows).
std::vector<Polyline> digit_strokes(int digit) {
  switch (digit) {
    case 0:
      return {ellipse(0.5, 0.5, 0.27, 0.37)};
    case 1:
      return {{{0.38, 0.28}, {0.54, 0.13}, {0.54, 0.88}}};
    case 2:
      return {arc(0.5, 0.32, 0.25, 0.20, -M_PI, 0.0),
              {{0.75, 0.32}, {0.70, 0.52}, {0.30, 0.86}},
              {{0.30, 0.86}, {0.78, 0.86}}};
    case 3:
      return {arc(0.47, 0.32, 0.24, 0.19, -M_PI * 0.9, M_PI * 0.45),
              arc(0.47, 0.67, 0.26, 0.21, -M_PI * 0.45, M_PI * 0.9)};
    case 4:
      return {{{0.62, 0.12}, {0.25, 0.62}, {0.80, 0.62}},
              {{0.62, 0.12}, {0.62, 0.88}}};
    case 5:
      return {{{0.72, 0.13}, {0.32, 0.13}, {0.30, 0.47}},
              arc(0.48, 0.66, 0.25, 0.21, -M_PI * 0.55, M_PI * 0.85)};
    case 6:
      return {{{0.66, 0.12}, {0.40, 0.40}, {0.30, 0.62}},
              ellipse(0.50, 0.67, 0.21, 0.20)};
    case 7:
      return {{{0.24, 0.15}, {0.78, 0.15}, {0.42, 0.88}}};
    case 8:
      return {ellipse(0.50, 0.32, 0.20, 0.19),
              ellipse(0.50, 0.69, 0.24, 0.20)};
    case 9:
      return {ellipse(0.50, 0.34, 0.21, 0.20),
              {{0.71, 0.34}, {0.66, 0.62}, {0.52, 0.88}}};
    default:
      return {};
  }
}

double dist2_to_segment(Point p, Point a, Point b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double px = a.x + t * dx - p.x;
  const double py = a.y + t * dy - p.y;
  return px * px + py * py;
}

// The pixels [first, last) of one image axis whose centres (index + 0.5)
// lie in [lo, hi], clipped to the frame; empty when last <= first.
std::pair<std::size_t, std::size_t> pixel_span(double lo, double hi) {
  const double side = static_cast<double>(kDigitSide);
  return {static_cast<std::size_t>(std::clamp(std::ceil(lo - 0.5), 0.0, side)),
          static_cast<std::size_t>(
              std::clamp(std::floor(hi - 0.5) + 1.0, 0.0, side))};
}

struct Affine {
  // [x'; y'] = M [x - 0.5; y - 0.5] + [0.5 + tx; 0.5 + ty]
  double m00, m01, m10, m11, tx, ty;

  [[nodiscard]] Point apply(Point p) const noexcept {
    const double x = p.x - 0.5;
    const double y = p.y - 0.5;
    return {m00 * x + m01 * y + 0.5 + tx, m10 * x + m11 * y + 0.5 + ty};
  }
};

}  // namespace

void render_digit(int digit, std::uint64_t seed, const DigitGenOptions& opt,
                  float* out) {
  util::Rng rng{seed};
  const double angle = rng.uniform(-opt.max_rotate_rad, opt.max_rotate_rad);
  const double sx = rng.uniform(opt.min_scale, opt.max_scale);
  const double sy = rng.uniform(opt.min_scale, opt.max_scale);
  const double shear = rng.uniform(-opt.max_shear, opt.max_shear);
  const double side = static_cast<double>(kDigitSide);
  const double tx = rng.uniform(-opt.max_shift_px, opt.max_shift_px) / side;
  const double ty = rng.uniform(-opt.max_shift_px, opt.max_shift_px) / side;
  const double thickness =
      rng.uniform(opt.min_thickness, opt.max_thickness) / side;
  const double intensity = rng.uniform(opt.min_intensity, opt.max_intensity);

  const double c = std::cos(angle);
  const double s = std::sin(angle);
  // rotation * shear * scale
  const Affine xf{c * sx + (-s) * sx * 0.0,  // m00 (shear applied on x<-y)
                  c * shear * sy - s * sy,   // m01
                  s * sx,                    // m10
                  s * shear * sy + c * sy,   // m11
                  tx, ty};

  std::vector<Polyline> strokes = digit_strokes(digit);
  for (Polyline& line : strokes)
    for (Point& p : line) p = xf.apply(p);

  // Map stroke space (unit square) into the central 20x20-pixel box, like
  // MNIST's centred digits, and rasterize in pixel coordinates.
  for (Polyline& line : strokes) {
    for (Point& p : line) {
      p.x = 4.0 + 20.0 * p.x;
      p.y = 4.0 + 20.0 * p.y;
    }
  }
  const double thickness_px = thickness * side;  // back to pixels
  const double aa = 0.55;  // anti-aliasing falloff width [px]
  // Each segment scatters its squared distance into the pixels of its
  // bounding box grown by the falloff reach (plus a margin far above
  // rounding); a pixel outside every box is more than thickness_px + aa
  // from every segment, so it stays dark whichever segment is nearest.
  // sqrt is correctly rounded and monotone, so sqrt(min d^2) is the
  // minimum of the per-segment distances, bit for bit.
  const double reach = thickness_px + aa + 1e-6;
  std::array<double, kDigitPixels> dist2;
  dist2.fill(std::numeric_limits<double>::infinity());
  for (const Polyline& line : strokes) {
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      const Point a = line[i];
      const Point b = line[i + 1];
      const auto [c0, c1] = pixel_span(std::min(a.x, b.x) - reach,
                                       std::max(a.x, b.x) + reach);
      const auto [r0, r1] = pixel_span(std::min(a.y, b.y) - reach,
                                       std::max(a.y, b.y) + reach);
      for (std::size_t row = r0; row < r1; ++row) {
        for (std::size_t col = c0; col < c1; ++col) {
          const Point p{static_cast<double>(col) + 0.5,
                        static_cast<double>(row) + 0.5};
          double& d2 = dist2[row * kDigitSide + col];
          d2 = std::min(d2, dist2_to_segment(p, a, b));
        }
      }
    }
  }
  for (std::size_t row = 0; row < kDigitSide; ++row) {
    for (std::size_t col = 0; col < kDigitSide; ++col) {
      // Infinite (so dark) where no segment reaches.
      const double d = std::sqrt(dist2[row * kDigitSide + col]);
      double v = 0.0;
      if (d < thickness_px) {
        v = intensity;
      } else if (d < thickness_px + aa) {
        v = intensity * (1.0 - (d - thickness_px) / aa);
      }
      v += rng.normal(0.0, opt.pixel_noise);
      out[row * kDigitSide + col] =
          static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
}

Dataset generate_digits(std::size_t count, std::uint64_t seed,
                        const DigitGenOptions& options) {
  Dataset ds;
  ds.images = ann::Matrix{count, kDigitPixels};
  ds.labels.resize(count);
  util::Rng seeder{seed};
  for (std::size_t i = 0; i < count; ++i) {
    const int digit = static_cast<int>(i % 10);
    ds.labels[i] = static_cast<std::uint8_t>(digit);
    render_digit(digit, seeder.next_u64(), options, ds.images.row(i));
  }
  return ds;
}

std::string ascii_art(const float* pixels) {
  static constexpr char shades[] = " .:-=+*#%@";
  std::string out;
  out.reserve(kDigitPixels + kDigitSide);
  for (std::size_t r = 0; r < kDigitSide; ++r) {
    for (std::size_t c = 0; c < kDigitSide; ++c) {
      const float v = pixels[r * kDigitSide + c];
      const int idx = std::clamp(static_cast<int>(v * 9.99f), 0, 9);
      out.push_back(shades[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace hynapse::data
