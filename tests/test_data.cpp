#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/idx.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hynapse::data {
namespace {

TEST(Digits, DeterministicForSeed) {
  const Dataset a = generate_digits(50, 42);
  const Dataset b = generate_digits(50, 42);
  EXPECT_EQ(a.images, b.images);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Digits, DifferentSeedsDiffer) {
  const Dataset a = generate_digits(50, 1);
  const Dataset b = generate_digits(50, 2);
  EXPECT_NE(a.images, b.images);
}

TEST(Digits, BalancedClasses) {
  const Dataset ds = generate_digits(1000, 7);
  const auto hist = class_histogram(ds);
  for (std::size_t c = 0; c < 10; ++c) EXPECT_EQ(hist[c], 100u) << c;
}

TEST(Digits, PixelsNormalized) {
  const Dataset ds = generate_digits(100, 3);
  for (float v : ds.images.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Digits, DigitsHaveInk) {
  const Dataset ds = generate_digits(100, 5);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    double ink = 0.0;
    for (std::size_t p = 0; p < kDigitPixels; ++p) ink += ds.images.at(i, p);
    EXPECT_GT(ink, 10.0) << "sample " << i << " is blank";
    EXPECT_LT(ink, 500.0) << "sample " << i << " is saturated";
  }
}

TEST(Digits, BorderPixelsMostlyEmpty) {
  // The property the paper's input-layer-resilience argument rests on:
  // informative pixels concentrate in the centre.
  const Dataset ds = generate_digits(500, 11);
  double border_ink = 0.0;
  double center_ink = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t r = 0; r < kDigitSide; ++r) {
      for (std::size_t c = 0; c < kDigitSide; ++c) {
        const float v = ds.images.at(i, r * kDigitSide + c);
        const bool border = r < 2 || r >= kDigitSide - 2 || c < 2 ||
                            c >= kDigitSide - 2;
        (border ? border_ink : center_ink) += v;
      }
    }
  }
  EXPECT_LT(border_ink, 0.10 * center_ink);
}

TEST(Digits, ClassesAreVisuallyDistinct) {
  // Mean images of different classes should differ substantially (L2).
  const Dataset ds = generate_digits(500, 13);
  std::vector<std::vector<double>> means(10,
                                         std::vector<double>(kDigitPixels));
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const int y = ds.labels[i];
    ++counts[y];
    for (std::size_t p = 0; p < kDigitPixels; ++p)
      means[y][p] += ds.images.at(i, p);
  }
  for (int c = 0; c < 10; ++c)
    for (auto& v : means[c]) v /= counts[c];
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double dist = 0.0;
      for (std::size_t p = 0; p < kDigitPixels; ++p) {
        const double d = means[a][p] - means[b][p];
        dist += d * d;
      }
      EXPECT_GT(std::sqrt(dist), 1.0) << a << " vs " << b;
    }
  }
}

TEST(Digits, RenderAllClassesDirectly) {
  std::vector<float> px(kDigitPixels);
  for (int d = 0; d < 10; ++d) {
    render_digit(d, 99, DigitGenOptions{}, px.data());
    const double ink = std::accumulate(px.begin(), px.end(), 0.0);
    EXPECT_GT(ink, 10.0) << "digit " << d;
  }
}

// The per-pixel renderer render_digit replaced, kept as its oracle: every
// pixel takes the sqrt distance to every stroke segment. Same strokes,
// transform and draws as digits.cpp.
namespace oracle {

struct Point {
  double x;
  double y;
};

using Polyline = std::vector<Point>;

Polyline ellipse(double cx, double cy, double rx, double ry) {
  Polyline p;
  for (int i = 0; i <= 24; ++i) {
    const double t = 2.0 * M_PI * static_cast<double>(i) / 24;
    p.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
  }
  return p;
}

Polyline arc(double cx, double cy, double rx, double ry, double t0,
             double t1) {
  Polyline p;
  for (int i = 0; i <= 16; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) / 16;
    p.push_back({cx + rx * std::cos(t), cy + ry * std::sin(t)});
  }
  return p;
}

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

double dist_to_segment(Point p, Point a, Point b) {
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
  return std::sqrt(px * px + py * py);
}

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
  const double m00 = c * sx + (-s) * sx * 0.0;
  const double m01 = c * shear * sy - s * sy;
  const double m10 = s * sx;
  const double m11 = s * shear * sy + c * sy;

  std::vector<Polyline> strokes = digit_strokes(digit);
  for (Polyline& line : strokes) {
    for (Point& p : line) {
      const double x = p.x - 0.5;
      const double y = p.y - 0.5;
      p = {m00 * x + m01 * y + 0.5 + tx, m10 * x + m11 * y + 0.5 + ty};
      p.x = 4.0 + 20.0 * p.x;
      p.y = 4.0 + 20.0 * p.y;
    }
  }
  const double thickness_px = thickness * side;
  const double aa = 0.55;
  for (std::size_t row = 0; row < kDigitSide; ++row) {
    for (std::size_t col = 0; col < kDigitSide; ++col) {
      const Point p{static_cast<double>(col) + 0.5,
                    static_cast<double>(row) + 0.5};
      double d = 1e9;
      for (const Polyline& line : strokes) {
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
          d = std::min(d, dist_to_segment(p, line[i], line[i + 1]));
        }
      }
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

}  // namespace oracle

// render_digit scatters squared distances over each segment's grown
// bounding box; it must equal the per-pixel oracle bit for bit, on the
// default options and on the edges of the box argument.
TEST(Digits, RasterMatchesPerPixelOracle) {
  DigitGenOptions thin;  // strokes a hair wide: only the falloff inks
  thin.min_thickness = 0.0;
  thin.max_thickness = 1e-3;
  DigitGenOptions off_frame;  // shifts of up to ~29 px leave the frame
  off_frame.max_shift_px = 40.0;
  off_frame.pixel_noise = 0.0;
  DigitGenOptions noiseless;
  noiseless.pixel_noise = 0.0;
  DigitGenOptions dot;  // zero scale: every segment has len2 == 0
  dot.min_scale = 0.0;
  dot.max_scale = 0.0;
  struct Case {
    const char* name;
    DigitGenOptions options;
    std::size_t images;
  };
  std::vector<float> got(kDigitPixels);
  std::vector<float> want(kDigitPixels);
  util::Rng seeds{2024};
  std::size_t dark_off_frame = 0;
  for (const Case& c : {Case{"default", {}, 2000}, Case{"thin", thin, 200},
                        Case{"off_frame", off_frame, 400},
                        Case{"noiseless", noiseless, 200},
                        Case{"dot", dot, 100}}) {
    for (std::size_t i = 0; i < c.images; ++i) {
      const int digit = static_cast<int>(i % 10);
      const std::uint64_t seed = seeds.next_u64();
      render_digit(digit, seed, c.options, got.data());
      oracle::render_digit(digit, seed, c.options, want.data());
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               kDigitPixels * sizeof(float)))
          << c.name << " digit " << digit << " seed " << seed;
      const double ink = std::accumulate(got.begin(), got.end(), 0.0);
      if (c.name == std::string_view{"dot"}) {
        EXPECT_GT(ink, 0.5) << "a zero-length stroke still inks a dot";
      }
      if (c.name == std::string_view{"off_frame"} && ink == 0.0) {
        ++dark_off_frame;
      }
    }
  }
  // The off-frame case reaches images with no stroke pixel at all.
  EXPECT_GT(dark_off_frame, 0u);
}

TEST(Digits, AsciiArtHasExpectedShape) {
  std::vector<float> px(kDigitPixels, 0.0f);
  const std::string art = ascii_art(px.data());
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'),
            static_cast<std::ptrdiff_t>(kDigitSide));
}

TEST(Dataset, HeadTakesPrefix) {
  const Dataset ds = generate_digits(100, 17);
  const Dataset h = ds.head(30);
  EXPECT_EQ(h.size(), 30u);
  EXPECT_EQ(h.labels[7], ds.labels[7]);
  for (std::size_t p = 0; p < kDigitPixels; ++p)
    EXPECT_FLOAT_EQ(h.images.at(7, p), ds.images.at(7, p));
  EXPECT_EQ(ds.head(1000).size(), 100u);  // clamps
}

TEST(Idx, ImagesRoundTrip) {
  const Dataset ds = generate_digits(20, 19);
  const testing::ScratchDir dir;
  const std::string path = dir.file("images.idx3");
  write_idx_images(ds.images, kDigitSide, kDigitSide, path);
  const auto loaded = read_idx_images(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->rows(), 20u);
  EXPECT_EQ(loaded->cols(), kDigitPixels);
  // Byte quantization allows 1/255 error.
  for (std::size_t i = 0; i < loaded->size(); ++i)
    EXPECT_NEAR(loaded->data()[i], ds.images.data()[i], 1.0 / 255.0 + 1e-6);
}

TEST(Idx, LabelsRoundTrip) {
  const std::vector<std::uint8_t> labels{3, 1, 4, 1, 5, 9, 2, 6};
  const testing::ScratchDir dir;
  const std::string path = dir.file("labels.idx1");
  write_idx_labels(labels, path);
  const auto loaded = read_idx_labels(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, labels);
}

TEST(Idx, DatasetPairLoad) {
  const Dataset ds = generate_digits(15, 23);
  const testing::ScratchDir dir;
  const std::string ip = dir.file("pair.idx3");
  const std::string lp = dir.file("pair.idx1");
  write_idx_images(ds.images, kDigitSide, kDigitSide, ip);
  write_idx_labels(ds.labels, lp);
  const auto loaded = load_idx_dataset(ip, lp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 15u);
  EXPECT_EQ(loaded->labels, ds.labels);
}

TEST(Idx, MissingOrMalformedGivesNullopt) {
  const testing::ScratchDir dir;
  EXPECT_FALSE(read_idx_images(dir.file("nope.idx3")).has_value());
  const std::string path = dir.file("bad.idx3");
  {
    std::ofstream out{path, std::ios::binary};
    out << "junk";
  }
  EXPECT_FALSE(read_idx_images(path).has_value());
  EXPECT_FALSE(read_idx_labels(path).has_value());
}

TEST(Idx, WriterRejectsShapeMismatch) {
  const Dataset ds = generate_digits(5, 29);
  const testing::ScratchDir dir;
  EXPECT_THROW(write_idx_images(ds.images, 10, 10, dir.file("x.idx3")),
               std::invalid_argument);
}

}  // namespace
}  // namespace hynapse::data
