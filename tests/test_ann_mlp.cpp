#include "ann/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "ann/serialize.hpp"
#include "ann/trainer.hpp"
#include "ann/workspace.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hynapse::ann {
namespace {

TEST(Mlp, CountsMatchTable1) {
  const Mlp net{{784, 1000, 500, 200, 100, 10}, 1};
  EXPECT_EQ(net.neuron_count(), 2594u);     // Table I
  EXPECT_EQ(net.synapse_count(), 1406810u); // Table I
  EXPECT_EQ(net.num_weight_layers(), 5u);
}

TEST(Mlp, RejectsDegenerateTopology) {
  EXPECT_THROW((Mlp{{10}, 1}), std::invalid_argument);
  EXPECT_THROW((Mlp{{10, 0, 5}, 1}), std::invalid_argument);
}

TEST(Mlp, ForwardOutputsProbabilities) {
  const Mlp net{{4, 8, 3}, 7};
  Matrix x{5, 4};
  util::Rng rng{3};
  for (float& v : x.data()) v = static_cast<float>(rng.uniform());
  const Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < y.cols(); ++j) {
      EXPECT_GE(y.at(i, j), 0.0f);
      EXPECT_LE(y.at(i, j), 1.0f);
      sum += y.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Mlp, ForwardRejectsWrongWidth) {
  const Mlp net{{4, 3}, 7};
  const Matrix x{2, 5};
  EXPECT_THROW((void)net.forward(x), std::invalid_argument);
}

TEST(Activations, SigmoidRangeAndMidpoint) {
  Matrix m{1, 3};
  m.at(0, 0) = -100.0f;
  m.at(0, 1) = 0.0f;
  m.at(0, 2) = 100.0f;
  sigmoid_inplace(m);
  EXPECT_NEAR(m.at(0, 0), 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.5f);
  EXPECT_NEAR(m.at(0, 2), 1.0f, 1e-6);
}

TEST(Activations, SoftmaxStableForLargeLogits) {
  Matrix m{1, 2};
  m.at(0, 0) = 1000.0f;
  m.at(0, 1) = 999.0f;
  softmax_rows_inplace(m);
  EXPECT_FALSE(std::isnan(m.at(0, 0)));
  EXPECT_NEAR(m.at(0, 0) + m.at(0, 1), 1.0f, 1e-6);
  EXPECT_GT(m.at(0, 0), m.at(0, 1));
}

// Numerical gradient check on a tiny network: backprop must match finite
// differences.
TEST(Trainer, GradientMatchesFiniteDifference) {
  Mlp net{{3, 4, 2}, 11};
  Matrix x{4, 3};
  std::vector<std::uint8_t> y{0, 1, 1, 0};
  util::Rng rng{13};
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  // One plain gradient step with tiny lr isolates grad = -delta_w / lr.
  const double lr = 1e-3;
  Mlp trained = net;
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 4;  // single full batch
  cfg.learning_rate = lr;
  cfg.momentum = 0.0;
  cfg.lr_decay = 1.0;
  train_sgd(trained, x, y, cfg);

  // Check a handful of weight entries per layer against finite differences.
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    for (std::size_t idx : {std::size_t{0}, std::size_t{3}, std::size_t{5}}) {
      if (idx >= net.weight(l).size()) continue;
      const double grad_bp =
          (net.weight(l).data()[idx] - trained.weight(l).data()[idx]) / lr;
      const float eps = 1e-3f;
      Mlp plus = net;
      plus.weight(l).data()[idx] += eps;
      Mlp minus = net;
      minus.weight(l).data()[idx] -= eps;
      const double grad_fd =
          (cross_entropy(plus, x, y) - cross_entropy(minus, x, y)) /
          (2.0 * eps);
      EXPECT_NEAR(grad_bp, grad_fd, 5e-2 * std::max(1.0, std::fabs(grad_fd)))
          << "layer " << l << " idx " << idx;
    }
  }
}

TEST(Trainer, LearnsXor) {
  Matrix x{4, 2};
  x.at(0, 0) = 0;  x.at(0, 1) = 0;
  x.at(1, 0) = 0;  x.at(1, 1) = 1;
  x.at(2, 0) = 1;  x.at(2, 1) = 0;
  x.at(3, 0) = 1;  x.at(3, 1) = 1;
  const std::vector<std::uint8_t> y{0, 1, 1, 0};
  Mlp net{{2, 8, 2}, 5};
  TrainConfig cfg;
  cfg.epochs = 800;
  cfg.batch_size = 4;
  cfg.learning_rate = 1.0;
  cfg.momentum = 0.9;
  cfg.lr_decay = 1.0;
  train_sgd(net, x, y, cfg);
  EXPECT_DOUBLE_EQ(net.accuracy(x, y), 1.0);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  util::Rng rng{17};
  Matrix x{200, 8};
  std::vector<std::uint8_t> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 8; ++j)
      x.at(i, j) = static_cast<float>(rng.uniform());
    y[i] = x.at(i, 0) > 0.5f ? 1 : 0;
  }
  Mlp net{{8, 16, 2}, 3};
  std::vector<double> losses;
  TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 20;
  cfg.learning_rate = 0.5;
  cfg.on_epoch = [&](std::size_t, double loss) { losses.push_back(loss); };
  train_sgd(net, x, y, cfg);
  ASSERT_EQ(losses.size(), 10u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Trainer, DeterministicForFixedSeeds) {
  util::Rng rng{19};
  Matrix x{64, 4};
  std::vector<std::uint8_t> y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 4; ++j)
      x.at(i, j) = static_cast<float>(rng.uniform());
    y[i] = i % 2;
  }
  Mlp a{{4, 8, 2}, 21};
  Mlp b{{4, 8, 2}, 21};
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  train_sgd(a, x, y, cfg);
  train_sgd(b, x, y, cfg);
  EXPECT_EQ(a.weight(0), b.weight(0));
  EXPECT_EQ(a.weight(1), b.weight(1));
}

TEST(Serialize, RoundTripsExactly) {
  const Mlp net{{6, 5, 3}, 23};
  const testing::ScratchDir dir;
  const std::string path = dir.file("model.bin");
  save_mlp(net, path);
  const auto loaded = load_mlp(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->layer_sizes(), net.layer_sizes());
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    EXPECT_EQ(loaded->weight(l), net.weight(l));
    EXPECT_EQ(loaded->bias(l), net.bias(l));
  }
}

TEST(Serialize, MissingFileGivesNullopt) {
  const testing::ScratchDir dir;
  EXPECT_FALSE(load_mlp(dir.file("definitely_not_here.bin")).has_value());
}

TEST(Serialize, RejectsCorruptHeader) {
  const testing::ScratchDir dir;
  const std::string path = dir.file("corrupt.bin");
  {
    std::ofstream out{path, std::ios::binary};
    out << "garbage data that is not a model";
  }
  EXPECT_FALSE(load_mlp(path).has_value());
}

TEST(Workspace, AccuracyBitIdenticalToPlainOverload) {
  // Odd row count and a batch size smaller than the input force multiple
  // mini-batches including a short tail; the workspace overload promises
  // the exact same accuracy as the whole-set path.
  const Mlp net{{23, 31, 17, 5}, 77};
  util::Rng rng{123};
  Matrix input{103, 23};
  for (float& x : input.data()) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<std::uint8_t> labels(input.rows());
  for (auto& l : labels)
    l = static_cast<std::uint8_t>(rng.uniform_index(5));

  const double plain = net.accuracy(input, labels);
  for (const std::size_t batch : {1u, 16u, 103u, 1000u}) {
    EvalWorkspace ws{batch};
    EXPECT_DOUBLE_EQ(net.accuracy(input, labels, ws), plain)
        << "batch=" << batch;
    // Reuse without rebinding must stay stable.
    EXPECT_DOUBLE_EQ(net.accuracy(input, labels, ws), plain);
  }
}

TEST(Workspace, AccuracyMatchesAcrossActivations) {
  util::Rng rng{321};
  Matrix input{40, 12};
  for (float& x : input.data()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::uint8_t> labels(input.rows());
  for (auto& l : labels) l = static_cast<std::uint8_t>(rng.uniform_index(4));
  for (const Activation act :
       {Activation::sigmoid, Activation::tanh_lecun, Activation::relu}) {
    const Mlp net{{12, 9, 4}, 55, act};
    EvalWorkspace ws;
    EXPECT_DOUBLE_EQ(net.accuracy(input, labels, ws),
                     net.accuracy(input, labels));
  }
}

TEST(Workspace, AccuracyValidatesShapes) {
  const Mlp net{{8, 6, 3}, 1};
  EvalWorkspace ws;
  Matrix input{5, 8};
  std::vector<std::uint8_t> labels(4);  // wrong count
  EXPECT_THROW((void)net.accuracy(input, labels, ws), std::invalid_argument);
  Matrix wrong{5, 7};
  std::vector<std::uint8_t> ok(5);
  EXPECT_THROW((void)net.accuracy(wrong, ok, ws), std::invalid_argument);
}

}  // namespace
}  // namespace hynapse::ann
