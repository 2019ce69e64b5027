// Shared fixtures for the tests: a small trained digit classifier (trained
// once per process), hand-built failure tables with exactly controlled
// rates, and a per-test scratch directory.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "ann/trainer.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "mc/failure_table.hpp"
#include "obs/metrics.hpp"

namespace hynapse::testing {

/// Fresh, empty scratch directory under the system temp dir, keyed by the
/// running test's suite and name plus the process id, and removed on
/// destruction. ctest runs every test case as its own process, in
/// parallel, so a fixed path would let one case delete another's files.
class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "hynapse_";
    if (info != nullptr) {
      name += std::string{info->test_suite_name()} + "." + info->name() + "_";
    }
    name += std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized suite and test names
    }
    dir_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return dir_;
  }
  /// Path of `file` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// Small 784-48-24-10 digit classifier, ~97 %+ on the synthetic test set.
/// Trained lazily once; subsequent calls return the cached model.
inline const ann::Mlp& small_trained_net() {
  static const ann::Mlp net = [] {
    const data::Dataset train = data::generate_digits(1500, 11);
    ann::Mlp n{{784, 48, 24, 10}, 42};
    ann::TrainConfig cfg;
    cfg.epochs = 8;
    cfg.batch_size = 50;
    cfg.learning_rate = 0.5;
    ann::train_sgd(n, train.images, train.labels, cfg);
    return n;
  }();
  return net;
}

inline const data::Dataset& small_test_set() {
  static const data::Dataset ds = data::generate_digits(600, 1013);
  return ds;
}

/// Failure table with the same rates at every voltage: 6T cells fail with
/// the given probabilities, 8T cells are perfect. Lets tests control error
/// injection exactly.
inline mc::FailureTable flat_table(double read6, double write6,
                                   double disturb6, double read8 = 0.0,
                                   double write8 = 0.0) {
  std::vector<mc::FailureTableRow> rows;
  for (double vdd : {0.60, 1.00}) {
    mc::FailureTableRow r;
    r.vdd = vdd;
    r.cell6 = {read6, write6, disturb6};
    r.cell8 = {read8, write8, 0.0};
    rows.push_back(r);
  }
  return mc::FailureTable{std::move(rows)};
}

/// The process registry's counters at construction; delta(name) is how far
/// a counter has moved since -- what a test compares with the per-instance
/// stats() of the objects it drove.
class RegistryBaseline {
 public:
  RegistryBaseline() {
    for (const obs::MetricSnapshot& m : obs::Registry::global().snapshot()) {
      if (m.kind == obs::MetricKind::counter) start_[m.name] = m.count;
    }
  }

  [[nodiscard]] std::uint64_t delta(const std::string& name) const {
    const auto it = start_.find(name);
    return obs::Registry::global().counter(name).value() -
           (it == start_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, std::uint64_t> start_;
};

}  // namespace hynapse::testing
