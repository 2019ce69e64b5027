#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "ann/serialize.hpp"
#include "ann/trainer.hpp"
#include "data/digits.hpp"
#include "data/idx.hpp"
#include "engine/table_cache.hpp"
#include "mc/montecarlo.hpp"
#include "util/thread_pool.hpp"

namespace hynapse::bench {

std::string cache_dir() {
  // Shared convention (engine::default_cache_dir) so tables persisted by
  // one binary are reused by the CLI/service front ends; created here
  // because the trained-model cache writes into it too.
  const std::string dir = engine::default_cache_dir();
  std::filesystem::create_directories(dir);
  return dir;
}

BenchOptions parse_bench_flags(int& argc, char** argv) {
  BenchOptions opts;
  // --threads is owned by the shared util parser (which also clamps the
  // value and applies it process-wide); only the bench-specific flags are
  // handled here.
  opts.threads = util::strip_threads_flag(argc, argv);
  const auto numeric = [](const char* s) -> long {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    return end != s && *end == '\0' ? v : 0;
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      // Accepts "--flag value" and "--flag=value". The separate-token form
      // only consumes a numeric next token, so "--samples --fresh" cannot
      // swallow the following flag.
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(arg, flag, len) != 0) return nullptr;
      if (arg[len] == '=') return arg + len + 1;
      if (arg[len] == '\0' && i + 1 < argc && numeric(argv[i + 1]) != 0) {
        return argv[++i];
      }
      return nullptr;
    };
    if (std::strcmp(arg, "--fresh") == 0) {
      opts.fresh = true;
    } else if (std::strcmp(arg, "--adaptive") == 0) {
      opts.adaptive = true;
    } else if (const char* v = value("--samples")) {
      const long n = numeric(v);
      opts.samples = n > 0 ? static_cast<std::size_t>(n) : 0;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return opts;
}

void reject_unknown_args(int argc, char** argv, const char* own_flags) {
  if (argc <= 1) return;
  std::fprintf(stderr,
               "error: unknown argument '%s'\n"
               "usage: %s [--threads N] [--samples N] [--fresh] [--adaptive]"
               "%s%s\n",
               argv[1], argv[0], *own_flags != '\0' ? " " : "", own_flags);
  std::exit(2);
}

const mc::FailureTable& failure_table(const Context& ctx,
                                      const BenchOptions& opts) {
  static engine::FailureTableCache cache{cache_dir()};
  mc::AnalyzerOptions ao;
  if (opts.samples != 0) {
    ao.mc_samples = opts.samples;
    ao.is_samples = std::max<std::size_t>(opts.samples / 2, 1000);
  }
  ao.threads = opts.threads;
  const mc::FailureAnalyzer analyzer{ctx.criteria, ctx.sampler, ao};
  const engine::TableSpec spec =
      engine::table_spec(ctx, circuit::paper_voltage_grid(), 20160312);
  const std::string path =
      cache.csv_path(engine::table_fingerprint(spec, ao));
  if (opts.fresh || !std::filesystem::exists(path)) {
    // Progress heads-up only; the definitive source is reported below.
    std::printf(
        "[common] running bitcell Monte-Carlo over the VDD grid "
        "(cached afterwards)...\n");
  }
  engine::TableSource source{};
  const mc::FailureTable& table =
      cache.get(spec, analyzer, opts.fresh, &source);
  switch (source) {
    case engine::TableSource::memory:
      break;  // same process, already reported once
    case engine::TableSource::disk:
      std::printf("[common] failure table loaded from %s\n", path.c_str());
      break;
    case engine::TableSource::built:
      std::printf("[common] failure table built by bitcell Monte-Carlo and "
                  "cached to %s\n",
                  path.c_str());
      break;
  }
  return table;
}

namespace {

data::Dataset load_test_set() {
  if (const char* dir = std::getenv("HYNAPSE_MNIST_DIR")) {
    const std::string base{dir};
    if (auto ds = data::load_idx_dataset(base + "/t10k-images-idx3-ubyte",
                                         base + "/t10k-labels-idx1-ubyte")) {
      std::printf("[common] using real MNIST test set from %s\n", dir);
      return std::move(*ds);
    }
  }
  return data::generate_digits(2000, 77001);
}

data::Dataset load_train_set() {
  if (const char* dir = std::getenv("HYNAPSE_MNIST_DIR")) {
    const std::string base{dir};
    if (auto ds = data::load_idx_dataset(base + "/train-images-idx3-ubyte",
                                         base + "/train-labels-idx1-ubyte")) {
      std::printf("[common] using real MNIST training set from %s\n", dir);
      return std::move(*ds);
    }
  }
  return data::generate_digits(8000, 42001);
}

}  // namespace

const Benchmark& benchmark_model() {
  static const Benchmark bm = [] {
    // LeCun scaled tanh: the DeepLearnToolbox default, and what lets the
    // 4-hidden-layer Table-I network train with plain backprop.
    Benchmark out{
        ann::Mlp{core::table1_layer_sizes(), 1, ann::Activation::tanh_lecun},
        load_test_set(), 0.0};
    const std::string path = cache_dir() + "/table1_model.bin";
    if (auto cached = ann::load_mlp(path);
        cached && cached->layer_sizes() == core::table1_layer_sizes()) {
      out.net = std::move(*cached);
      std::printf("[common] benchmark model loaded from %s\n", path.c_str());
    } else {
      std::printf(
          "[common] training the Table-I benchmark network "
          "(784-1000-500-200-100-10), one-time cost...\n");
      const data::Dataset train = load_train_set();
      ann::TrainConfig cfg;
      cfg.epochs = 8;
      cfg.batch_size = 64;
      cfg.learning_rate = 0.05;
      cfg.momentum = 0.9;
      cfg.lr_decay = 0.85;
      cfg.on_epoch = [](std::size_t e, double loss) {
        std::printf("[common]   epoch %zu: training loss %.4f\n", e, loss);
      };
      ann::train_sgd(out.net, train.images, train.labels, cfg);
      ann::save_mlp(out.net, path);
      std::printf("[common] benchmark model cached to %s\n", path.c_str());
    }
    out.float_accuracy = out.net.accuracy(out.test.images, out.test.labels);
    std::printf("[common] float (32-bit) test accuracy: %.2f %%\n",
                100.0 * out.float_accuracy);
    return out;
  }();
  return bm;
}

std::vector<std::size_t> table1_bank_words() {
  return {785000, 500500, 100200, 20100, 1010};
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Paper: Srinivasan et al., \"Significance Driven Hybrid 8T-6T "
              "SRAM for\nEnergy-Efficient Synaptic Storage in Artificial "
              "Neural Networks\", DATE 2016\n");
  std::printf("================================================================\n\n");
}

}  // namespace hynapse::bench
