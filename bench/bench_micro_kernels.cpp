// Google-benchmark microbenchmarks of the simulation hot paths: device
// evaluation, bitcell solves, Monte-Carlo sampling throughput, GEMM, fault
// injection, the low-vdd fault resolve, end-to-end inference, and the
// served network's start-up (digit synthesis and training).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "ann/backends/backend.hpp"
#include "ann/matrix.hpp"
#include "ann/mlp.hpp"
#include "ann/trainer.hpp"
#include "circuit/lanes_kernel.hpp"
#include "circuit/reference.hpp"
#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "core/fault_model.hpp"
#include "core/quantized_network.hpp"
#include "core/synaptic_memory.hpp"
#include "data/digits.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace {

using namespace hynapse;

const circuit::Technology& tech() {
  static const circuit::Technology t = circuit::ptm22();
  return t;
}

void BM_MosfetIds(benchmark::State& state) {
  const circuit::Mosfet m{tech().nmos, 2 * tech().wmin, tech().lmin};
  double v = 0.3;
  for (auto _ : state) {
    v = v < 0.9 ? v + 1e-7 : 0.3;
    benchmark::DoNotOptimize(m.ids(v, 0.65));
  }
}
BENCHMARK(BM_MosfetIds);

void BM_BitcellReadCurrent(benchmark::State& state) {
  const circuit::Bitcell6T cell = circuit::reference_6t(tech());
  for (auto _ : state) benchmark::DoNotOptimize(cell.read_current(0.65));
}
BENCHMARK(BM_BitcellReadCurrent);

void BM_BitcellWriteResidual(benchmark::State& state) {
  const circuit::Bitcell6T cell = circuit::reference_6t(tech());
  for (auto _ : state)
    benchmark::DoNotOptimize(cell.write_residual(0.65, 0.45e-15, 2e-10));
}
BENCHMARK(BM_BitcellWriteResidual);

void BM_ReadSnm(benchmark::State& state) {
  const circuit::Bitcell6T cell = circuit::reference_6t(tech());
  for (auto _ : state) benchmark::DoNotOptimize(cell.read_snm(0.95, 200));
}
BENCHMARK(BM_ReadSnm);

/// The circuit stack one Monte-Carlo sample runs against.
const mc::CircuitStack& mc_stack() {
  static const mc::CircuitStack s;
  return s;
}

// One plain-MC sample as the MC loops run it: draw a cell, decide it.
void BM_McSample6T(benchmark::State& state) {
  const mc::CircuitStack& s = mc_stack();
  util::Rng rng{9};
  for (auto _ : state) {
    const circuit::Variation6T var = s.sampler.sample_6t(rng);
    benchmark::DoNotOptimize(
        s.criteria.fails(mc::Mechanism::read_access, var, 0.65));
  }
}
BENCHMARK(BM_McSample6T);

// The same sample through the metric oracle (two 60-step bisections).
void BM_McMetric6T(benchmark::State& state) {
  const mc::CircuitStack& s = mc_stack();
  util::Rng rng{9};
  for (auto _ : state) {
    const circuit::Variation6T var = s.sampler.sample_6t(rng);
    benchmark::DoNotOptimize(
        s.criteria.metric(mc::Mechanism::read_access, var, 0.65));
  }
}
BENCHMARK(BM_McMetric6T);

void BM_McSampleWrite6T(benchmark::State& state) {
  const mc::CircuitStack& s = mc_stack();
  util::Rng rng{9};
  for (auto _ : state) {
    const circuit::Variation6T var = s.sampler.sample_6t(rng);
    benchmark::DoNotOptimize(
        s.criteria.fails(mc::Mechanism::write, var, 0.65));
  }
}
BENCHMARK(BM_McSampleWrite6T);

// Samples as the MC loops decide them: a block drawn in order and decided
// in one call, on the ISA tier given as the benchmark's argument (the
// label names it). Time per sample.
template <typename Var, typename Draw>
void batch_bench(benchmark::State& state, mc::Mechanism m, Draw draw) {
  const mc::CircuitStack& s = mc_stack();
  const auto tier = static_cast<util::IsaTier>(state.range(0));
  state.SetLabel(std::string{util::isa_tier_name(tier)});
  util::Rng rng{9};
  std::array<Var, 256> cells;
  std::array<bool, 256> fails{};
  for (auto _ : state) {
    for (Var& c : cells) c = draw(s.sampler, rng);
    s.criteria.fails_block(m, cells, 0.65, fails, tier);
    benchmark::DoNotOptimize(fails.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_sample"] = benchmark::Counter(
      static_cast<double>(cells.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

/// One run on the scalar path and one per ISA tier this host runs the
/// lanes on (none without libmvec).
void per_isa_tier(benchmark::internal::Benchmark* b) {
  for (const util::IsaTier tier : util::available_isa_tiers()) {
    if (tier == util::IsaTier::scalar ||
        circuit::detail::lane_kernels(tier) != nullptr) {
      b->Arg(static_cast<int>(tier));
    }
  }
}

circuit::Variation6T draw_6t(const mc::VariationSampler& s, util::Rng& rng) {
  return s.sample_6t(rng);
}
circuit::Variation8T draw_8t(const mc::VariationSampler& s, util::Rng& rng) {
  return s.sample_8t(rng);
}

void BM_McBatchWrite6T(benchmark::State& state) {
  batch_bench<circuit::Variation6T>(state, mc::Mechanism::write, draw_6t);
}
BENCHMARK(BM_McBatchWrite6T)->Apply(per_isa_tier);

void BM_McBatchReadAccess6T(benchmark::State& state) {
  batch_bench<circuit::Variation6T>(state, mc::Mechanism::read_access,
                                    draw_6t);
}
BENCHMARK(BM_McBatchReadAccess6T)->Apply(per_isa_tier);

void BM_McBatchReadDisturb6T(benchmark::State& state) {
  batch_bench<circuit::Variation6T>(state, mc::Mechanism::read_disturb,
                                    draw_6t);
}
BENCHMARK(BM_McBatchReadDisturb6T)->Apply(per_isa_tier);

void BM_McBatchReadAccess8T(benchmark::State& state) {
  batch_bench<circuit::Variation8T>(state, mc::Mechanism::read_access,
                                    draw_8t);
}
BENCHMARK(BM_McBatchReadAccess8T)->Apply(per_isa_tier);

void BM_McBatchWrite8T(benchmark::State& state) {
  batch_bench<circuit::Variation8T>(state, mc::Mechanism::write, draw_8t);
}
BENCHMARK(BM_McBatchWrite8T)->Apply(per_isa_tier);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ann::Matrix a{n, n};
  ann::Matrix b{n, n};
  ann::Matrix c{n, n};
  util::Rng rng{4};
  for (float& x : a.data()) x = static_cast<float>(rng.uniform());
  for (float& x : b.data()) x = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    ann::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(512);

// Per-backend gemm arms. The simd arm silently falls back to the reference
// kernel when the build has no SIMD tier (kernel_ops' fallback rule), so the
// two timings then coincide. The simd speedup is the ratio of the two arms'
// times; perfbench reports the same split per Table-I layer
// (ann.gemm_us.L*.{reference,simd}). Arg 130 exercises the tile remainders
// (130 % 4 == 2 rows, 130 % 16 == 2 cols).

void BM_GemmBackend(benchmark::State& state, ann::backends::Backend backend) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ann::Matrix a{n, n};
  ann::Matrix b{n, n};
  ann::Matrix c{n, n};
  util::Rng rng{4};
  for (float& x : a.data()) x = static_cast<float>(rng.uniform());
  for (float& x : b.data()) x = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    ann::gemm(a, b, c, /*parallel=*/true, backend);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK_CAPTURE(BM_GemmBackend, reference,
                  ann::backends::Backend::reference)
    ->Arg(128)
    ->Arg(130)
    ->Arg(512);
BENCHMARK_CAPTURE(BM_GemmBackend, simd, ann::backends::Backend::simd)
    ->Arg(128)
    ->Arg(130)
    ->Arg(512);

// The backward pass: a transposed copy, then the simd gemm kernel.
void BM_GemmBt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ann::Matrix a{n, n};
  ann::Matrix bt{n, n};
  ann::Matrix c{n, n};
  util::Rng rng{6};
  for (float& x : a.data()) x = static_cast<float>(rng.uniform());
  for (float& x : bt.data()) x = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    ann::gemm_bt(a, bt, c, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBt)->Arg(128)->Arg(130);

void BM_GemmAt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ann::Matrix a{n, n};
  ann::Matrix b{n, n};
  ann::Matrix c{n, n};
  util::Rng rng{8};
  for (float& x : a.data()) x = static_cast<float>(rng.uniform());
  for (float& x : b.data()) x = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    ann::gemm_at(a, b, c, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmAt)->Arg(128)->Arg(130);

// hynapse_served's start-up (examples/hynapse_served.cpp): rasterizing its
// 2500 training digits, then training its 784-64-32-10 network on them.
void BM_GenerateDigits(benchmark::State& state) {
  for (auto _ : state) {
    const data::Dataset ds = data::generate_digits(2500, 71);
    benchmark::DoNotOptimize(ds.images.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2500);
}
BENCHMARK(BM_GenerateDigits)->Unit(benchmark::kMillisecond);

void BM_TrainServedNetwork(benchmark::State& state) {
  const data::Dataset train = data::generate_digits(2500, 71);
  ann::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 50;
  for (auto _ : state) {
    ann::Mlp net{{784, 64, 32, 10}, 4};
    benchmark::DoNotOptimize(
        ann::train_sgd(net, train.images, train.labels, tc));
  }
}
BENCHMARK(BM_TrainServedNetwork)->Unit(benchmark::kMillisecond);

void BM_FaultMapSampling(benchmark::State& state) {
  std::vector<mc::FailureTableRow> rows(2);
  rows[0].vdd = 0.6;
  rows[1].vdd = 1.0;
  rows[0].cell6 = rows[1].cell6 = {0.01, 0.005, 0.0005};
  const mc::FailureTable table{std::move(rows)};
  const core::FaultModel model{table, 0.65};
  const core::BankConfig bank{"b", 100000, 8, 2};
  util::Rng rng{11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FaultMap::sample(bank, model, rng));
  }
  state.SetItemsProcessed(state.iterations() * 100000 * 8);
}
BENCHMARK(BM_FaultMapSampling);

// The low-vdd fault resolve of one Table-I chip: a one-image evaluate_chip
// (fault sampling, power-up walk, resolve, fold, apply, revert; the forward
// pass of one image is small beside them) on all6t at 0.60 V, against a
// Fig. 5-shaped synthetic table (8T cells perfect). Each iteration is a new
// chip.
void BM_DeltaResolveLowV(benchmark::State& state) {
  std::vector<mc::FailureTableRow> rows;
  for (int i = 0; i <= 8; ++i) {
    mc::FailureTableRow row;
    row.vdd = 0.60 + 0.05 * i;
    const double read = 0.08 * std::exp(-(row.vdd - 0.55) / 0.035);
    row.cell6 = {read, read / 3.0, read / 10.0};
    rows.push_back(row);
  }
  const mc::FailureTable table{std::move(rows)};
  const core::FaultModel model{table, 0.60};
  static const core::QuantizedNetwork qnet{
      ann::Mlp{core::table1_layer_sizes(), 5}, 8};
  const std::uint64_t fp = core::network_fingerprint(qnet);
  const core::MemoryConfig config =
      core::MemoryConfig::all_6t(qnet.bank_words());
  const data::Dataset image = data::generate_digits(1, 77001);
  core::EvalContext ctx;
  std::size_t chip = 0;
  std::size_t deltas = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.evaluate_chip(qnet, fp, config, model, image, 2016, chip++));
    deltas += ctx.last_deltas().size();
  }
  state.counters["deltas_per_chip"] =
      static_cast<double>(deltas) / static_cast<double>(chip);
}
BENCHMARK(BM_DeltaResolveLowV)->Unit(benchmark::kMillisecond);

void BM_Inference784(benchmark::State& state) {
  const ann::Mlp net{{784, 128, 64, 10}, 3};
  ann::Matrix x{64, 784};
  util::Rng rng{5};
  for (float& v : x.data()) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Inference784);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "isa_tier", std::string{util::isa_tier_name(util::isa_tier())});
  benchmark::AddCustomContext(
      "lanes", circuit::detail::lane_kernels(util::isa_tier()) ? "on" : "off");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
