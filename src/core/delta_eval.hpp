// Delta-fault chip evaluation: the allocation-free fast path behind
// core::evaluate_accuracy and engine::ExperimentRunner.
//
// A simulated chip's faulted network differs from the clean dequantized
// baseline only at defect-touched words — every other synapse survives the
// store/load round trip unchanged. So instead of rebuilding the full
// ~1.4M-word memory image per chip (SynapticMemory construct ->
// store_network -> load_network -> dequantize -> fresh Mlp), an EvalContext
//  * samples each bank's FaultMap into reused storage,
//  * marks the defect words, and the words whose power-up value a defect
//    reads, in two word bitmaps; a popcount rank per 64-word block numbers
//    the touched words, so each gets one slot in a defect-sized array,
//  * reads the power-up words from the bank's stream only as far as the
//    last one: dense reads walk the stream on discard-jumped SIMD lanes
//    (util::Rng::walk), sparse ones jump from word to word,
//  * resolves every defect to its read-back bit, drawing the read RNG in
//    exactly the reference order (bank-major, defect-major), and ORs it
//    into its word's slot,
//  * emits one (layer, word, new-code) delta per flipped word, in ascending
//    word order, reading each touched word's clean code once,
//  * applies the deltas to a shared clean baseline Mlp, runs the workspace
//    forward pass, and reverts them.
// Above ~0.80 V a chip touches only a few of the first layer's columns, so a
// context also keeps the clean network's activated layer-0 output for the
// test slice and recomputes only the columns a chip's layer-0 deltas touch
// (docs/performance.md, "Clean first-layer reuse").
// Results are bit-identical to the reference core::evaluate_chip for all three
// ReadFaultPolicy modes (tests/test_core_delta_eval.cpp pins this, and
// Golden.LowVddFaultDeltas pins every low-vdd delta itself); the
// determinism contract (docs/engine.md) carries over unchanged because a
// context is fully re-derived from (network, config, model, seed, chip) on
// every call. After warm-up a context performs no heap allocation per chip
// (docs/performance.md).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "ann/backends/backend.hpp"
#include "ann/mlp.hpp"
#include "ann/workspace.hpp"
#include "core/fault_model.hpp"
#include "core/memory_config.hpp"
#include "core/quantized_network.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"

namespace hynapse::core {

/// A chip reuses the clean first layer when at most
/// fan_out / kFirstLayerReuseDivisor of its layer-0 columns are dirty, and
/// runs the full layer-0 GEMM otherwise. On the Table-I layer-0 shape the
/// patch costs as much as the full GEMM near 0.8 x fan_out dirty columns;
/// half of fan_out keeps a margin (measurements in docs/performance.md).
inline constexpr std::size_t kFirstLayerReuseDivisor = 2;

/// Cheap content key for a quantized network (codes, formats, topology).
/// EvalContext caches its dequantized baseline under this key, so a pooled
/// context held across calls can never serve a stale baseline for a
/// different network that happens to live at the same address. Not a stable
/// artifact fingerprint (see util::Fnv1a for those) — compute once per
/// evaluation call, not per chip.
[[nodiscard]] std::uint64_t network_fingerprint(const QuantizedNetwork& qnet);

/// One faulted storage word: `word` indexes the bank layout (weight words
/// first, then bias words) of `layer`.
struct FaultDelta {
  std::uint32_t layer = 0;
  std::uint32_t word = 0;
  std::int32_t code = 0;  ///< faulted signed code read back from the bank
};

/// Per-worker reusable state for delta-fault evaluation: the shared clean
/// baseline network, the forward-pass workspace, and every scratch vector
/// the per-chip loop needs. Not thread-safe; lease one per concurrent job
/// from an EvalContextPool.
class EvalContext {
 public:
  EvalContext() = default;

  /// Accuracy of chip `chip` — same contract and bit-identical result as
  /// the reference core::evaluate_chip. `qnet_fp` must be
  /// network_fingerprint(qnet) (precomputed by the caller once per call).
  /// `backend` selects the GEMM kernel table (ann/backends; identical
  /// results either way).
  [[nodiscard]] double evaluate_chip(
      const QuantizedNetwork& qnet, std::uint64_t qnet_fp,
      const MemoryConfig& config, const FaultModel& model,
      const data::Dataset& test, std::uint64_t eval_seed, std::size_t chip,
      ann::backends::Backend backend = ann::backends::Backend::simd);

  /// Accuracies of chips [chip_begin, chip_begin + count): out[i] receives
  /// evaluate_chip(..., chip_begin + i, backend). A plain loop kept for
  /// callers that time a range of chips in one call (perfbench's
  /// core.fused_chip_us probe).
  void evaluate_chips(
      const QuantizedNetwork& qnet, std::uint64_t qnet_fp,
      const MemoryConfig& config, const FaultModel& model,
      const data::Dataset& test, std::uint64_t eval_seed,
      std::size_t chip_begin, std::size_t count, std::span<double> out,
      ann::backends::Backend backend = ann::backends::Backend::simd);

  /// The deltas computed by the most recent evaluate_chip (diagnostics /
  /// tests).
  [[nodiscard]] const std::vector<FaultDelta>& last_deltas() const noexcept {
    return deltas_;
  }

 private:
  void bind(const QuantizedNetwork& qnet, std::uint64_t qnet_fp);
  /// Read-back flags per CellCondition (delta_eval.cpp).
  using ReadBack = std::array<std::uint8_t, 4>;

  void compute_deltas(const QuantizedNetwork& qnet, const MemoryConfig& config,
                      const FaultModel& model, std::uint64_t chip_seed);
  /// Appends bank b's deltas, in ascending word order, to deltas_: marks
  /// its defects in the bitmaps, reads the power-up words from bank_rng,
  /// resolves each defect (read_rng in defect order) and clears the bitmaps
  /// again.
  void resolve_bank(std::size_t b, const QuantizedLayer& layer, int word_bits,
                    const std::vector<Defect>& defects,
                    const ReadBack& read_back, util::Rng& bank_rng,
                    util::Rng& read_rng);
  /// Fills dirty_columns_ with the layer-0 columns that deltas_ touches
  /// (ascending) and returns true when the chip reuses the clean first
  /// layer; returns false when it runs the full layer-0 GEMM. Bumps one of
  /// the core.eval.first_layer_* counters.
  bool collect_dirty_columns(const QuantizedNetwork& qnet);
  /// The clean baseline's activated layer-0 output over `test`, rebuilt
  /// when the network or the content of the input rows changed. Call only
  /// while no delta is applied.
  const ann::Matrix& clean_first_layer(const data::Dataset& test,
                                       ann::backends::Backend backend);
  void check_shapes(const QuantizedNetwork& qnet,
                    const MemoryConfig& config) const;

  std::uint64_t qnet_fp_ = 0;
  std::optional<ann::Mlp> baseline_;  ///< clean dequantized network
  ann::EvalWorkspace workspace_;

  // Scratch reused across chips (capacity persists, contents re-derived).
  std::vector<FaultMap> maps_;
  std::vector<FaultDelta> deltas_;
  std::vector<float> saved_;  ///< baseline values shadowed by deltas_
  // Defect resolve of one bank (compute_deltas). Bitmaps over the bank's
  // words, all clear between banks: the words with a defect, and those whose
  // power-up value a defect reads. blocks_ marks the non-empty 64-word
  // blocks of touched_, rank_ counts the touched words before each of them,
  // and slots_ holds one entry per touched word, in word order.
  std::vector<std::uint64_t> touched_;
  std::vector<std::uint64_t> needed_;
  std::vector<std::uint64_t> blocks_;
  std::vector<std::uint32_t> rank_;
  /// A touched word's read-back: bit i of the word reads back
  /// `value` bit i where `forced` has it, the stored bit inverted where
  /// only `value` has it, and the stored bit elsewhere; so its flipped bits
  /// are value ^ (forced & stored).
  struct Slot {
    std::uint16_t powerup;  ///< the word's power-up bits, when read
    std::uint16_t value;
    std::uint16_t forced;
  };
  std::vector<Slot> slots_;

  // Clean first-layer reuse: the cache, its content key (network
  // fingerprint, input fingerprint; every backend computes the same bits,
  // so the backend is not part of it) and the per-chip dirty columns.
  ann::Matrix clean_first_layer_;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> clean_key_;
  std::vector<std::uint32_t> dirty_columns_;
  std::vector<std::uint8_t> column_seen_;  ///< all zero between chips
  obs::Counter* reused_counter_ =
      &obs::Registry::global().counter("core.eval.first_layer_reused");
  obs::Counter* full_counter_ =
      &obs::Registry::global().counter("core.eval.first_layer_full");
};

/// Thread-safe free list of EvalContexts: one context per concurrently
/// running chip job ("one workspace per pool worker"), reused across chips,
/// calls and — when the pool lives in an engine::ExperimentRunner or
/// serve::EvalService — across requests.
class EvalContextPool {
 public:
  EvalContextPool() = default;
  EvalContextPool(const EvalContextPool&) = delete;
  EvalContextPool& operator=(const EvalContextPool&) = delete;

  /// RAII lease: acquires an idle context (or creates one) on construction,
  /// returns it on destruction.
  class Lease {
   public:
    explicit Lease(EvalContextPool& pool)
        : pool_{&pool}, context_{pool.acquire()} {}
    ~Lease() {
      // Returning the context can only fail on allocation; dropping it then
      // is safe (the pool just re-creates one later).
      try {
        pool_->release(std::move(context_));
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] EvalContext& context() noexcept { return *context_; }

   private:
    EvalContextPool* pool_;
    std::unique_ptr<EvalContext> context_;
  };

 private:
  std::unique_ptr<EvalContext> acquire();
  void release(std::unique_ptr<EvalContext> context);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<EvalContext>> idle_;
};

}  // namespace hynapse::core
