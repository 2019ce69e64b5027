#include "core/delta_eval.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace hynapse::core {

std::uint64_t network_fingerprint(const QuantizedNetwork& qnet) {
  // 64-bit multiply-xor lanes, not byte-wise FNV: this runs over ~1.4M codes
  // once per evaluation call, so it must stay in the low-millisecond range
  // for the Table-I network.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    h = (h ^ v) * 0x100000001b3ull;
    h ^= h >> 29;
  };
  mix(static_cast<std::uint64_t>(qnet.weight_bits()));
  mix(static_cast<std::uint64_t>(qnet.activation()));
  mix(qnet.num_layers());
  for (std::size_t l = 0; l < qnet.num_layers(); ++l) {
    const QuantizedLayer& layer = qnet.layer(l);
    mix(layer.fan_in);
    mix(layer.fan_out);
    mix(static_cast<std::uint64_t>(layer.weight_fmt.total_bits()) << 32 |
        static_cast<std::uint32_t>(layer.weight_fmt.frac_bits()));
    mix(static_cast<std::uint64_t>(layer.bias_fmt.total_bits()) << 32 |
        static_cast<std::uint32_t>(layer.bias_fmt.frac_bits()));
    for (std::int32_t code : layer.weight_codes)
      mix(static_cast<std::uint32_t>(code));
    for (std::int32_t code : layer.bias_codes)
      mix(static_cast<std::uint32_t>(code));
  }
  return h;
}

namespace {

/// Clean stored code of bank word `w` (weight words first, then biases).
[[nodiscard]] std::int32_t clean_code(const QuantizedLayer& layer,
                                      std::uint32_t w) noexcept {
  const std::size_t nw = layer.weight_codes.size();
  return w < nw ? layer.weight_codes[w] : layer.bias_codes[w - nw];
}

/// How a defective cell reads back, by condition (EvalContext::ReadBack).
constexpr std::uint8_t kComplement = 1;  ///< the stored bit inverted
constexpr std::uint8_t kPowerup = 2;     ///< the cell's power-up bit
constexpr std::uint8_t kRandom = 4;      ///< a fresh read_rng coin per read

/// Content key of a matrix: its shape and every value's bit pattern, in
/// four independent multiply-xor lanes. Keys the clean first layer, so a
/// different slice that happens to live at the same address never reads a
/// stale cache.
[[nodiscard]] std::uint64_t content_fingerprint(const ann::Matrix& m) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t lanes[4] = {m.rows(), m.cols(), 0x243f6a8885a308d3ull,
                            0x13198a2e03707344ull};
  const auto mix = [](std::uint64_t& h, std::uint64_t v) noexcept {
    h = (h ^ v) * kMul;
    h ^= h >> 31;
  };
  const std::span<const float> v = m.data();
  const auto pair = [&v](std::size_t i) noexcept {
    std::uint64_t x = 0;
    std::memcpy(&x, &v[i], 2 * sizeof(float));
    return x;
  };
  std::size_t i = 0;
  for (; i + 8 <= v.size(); i += 8) {
    for (std::size_t l = 0; l < 4; ++l) mix(lanes[l], pair(i + 2 * l));
  }
  for (; i < v.size(); ++i) {
    std::uint32_t x = 0;
    std::memcpy(&x, &v[i], sizeof x);
    mix(lanes[0], x);
  }
  std::uint64_t h = lanes[0];
  for (std::size_t l = 1; l < 4; ++l) mix(h, lanes[l]);
  return h;
}

}  // namespace

void EvalContext::bind(const QuantizedNetwork& qnet, std::uint64_t qnet_fp) {
  if (baseline_.has_value() && qnet_fp_ == qnet_fp) return;
  baseline_.emplace(qnet.dequantize());
  workspace_.bind(*baseline_);
  qnet_fp_ = qnet_fp;
}

void EvalContext::compute_deltas(const QuantizedNetwork& qnet,
                                 const MemoryConfig& config,
                                 const FaultModel& model,
                                 std::uint64_t chip_seed) {
  // Mirrors the reference path draw for draw: the chip RNG splits one bank RNG
  // per bank (SynapticMemory's constructor order), and read_rng is consumed
  // bank-major, defect-major exactly as load_network's defect loop does.
  util::Rng rng{chip_seed};
  util::Rng read_rng{chip_seed ^ 0x5555aaaa5555aaaaull};
  deltas_.clear();
  maps_.resize(config.num_banks());

  // Power-up bits matter only to write-weak cells (store() keeps their
  // power-up value) and, under stuck_at_powerup, to read-weak cells.
  ReadBack read_back{};
  read_back[static_cast<std::size_t>(CellCondition::write_weak)] = kPowerup;
  read_back[static_cast<std::size_t>(CellCondition::disturb_weak)] =
      kComplement;  // the single evaluation read upsets it
  std::uint8_t& read_weak =
      read_back[static_cast<std::size_t>(CellCondition::read_weak)];
  switch (model.policy()) {
    case ReadFaultPolicy::random_per_read:
      read_weak = kRandom;
      break;
    case ReadFaultPolicy::always_flip:
      read_weak = kComplement;
      break;
    case ReadFaultPolicy::stuck_at_powerup:
      read_weak = kPowerup;
      break;
  }

  for (std::size_t b = 0; b < config.num_banks(); ++b) {
    util::Rng bank_rng = rng.split();
    maps_[b].resample(config.banks()[b], model, bank_rng);
    try {
      resolve_bank(b, qnet.layer(b), config.banks()[b].word_bits,
                   maps_[b].defects(), read_back, bank_rng, read_rng);
    } catch (...) {
      // The next chip relies on clear bitmaps.
      std::fill(touched_.begin(), touched_.end(), std::uint64_t{0});
      std::fill(needed_.begin(), needed_.end(), std::uint64_t{0});
      std::fill(blocks_.begin(), blocks_.end(), std::uint64_t{0});
      throw;
    }
  }
}

void EvalContext::resolve_bank(std::size_t b, const QuantizedLayer& layer,
                               int word_bits,
                               const std::vector<Defect>& defects,
                               const ReadBack& read_back, util::Rng& bank_rng,
                               util::Rng& read_rng) {
  static_assert(util::kWalkBlock == 64, "one walk block per bitmap word");
  const quant::QFormat& fmt = layer.weight_fmt;
  const auto codes = static_cast<std::uint32_t>(layer.synapse_count());
  const std::size_t words = (std::size_t{codes} + 63) / 64;
  const std::size_t block_words = (words + 63) / 64;
  if (touched_.size() < words) {
    touched_.resize(words);
    needed_.resize(words);
    rank_.resize(words);
  }
  if (blocks_.size() < block_words) blocks_.resize(block_words);

  // Mark the touched and the power-up words. Words past the stored network
  // are never read (the reference loop skips them before drawing).
  std::uint32_t last_read = 0;
  std::uint64_t reads = 0;  // power-up reads, one per such defect
  for (const Defect& d : defects) {
    if (d.word >= codes) continue;
    const std::uint32_t w = d.word >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (d.word & 63);
    touched_[w] |= bit;
    blocks_[w >> 6] |= std::uint64_t{1} << (w & 63);
    if (read_back[static_cast<std::size_t>(d.condition)] & kPowerup) {
      needed_[w] |= bit;
      last_read = std::max(last_read, d.word);
      ++reads;
    }
  }
  // Visits the non-empty bitmap words in ascending order.
  const auto for_each_word = [&](auto visit) {
    for (std::size_t i = 0; i < block_words; ++i) {
      for (std::uint64_t m = blocks_[i]; m != 0; m &= m - 1) {
        visit(i * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
  };
  std::uint32_t touched_words = 0;
  for_each_word([&](std::size_t w) {
    rank_[w] = touched_words;
    touched_words += static_cast<std::uint32_t>(std::popcount(touched_[w]));
  });
  slots_.assign(touched_words, Slot{0, 0, 0});
  const auto slot = [this](std::uint32_t word) noexcept -> Slot& {
    const std::uint32_t w = word >> 6;
    const std::uint64_t below = (std::uint64_t{1} << (word & 63)) - 1;
    return slots_[rank_[w] + static_cast<std::uint32_t>(
                                 std::popcount(touched_[w] & below))];
  };

  // Power-up bits: SynapticMemory's constructor draws the whole bank image
  // from the bank RNG; drawing the same stream only up to the last word
  // read yields identical bits for every observable cell, and the bank RNG
  // is dropped afterwards. Reads closer than kJumpCutover draws apart on
  // average walk the stream on lanes; sparser ones (or none) jump from
  // word to word, since a jump that far beats stepping. Both hand out the
  // same draws.
  const auto mask = static_cast<std::uint16_t>((1u << word_bits) - 1u);
  const std::uint64_t span = std::uint64_t{last_read} + 1;
  if (span < reads * util::kJumpCutover) {
    bank_rng.walk(span, [&](const util::WalkBlock& draws) {
      const auto w = static_cast<std::uint32_t>(draws.first / 64);
      for (std::uint64_t m = needed_[w]; m != 0; m &= m - 1) {
        const auto k = static_cast<std::uint32_t>(std::countr_zero(m));
        slot(w * 64 + k).powerup = static_cast<std::uint16_t>(draws[k]) & mask;
      }
    });
  } else {
    std::uint64_t drawn = 0;  // words already consumed from the stream
    for_each_word([&](std::size_t w) {
      for (std::uint64_t m = needed_[w]; m != 0; m &= m - 1) {
        const std::uint64_t word =
            w * 64 + static_cast<std::uint64_t>(std::countr_zero(m));
        bank_rng.discard(word - drawn);  // exact jump over unread words
        slot(static_cast<std::uint32_t>(word)).powerup =
            static_cast<std::uint16_t>(bank_rng.next_u64()) & mask;
        drawn = word + 1;
      }
    });
  }

  // Resolve every defect to its read-back bit. Conditions are mutually
  // exclusive per cell and defect cells are unique per (word, bit), so each
  // defect is an independent bit assignment; only read_rng is shared, and
  // the loop keeps its defect-order draws. The stored bits are read once
  // per word, below.
  for (const Defect& d : defects) {
    if (d.word >= codes) continue;
    Slot& s = slot(d.word);
    const std::uint8_t how = read_back[static_cast<std::size_t>(d.condition)];
    const auto bit = static_cast<std::uint16_t>(1u << d.bit);
    std::uint16_t value = (how & kComplement) ? bit : 0;
    if (how & kPowerup) value = s.powerup & bit;
    if (how & kRandom) {  // bernoulli(0.5), bit for bit
      value = static_cast<std::uint16_t>(
          static_cast<std::uint32_t>((read_rng.next_u64() >> 63) ^ 1u)
          << d.bit);
    }
    s.value |= value;
    s.forced |= (how & (kPowerup | kRandom)) ? bit : 0;
  }

  // One delta per flipped word, in ascending word order: each bitmap
  // word's deltas are written branch-free into a batch (a word without
  // flips is overwritten by the next one) and appended; clears the bitmaps
  // for the next bank.
  std::array<FaultDelta, 64> batch;
  const Slot* next = slots_.data();
  for_each_word([&](std::size_t w) {
    FaultDelta* out = batch.data();
    for (std::uint64_t m = touched_[w]; m != 0; m &= m - 1) {
      const auto word = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      const std::uint32_t stored = fmt.to_bits(clean_code(layer, word));
      const std::uint32_t flips = next->value ^ (next->forced & stored);
      ++next;
      *out = FaultDelta{static_cast<std::uint32_t>(b), word,
                        fmt.from_bits(stored ^ flips)};
      out += flips != 0 ? 1 : 0;
    }
    deltas_.insert(deltas_.end(), batch.data(), out);
    touched_[w] = 0;
    needed_[w] = 0;
  });
  std::fill_n(blocks_.begin(), block_words, std::uint64_t{0});
}

bool EvalContext::collect_dirty_columns(const QuantizedNetwork& qnet) {
  // A single-layer net ends layer 0 in a row-wise softmax: no column of it
  // survives a delta elsewhere in the row.
  if (qnet.num_layers() < 2) {
    full_counter_->add(1);
    return false;
  }
  const QuantizedLayer& layer = qnet.layer(0);
  const std::size_t nw = layer.weight_codes.size();
  const std::size_t limit = layer.fan_out / kFirstLayerReuseDivisor;
  dirty_columns_.clear();
  // Allocate up front: nothing may throw while column_seen_ holds marks.
  dirty_columns_.reserve(limit);
  column_seen_.resize(layer.fan_out);
  bool fits = true;
  // deltas_ is bank-major, so layer 0's deltas come first.
  for (const FaultDelta& d : deltas_) {
    if (d.layer != 0) break;
    const auto j = static_cast<std::uint32_t>(
        d.word < nw ? d.word % layer.fan_out : d.word - nw);
    if (column_seen_[j] != 0) continue;
    if (dirty_columns_.size() == limit) {
      fits = false;
      break;
    }
    column_seen_[j] = 1;
    dirty_columns_.push_back(j);
  }
  for (const std::uint32_t j : dirty_columns_) column_seen_[j] = 0;
  if (!fits) {
    full_counter_->add(1);
    return false;
  }
  std::sort(dirty_columns_.begin(), dirty_columns_.end());
  reused_counter_->add(1);
  return true;
}

const ann::Matrix& EvalContext::clean_first_layer(
    const data::Dataset& test, ann::backends::Backend backend) {
  const std::pair<std::uint64_t, std::uint64_t> key{
      qnet_fp_, content_fingerprint(test.images)};
  if (clean_key_ != key) {
    clean_key_.reset();  // stays unset if the build throws
    baseline_->first_layer(test.images, clean_first_layer_, backend);
    clean_key_ = key;
  }
  return clean_first_layer_;
}

void EvalContext::check_shapes(const QuantizedNetwork& qnet,
                               const MemoryConfig& config) const {
  // Same shape validation (and messages) as the SynapticMemory path.
  if (config.num_banks() != qnet.num_layers())
    throw std::invalid_argument{
        "SynapticMemory::store_network: bank/layer count mismatch"};
  for (std::size_t b = 0; b < config.num_banks(); ++b) {
    if (qnet.layer(b).synapse_count() > config.banks()[b].words)
      throw std::invalid_argument{"SynapticMemory::store: bank too small"};
  }
}

double EvalContext::evaluate_chip(const QuantizedNetwork& qnet,
                                  std::uint64_t qnet_fp,
                                  const MemoryConfig& config,
                                  const FaultModel& model,
                                  const data::Dataset& test,
                                  std::uint64_t eval_seed, std::size_t chip,
                                  ann::backends::Backend backend) {
  check_shapes(qnet, config);
  bind(qnet, qnet_fp);
  workspace_.set_backend(backend);
  const std::uint64_t chip_seed =
      eval_seed ^ (0x9e3779b97f4a7c15ull * (chip + 1));
  compute_deltas(qnet, config, model, chip_seed);
  ann::FirstLayerReuse reuse;
  if (collect_dirty_columns(qnet)) {
    reuse = {&clean_first_layer(test, backend), dirty_columns_};
  }

  // Apply the deltas to the shared baseline, evaluate, revert. Each delta
  // touches a distinct (layer, word), so restore order doesn't matter.
  saved_.clear();
  saved_.reserve(deltas_.size());
  for (const FaultDelta& d : deltas_) {
    const QuantizedLayer& layer = qnet.layer(d.layer);
    const std::size_t nw = layer.weight_codes.size();
    float* slot = nullptr;
    float value = 0.0f;
    if (d.word < nw) {
      slot = &baseline_->weight(d.layer).data()[d.word];
      value = static_cast<float>(layer.weight_fmt.dequantize(d.code));
    } else {
      slot = &baseline_->bias(d.layer)[d.word - nw];
      value = static_cast<float>(layer.bias_fmt.dequantize(d.code));
    }
    saved_.push_back(*slot);
    *slot = value;
  }
  const auto revert = [this, &qnet] {
    for (std::size_t i = 0; i < deltas_.size(); ++i) {
      const FaultDelta& d = deltas_[i];
      const std::size_t nw = qnet.layer(d.layer).weight_codes.size();
      if (d.word < nw) {
        baseline_->weight(d.layer).data()[d.word] = saved_[i];
      } else {
        baseline_->bias(d.layer)[d.word - nw] = saved_[i];
      }
    }
  };
  double accuracy = 0.0;
  try {
    accuracy =
        baseline_->accuracy(test.images, test.labels, workspace_, reuse);
  } catch (...) {
    revert();  // keep the baseline clean for the next chip on this context
    throw;
  }
  revert();
  return accuracy;
}

void EvalContext::evaluate_chips(const QuantizedNetwork& qnet,
                                 std::uint64_t qnet_fp,
                                 const MemoryConfig& config,
                                 const FaultModel& model,
                                 const data::Dataset& test,
                                 std::uint64_t eval_seed,
                                 std::size_t chip_begin, std::size_t count,
                                 std::span<double> out,
                                 ann::backends::Backend backend) {
  if (out.size() < count)
    throw std::invalid_argument{
        "EvalContext::evaluate_chips: output span too small"};
  for (std::size_t c = 0; c < count; ++c) {
    out[c] = evaluate_chip(qnet, qnet_fp, config, model, test, eval_seed,
                           chip_begin + c, backend);
  }
}

std::unique_ptr<EvalContext> EvalContextPool::acquire() {
  {
    const std::scoped_lock lock{mutex_};
    if (!idle_.empty()) {
      std::unique_ptr<EvalContext> context = std::move(idle_.back());
      idle_.pop_back();
      return context;
    }
  }
  return std::make_unique<EvalContext>();
}

void EvalContextPool::release(std::unique_ptr<EvalContext> context) {
  const std::scoped_lock lock{mutex_};
  idle_.push_back(std::move(context));
}

}  // namespace hynapse::core
