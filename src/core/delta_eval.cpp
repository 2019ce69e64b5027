#include "core/delta_eval.hpp"

#include <algorithm>
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

/// Visits items in ascending key order, where `ends` splits `items` into
/// runs that are each ascending already: a k-way merge with one cursor per
/// run (k is at most the word width). Equal keys come out adjacent, in no
/// particular run order.
template <typename T, typename Cursor, typename Key, typename Visit>
void merge_runs(const std::vector<T>& items,
                const std::vector<std::size_t>& ends,
                std::vector<Cursor>& cursors, Key key, Visit visit) {
  cursors.clear();
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    if (begin < end) cursors.push_back(Cursor{begin, end, key(items[begin])});
    begin = end;
  }
  while (!cursors.empty()) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < cursors.size(); ++r) {
      if (cursors[r].head < cursors[best].head) best = r;
    }
    Cursor& c = cursors[best];
    visit(items[c.pos]);
    if (++c.pos == c.end) {
      c = cursors.back();
      cursors.pop_back();
    } else {
      c.head = key(items[c.pos]);
    }
  }
}

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
  // Mirrors the legacy path draw for draw: the chip RNG splits one bank RNG
  // per bank (SynapticMemory's constructor order), and read_rng is consumed
  // bank-major, defect-major exactly as load_network's defect loop does.
  util::Rng rng{chip_seed};
  util::Rng read_rng{chip_seed ^ 0x5555aaaa5555aaaaull};
  deltas_.clear();
  maps_.resize(config.num_banks());
  for (std::size_t b = 0; b < config.num_banks(); ++b) {
    const BankConfig& bank = config.banks()[b];
    const QuantizedLayer& layer = qnet.layer(b);
    const quant::QFormat& fmt = layer.weight_fmt;
    const std::size_t codes = layer.synapse_count();
    util::Rng bank_rng = rng.split();
    maps_[b].resample(bank, model, bank_rng);
    const std::vector<Defect>& defects = maps_[b].defects();

    // Power-up bits matter only to write-weak cells (store() keeps their
    // power-up value) and, under stuck_at_powerup, to read-weak cells. The
    // legacy constructor draws the whole bank image; drawing the same
    // stream only up to the last consulted word yields identical bits for
    // every observable cell, and the bank RNG is discarded afterwards.
    //
    // Defects arrive as one word-ascending run per bit (FaultMap::defects),
    // so the consulted words are merged from those runs, not sorted.
    const bool stuck = model.policy() == ReadFaultPolicy::stuck_at_powerup;
    const auto needs_powerup = [stuck](const Defect& d) noexcept {
      return d.condition == CellCondition::write_weak ||
             (stuck && d.condition == CellCondition::read_weak);
    };
    run_words_.clear();
    run_word_ends_.clear();
    for (std::size_t i = 0; i < defects.size(); ++i) {
      const Defect& d = defects[i];
      if (i > 0 && d.bit != defects[i - 1].bit)
        run_word_ends_.push_back(run_words_.size());
      if (d.word < codes && needs_powerup(d)) run_words_.push_back(d.word);
    }
    run_word_ends_.push_back(run_words_.size());
    powerup_words_.clear();
    merge_runs(
        run_words_, run_word_ends_, cursors_,
        [](std::uint32_t w) noexcept { return w; },
        [this](std::uint32_t w) {
          if (powerup_words_.empty() || powerup_words_.back() != w)
            powerup_words_.push_back(w);
        });
    powerup_bits_.resize(powerup_words_.size());
    const std::uint16_t mask =
        static_cast<std::uint16_t>((1u << bank.word_bits) - 1u);
    std::uint32_t drawn = 0;  // words already consumed from the bank stream
    for (std::size_t i = 0; i < powerup_words_.size(); ++i) {
      const std::uint32_t w = powerup_words_[i];
      bank_rng.discard(w - drawn);  // exact jump over unobserved words
      powerup_bits_[i] =
          static_cast<std::uint16_t>(bank_rng.next_u64()) & mask;
      drawn = w + 1;
    }
    // Power-up lookups come in defect order, so one cursor per run walks
    // powerup_words_ forward; it restarts where a new bit's run begins.
    std::size_t cursor = 0;
    int cursor_bit = -1;
    const auto powerup_bit = [&](std::uint32_t word, int bit) -> bool {
      if (bit != cursor_bit) {
        cursor_bit = bit;
        cursor = 0;
      }
      while (powerup_words_[cursor] < word) ++cursor;
      return (powerup_bits_[cursor] >> bit) & 1u;
    };

    // Resolve every defect to its final read-back bit. Conditions are
    // mutually exclusive per cell and defect cells are unique per
    // (word, bit), so each defect is an independent bit assignment; only
    // the read_rng draw order is shared state, and it is preserved above
    // all else.
    flips_.clear();
    flip_ends_.clear();
    for (std::size_t i = 0; i < defects.size(); ++i) {
      const Defect& d = defects[i];
      if (i > 0 && d.bit != defects[i - 1].bit)
        flip_ends_.push_back(flips_.size());
      if (d.word >= codes) continue;  // legacy skips before drawing
      const std::uint32_t bits = fmt.to_bits(clean_code(layer, d.word));
      const bool stored = (bits >> d.bit) & 1u;
      bool read_back = stored;
      switch (d.condition) {
        case CellCondition::read_weak:
          switch (model.policy()) {
            case ReadFaultPolicy::random_per_read:
              read_back = read_rng.bernoulli(0.5);
              break;
            case ReadFaultPolicy::always_flip:
              read_back = !stored;
              break;
            case ReadFaultPolicy::stuck_at_powerup:
              read_back = powerup_bit(d.word, d.bit);
              break;
          }
          break;
        case CellCondition::write_weak:
          read_back = powerup_bit(d.word, d.bit);
          break;
        case CellCondition::disturb_weak:
          read_back = !stored;  // the single evaluation read upsets it
          break;
        case CellCondition::ok:
          break;
      }
      if (read_back != stored)
        flips_.emplace_back(d.word, std::uint32_t{1} << d.bit);
    }

    flip_ends_.push_back(flips_.size());

    // Fold the flips into one delta per touched word, in ascending word
    // order. Same-word flips sit in different bits' runs; the merge brings
    // them together.
    std::uint32_t word = 0;
    std::uint32_t flip_mask = 0;
    const auto flush = [&] {
      if (flip_mask == 0) return;
      const std::int32_t code =
          fmt.from_bits(fmt.to_bits(clean_code(layer, word)) ^ flip_mask);
      deltas_.push_back(FaultDelta{static_cast<std::uint32_t>(b), word, code});
    };
    merge_runs(
        flips_, flip_ends_, cursors_,
        [](const std::pair<std::uint32_t, std::uint32_t>& f) noexcept {
          return f.first;
        },
        [&](const std::pair<std::uint32_t, std::uint32_t>& f) {
          if (f.first != word) {
            flush();
            word = f.first;
            flip_mask = 0;
          }
          flip_mask |= f.second;
        });
    flush();
  }
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
  // Same shape validation (and messages) as the legacy SynapticMemory path.
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
