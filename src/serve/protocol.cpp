#include "serve/protocol.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "serve/json.hpp"

namespace hynapse::serve {

namespace {

bool parse_int(std::string_view text, int& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

// ---------------------------------------------------------------------------
// Wire enums: one name table each, indexed by enumerator value (every wire
// enum counts up from 0), read by to_string and by the parser.

constexpr std::array kOpNames{"evaluate", "sweep", "table_info",
                              "table_shard", "stats"};
constexpr std::array kStatusNames{"queued", "running",   "done",
                                  "failed", "cancelled", "evicted",
                                  "not_found"};
constexpr std::array kErrorCodeNames{
    "none",          "bad_request",        "queue_full",
    "quota_exceeded", "deadline_exceeded", "shard_out_of_range",
    "shutting_down", "not_found",          "unsupported_version",
    "internal"};
constexpr std::array kSourceNames{"memory", "disk", "built"};
constexpr std::array kIntervalNames{"wilson", "clopper_pearson"};

using Names = std::span<const char* const>;
constexpr Names names(RequestKind) { return kOpNames; }
constexpr Names names(RequestStatus) { return kStatusNames; }
constexpr Names names(ErrorCode) { return kErrorCodeNames; }
constexpr Names names(engine::TableSource) { return kSourceNames; }
constexpr Names names(mc::IntervalKind) { return kIntervalNames; }

template <class E>
const char* name_of(E value) {
  const auto i = static_cast<std::size_t>(value);
  return i < names(value).size() ? names(value)[i] : "?";
}

template <class E>
std::optional<E> from_name(std::string_view text) {
  const Names all = names(E{});
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (text == all[i]) return static_cast<E>(i);
  }
  return std::nullopt;
}

// obs::MetricKind keeps its names in obs, next to the registry.
const char* name_of(obs::MetricKind kind) {
  return obs::metric_kind_name(kind);
}

template <>
std::optional<obs::MetricKind> from_name(std::string_view text) {
  obs::MetricKind kind{};
  if (!obs::parse_metric_kind(std::string{text}, kind)) return std::nullopt;
  return kind;
}

// ---------------------------------------------------------------------------
// Field tables. Each wire struct has one `fields(s, f)` overload listing its
// keys in wire order; `f` is a Writer (format_*) or a Reader (parse_*), so
// one entry drives both directions.

constexpr double kTwoPow53 = 9007199254740992.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Accepted interval of a numeric field. Integer fields default to
/// [0, 2^53], not [0, 2^64): JSON numbers travel as doubles, and above the
/// mantissa limit adjacent integers collapse -- two distinct seeds would
/// silently map to the same value (and >= 2^64 the cast itself is undefined
/// behavior). Rejecting makes the loss explicit.
struct Range {
  double lo = 0.0;
  double hi = kTwoPow53;
  bool open_lo = false;  ///< lo itself is rejected
};
constexpr Range kAnyNumber{-kInf, kInf};
constexpr Range kPositive{0.0, kInf, true};
constexpr Range kNonNegative{0.0, kInf};

/// A u64 that travels as the 16-hex-digit string of engine::fingerprint_hex.
struct Hex {};

/// The key half of a table entry: the wire name, when format writes it, and
/// how parse treats it.
struct Key {
  std::string_view name;
  bool emit = true;             ///< format: write this key
  bool allowed = true;          ///< parse: false rejects the key outright
  bool required = false;        ///< parse: must be present; read first
  std::string_view alias = {};  ///< parse: second accepted spelling
};

template <class U, class T>
concept Is = std::same_as<std::remove_const_t<U>, T>;

template <class T>
concept Integer = std::integral<T> && !std::same_as<T, bool>;

void fields(Is<Request> auto& r, auto& f) {
  const bool grid =
      r.kind == RequestKind::evaluate || r.kind == RequestKind::sweep;
  const bool shard = r.kind == RequestKind::table_shard;
  f.version({"v"});
  f.field({.name = "op", .required = true}, r.kind);
  f.field({.name = "configs", .emit = grid, .alias = "config"}, r.configs);
  f.field({.name = "vdds", .emit = grid, .alias = "vdd"}, r.vdds, kPositive);
  f.field({.name = "shard", .emit = shard, .allowed = shard}, r.shard);
  f.field({.name = "shard_count", .emit = shard, .allowed = shard},
          r.shard_count);
  f.field({.name = "inline_rows", .emit = shard && r.inline_rows,
           .allowed = shard},
          r.inline_rows);
  f.field({"priority", r.priority != 0}, r.priority, Range{-1e6, 1e6});
  f.field({"chips", r.chips != 0}, r.chips,
          Range{0.0, static_cast<double>(kMaxChipsPerRequest)});
  f.field({"eval_seed", r.eval_seed != 0}, r.eval_seed);
  f.field({"samples", r.mc_samples != 0}, r.mc_samples);
  f.field({"table_seed", r.table_seed != 0}, r.table_seed);
  f.field({"adaptive", r.adaptive.has_value()}, r.adaptive);
  f.field({"tag", !r.tag.empty()}, r.tag);
  f.field({"client", !r.client.empty()}, r.client);
  f.field({"deadline_ms", r.deadline_ms > 0.0}, r.deadline_ms, kPositive);
}

/// Every policy field is emitted (not just non-defaults): the policy is
/// folded into the table fingerprint, so a fleet worker must hash exactly
/// the coordinator's policy.
void fields(Is<mc::AdaptivePolicy> auto& p, auto& f) {
  f.field({"rel_target"}, p.rel_target, kNonNegative);
  f.field({"abs_target"}, p.abs_target, kNonNegative);
  f.field({"z"}, p.z, kPositive);
  f.field({"interval"}, p.interval);
  f.field({"batch_samples"}, p.batch_samples);
  f.field({"batch_growth"}, p.batch_growth, Range{1.0, kInf});
  f.field({"min_samples"}, p.min_samples);
  f.field({"max_samples"}, p.max_samples);
  f.field({"tail_escape_samples"}, p.tail_escape_samples);
  f.field({"max_is_samples"}, p.max_is_samples);
}

void fields(Is<PointResult> auto& p, auto& f) {
  std::size_t chips = p.accuracy.per_chip.size();  // parse checks, then drops
  f.field({.name = "config", .required = true}, p.config);
  f.field({.name = "vdd", .required = true}, p.vdd);
  f.field({.name = "mean", .required = true}, p.accuracy.mean);
  f.field({.name = "stddev", .required = true}, p.accuracy.stddev);
  f.field({"chips"}, chips);
  f.field({"per_chip", f.per_chip}, p.accuracy.per_chip);
}

void fields(Is<ServiceTotals> auto& t, auto& f) {
  f.field({"submitted"}, t.submitted);
  f.field({"completed"}, t.completed);
  f.field({"failed"}, t.failed);
  f.field({"cancelled"}, t.cancelled);
  f.field({"rejected"}, t.rejected);
  f.field({"quota_rejected"}, t.quota_rejected);
  f.field({"deadline_expired"}, t.deadline_expired);
  f.field({"batches"}, t.batches);
  f.field({"coalesced_requests"}, t.coalesced_requests);
  f.field({"table_builds"}, t.table_builds);
  f.field({"table_memory_hits"}, t.table_memory_hits);
  f.field({"table_disk_hits"}, t.table_disk_hits);
  f.field({"shard_builds"}, t.shard_builds);
  f.field({"shard_replays"}, t.shard_replays);
  f.field({"max_queue_depth"}, t.max_queue_depth);
}

void fields(Is<HealthSummary> auto& h, auto& f) {
  f.field({"uptime_s"}, h.uptime_s);
  f.field({"queue_depth"}, h.queue_depth);
  f.field({"queue_capacity"}, h.queue_capacity);
  f.field({"dispatchers"}, h.dispatchers);
  f.field({"threads"}, h.threads);
  f.field({"backend"}, h.backend);
  f.field({"max_batch"}, h.max_batch);
  f.field({"cache_dir", !h.cache_dir.empty()}, h.cache_dir);
  f.field({"cache_tables"}, h.cache_tables);
  f.field({"cache_bytes"}, h.cache_bytes);
  f.field({"totals"}, h.totals);
}

/// Sparse histogram buckets travel as [bucket_index, count] pairs;
/// percentiles as %.17g doubles.
void fields(Is<obs::MetricSnapshot> auto& m, auto& f) {
  const bool histogram = m.kind == obs::MetricKind::histogram;
  f.field({.name = "name", .required = true}, m.name);
  f.field({.name = "kind", .required = true}, m.kind);
  f.field({"count", m.kind == obs::MetricKind::counter || histogram}, m.count);
  f.field({"value", m.kind == obs::MetricKind::gauge}, m.value);
  f.field({"sum", histogram}, m.sum);
  f.field({"p50", histogram}, m.p50);
  f.field({"p95", histogram}, m.p95);
  f.field({"p99", histogram}, m.p99);
  f.field({"buckets", histogram}, m.buckets);
}

void fields(Is<Response> auto& r, auto& f) {
  const bool done = r.status == RequestStatus::done;
  f.version({"v"});
  f.field({.name = "id", .required = true}, r.id);
  f.field({.name = "status", .required = true}, r.status);
  f.field({"error", !r.error.empty()}, r.error);
  f.field({"code", r.code != ErrorCode::none}, r.code);
  f.field({"tag", !r.tag.empty()}, r.tag);
  f.field({"retry_after_ms", r.retry_after_ms > 0.0}, r.retry_after_ms);
  f.field({"results", !r.results.empty()}, r.results);
  f.object({"table", r.table_fingerprint != 0}, [&](auto& g) {
    const bool evaluated = done && !r.results.empty();
    g.field({.name = "fingerprint", .required = true}, r.table_fingerprint,
            Hex{});
    g.field({"source", evaluated}, r.stats.table_source);
    g.field({"coalesced", evaluated}, r.stats.coalesced);
    g.field({"csv", !r.table_csv.empty()}, r.table_csv);
    g.field({"rows", r.table_rows != 0}, r.table_rows);
    g.field({"in_memory"}, r.table_in_memory);
  });
  f.object({"shard", r.shard_count != 0}, [&](auto& g) {
    // Achieved sampling cost/precision of the artifact (omitted when zero).
    const bool metadata = r.shard_samples > 0.0;
    g.field({.name = "index", .required = true}, r.shard_index);
    g.field({.name = "count", .required = true}, r.shard_count);
    g.field({.name = "fingerprint", .required = true}, r.shard_fingerprint,
            Hex{});
    // built = this request paid for the Monte-Carlo; disk = replayed the
    // persisted shard CSV (possibly produced by another process).
    g.field({"source", done}, r.stats.table_source);
    g.field({"samples", metadata}, r.shard_samples);
    g.field({"ci_half_width", metadata}, r.shard_ci_half_width);
    g.field({"rows_data", !r.shard_rows.empty()}, r.shard_rows);
  });
  f.field({"health", r.health.has_value()}, r.health);
  f.field({"registry", !r.metrics.empty()}, r.metrics);
  f.object({"stats", done || r.status == RequestStatus::failed}, [&](auto& g) {
    g.field({"queue_ms"}, r.stats.queue_ms);
    g.field({"table_ms"}, r.stats.table_ms);
    g.field({"run_ms"}, r.stats.run_ms);
    g.field({"wall_ms"}, r.stats.wall_ms);
    g.field({"batch_size"}, r.stats.batch_size);
    g.field({"dispatch_seq"}, r.stats.dispatch_seq);
  });
}

/// Parse-side completion of a struct after its fields were read.
void finish(auto&) {}
/// Presence of the "adaptive" object is what enables adaptive sampling.
void finish(mc::AdaptivePolicy& p) { p.enabled = true; }
/// Derived values the wire omits: a counter's value is its count, a
/// histogram's its mean.
void finish(obs::MetricSnapshot& m) {
  if (m.kind == obs::MetricKind::counter) {
    m.value = static_cast<double>(m.count);
  } else if (m.kind == obs::MetricKind::histogram && m.count != 0) {
    m.value = static_cast<double>(m.sum) / static_cast<double>(m.count);
  }
}

class Reader;

template <class S>
concept Described = requires(S& s, Reader& r) { fields(s, r); };

/// Format direction: writes every entry whose `emit` holds, in table order.
class Writer {
 public:
  Writer(Json& out, bool per_chip) : per_chip{per_chip}, out_{out} {}

  /// Results carry per-chip accuracy vectors only when asked.
  const bool per_chip;

  void version(const Key& k) { put(k, kProtocolVersion); }

  template <class T, class... Rule>
  void field(const Key& k, const T& value, const Rule&...) {
    if (k.emit) put(k, encode(value));
  }

  void field(const Key& k, std::uint64_t fingerprint, Hex) {
    if (k.emit) put(k, engine::fingerprint_hex(fingerprint));
  }

  template <class Fields>
  void object(const Key& k, Fields&& visit) {
    if (k.emit) put(k, object_of(visit));
  }

 private:
  void put(const Key& k, Json value) {
    out_.set(std::string{k.name}, std::move(value));
  }

  template <class Fields>
  Json object_of(Fields&& visit) const {
    Json j = Json::object();
    Writer inner{j, per_chip};
    visit(inner);
    return j;
  }

  template <Integer I>
  static Json encode(I v) {
    return static_cast<double>(v);
  }
  static Json encode(double v) { return v; }
  static Json encode(bool v) { return v; }
  static Json encode(const std::string& v) { return v; }
  static Json encode(const ConfigSpec& spec) { return spec.str(); }
  template <class E>
    requires std::is_enum_v<E>
  static Json encode(E v) {
    return name_of(v);
  }
  /// A shard row travels as its mc::columns() in order; doubles travel as
  /// %.17g, so a remote merge is bit-identical to a local one.
  static Json encode(const mc::FailureTableRow& row) {
    Json j = Json::array();
    for (const double* column : mc::columns(row)) j.push_back(*column);
    return j;
  }
  static Json encode(const std::pair<std::uint32_t, std::uint64_t>& bucket) {
    Json j = Json::array();
    j.push_back(static_cast<double>(bucket.first));
    j.push_back(static_cast<double>(bucket.second));
    return j;
  }
  template <class T>
  Json encode(const std::vector<T>& items) const {
    Json j = Json::array();
    for (const T& item : items) j.push_back(encode(item));
    return j;
  }
  template <class T>
  Json encode(const std::optional<T>& value) const {
    return encode(*value);
  }
  template <Described S>
  Json encode(const S& s) const {
    return object_of([&](Writer& w) { fields(s, w); });
  }

  Json& out_;
};

/// Parse direction. read() hands the table one JSON member at a time (in
/// document order, so the first bad key is the one reported) and the entry
/// whose key matches decodes it; required entries are read in a first pass.
class Reader {
 public:
  struct Status {
    RequestError error;
    bool failed = false;
  };

  /// `strict` rejects keys the table does not list (requests); responses
  /// tolerate them, since a newer server may annotate its answers.
  Reader(Status& status, bool strict, const Reader* parent = nullptr)
      : status_{status}, strict_{strict}, parent_{parent} {}

  static constexpr bool per_chip = false;  // an emit condition only

  template <class Fields>
  bool read(const Json& doc, Fields&& visit) {
    if (!doc.is_object()) return fail("not a JSON object");
    doc_ = &doc;
    visit(*this);  // required pass: value_ == nullptr
    for (const auto& [key, value] : doc.members()) {
      if (status_.failed) break;
      key_ = key;
      value_ = &value;
      matched_ = false;
      visit(*this);
      if (!matched_ && strict_) fail("unknown field \"" + path() + "\"");
    }
    return !status_.failed;
  }

  void version(const Key& k) {
    const Json* v = claim(k);
    if (v != nullptr &&
        !(v->is_number() && v->as_number() == kProtocolVersion)) {
      fail("unsupported protocol version (server speaks v" +
               std::to_string(kProtocolVersion) + ")",
           ErrorCode::unsupported_version);
    }
  }

  template <class T, class... Rule>
  void field(const Key& k, T& out, const Rule&... rule) {
    if (const Json* v = claim(k)) decode(*v, out, rule...);
  }

  template <class Fields>
  void object(const Key& k, Fields&& visit) {
    if (const Json* v = claim(k)) read_object(*v, visit);
  }

 private:
  /// The value entry `k` must decode now, or nullptr.
  const Json* claim(const Key& k) {
    if (status_.failed || matched_) return nullptr;
    if (value_ == nullptr) {
      if (!k.required) return nullptr;
      key_ = k.name;
      const Json* v = doc_->get(k.name);
      if (v == nullptr) fail("missing \"" + path() + "\"");
      return v;
    }
    if (key_ != k.name && (k.alias.empty() || key_ != k.alias)) {
      return nullptr;
    }
    matched_ = true;
    if (k.required) return nullptr;  // already read
    if (!k.allowed) {
      fail("\"" + path() + "\" is not valid for this op");
      return nullptr;
    }
    return value_;
  }

  bool fail(std::string why, ErrorCode code = ErrorCode::bad_request) {
    if (!status_.failed) {
      status_.failed = true;
      status_.error = {code, std::move(why)};
    }
    return false;
  }
  bool fail_must(const char* what) {
    return fail("\"" + path() + "\" must be " + what);
  }
  /// Dotted key of the member being read ("adaptive.z"); built only for
  /// error messages.
  [[nodiscard]] std::string path() const {
    std::string key{key_};
    return parent_ == nullptr ? key : parent_->path() + "." + key;
  }

  template <class Fields>
  bool read_object(const Json& v, Fields&& visit) {
    if (!v.is_object()) return fail_must("an object");
    Reader inner{status_, strict_, this};
    return inner.read(v, visit);
  }

  /// The one checked integer reader: every integer on the wire comes
  /// through here, so no cast sees a value outside `r`.
  template <Integer I>
  bool decode(const Json& v, I& out, const Range& r = {}) {
    const double d = v.is_number() ? v.as_number() : std::nan("");
    if (!(d >= r.lo && d <= r.hi && d == std::floor(d))) {
      return fail("\"" + path() + "\" must be an integer in [" +
                  Json{r.lo}.dump() + ", " + Json{r.hi}.dump() + "]");
    }
    out = static_cast<I>(d);
    return true;
  }
  bool decode(const Json& v, double& out, const Range& r = kAnyNumber) {
    const double d = v.is_number() ? v.as_number() : std::nan("");
    if (!(r.open_lo ? d > r.lo : d >= r.lo) || !(d <= r.hi)) {
      return fail("\"" + path() + "\" must be a number" +
                  (r.lo == -kInf ? ""
                                 : (r.open_lo ? " > " : " >= ") +
                                       Json{r.lo}.dump()));
    }
    out = d;
    return true;
  }
  bool decode(const Json& v, bool& out) {
    if (!v.is_bool()) return fail_must("a boolean");
    out = v.as_bool();
    return true;
  }
  bool decode(const Json& v, std::string& out) {
    if (!v.is_string()) return fail_must("a string");
    out = v.as_string();
    return true;
  }
  bool decode(const Json& v, std::uint64_t& out, Hex) {
    const std::string_view s =
        v.is_string() ? std::string_view{v.as_string()} : std::string_view{};
    const char* last = s.data() + s.size();
    const auto [end, ec] = std::from_chars(s.data(), last, out, 16);
    if (ec != std::errc{} || end != last) return fail_must("a hex string");
    return true;
  }
  bool decode(const Json& v, ConfigSpec& out) {
    std::optional<ConfigSpec> spec;
    if (v.is_string()) spec = ConfigSpec::parse(v.as_string());
    if (!spec) return fail("bad config in \"" + path() + "\"");
    out = std::move(*spec);
    return true;
  }
  template <class E>
    requires std::is_enum_v<E>
  bool decode(const Json& v, E& out) {
    if (!v.is_string()) return fail_must("a string");
    const std::optional<E> parsed = from_name<E>(v.as_string());
    if (!parsed) {
      return fail("unknown " + path() + " \"" + v.as_string() + "\"");
    }
    out = *parsed;
    return true;
  }
  bool decode(const Json& v, mc::FailureTableRow& row) {
    const auto cols = mc::columns(row);
    if (!v.is_array() || v.items().size() != cols.size()) {
      return fail_must("rows of 9 numbers");
    }
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (!decode(v.items()[i], *cols[i])) return false;
    }
    return true;
  }
  bool decode(const Json& v, std::pair<std::uint32_t, std::uint64_t>& bucket) {
    if (!v.is_array() || v.items().size() != 2) {
      return fail_must("[index, count] pairs");
    }
    return decode(v.items()[0], bucket.first,
                  Range{0.0, std::numeric_limits<std::uint32_t>::max()}) &&
           decode(v.items()[1], bucket.second);
  }
  /// Appends; a lone value stands for a one-element array.
  template <class T, class... Rule>
  bool decode(const Json& v, std::vector<T>& out, const Rule&... rule) {
    if (!v.is_array()) return decode(v, out.emplace_back(), rule...);
    for (const Json& item : v.items()) {
      if (!decode(item, out.emplace_back(), rule...)) return false;
    }
    return true;
  }
  template <class T>
  bool decode(const Json& v, std::optional<T>& out) {
    T value{};
    if (!decode(v, value)) return false;
    out = std::move(value);
    return true;
  }
  template <Described S>
  bool decode(const Json& v, S& out) {
    if (!read_object(v, [&](Reader& r) { fields(out, r); })) return false;
    finish(out);
    return true;
  }

  Status& status_;
  const bool strict_;
  const Reader* const parent_;  ///< enclosing object's reader
  const Json* doc_ = nullptr;
  std::string_view key_;
  const Json* value_ = nullptr;  ///< member being read; nullptr = required pass
  bool matched_ = false;
};

template <class S>
std::string format_line(const S& s, bool per_chip) {
  Json j = Json::object();
  Writer writer{j, per_chip};
  fields(s, writer);
  return j.dump();
}

template <class S>
bool parse_line(std::string_view line, bool strict, S& out,
                Reader::Status& status) {
  ParseError syntax;
  const std::optional<Json> doc = Json::parse(line, &syntax);
  if (!doc) {
    status = {{ErrorCode::bad_request, "invalid JSON: " + syntax.str()}, true};
    return false;
  }
  Reader reader{status, strict};
  return reader.read(*doc, [&](Reader& r) { fields(out, r); });
}

/// Cross-field rules of a request, checked once every key is read.
const char* request_shape_error(const Request& req) {
  switch (req.kind) {
    case RequestKind::stats:
      // A stats scrape names no workload; everything but the envelope is a
      // client error, not silently ignored state.
      if (!req.configs.empty() || !req.vdds.empty() || req.chips != 0 ||
          req.eval_seed != 0 || req.mc_samples != 0 || req.table_seed != 0 ||
          req.adaptive.has_value()) {
        return "\"stats\" takes only \"v\", \"tag\" and \"priority\"";
      }
      break;
    case RequestKind::table_shard:
      if (req.shard_count == 0) {
        return "\"table_shard\" requires \"shard_count\" >= 1";
      }
      if (req.shard >= req.shard_count) {
        return "\"shard\" must be < \"shard_count\"";
      }
      break;
    case RequestKind::evaluate:
    case RequestKind::sweep:
      if (req.configs.empty()) return "missing \"config\"/\"configs\"";
      if (req.vdds.empty()) return "missing \"vdd\"/\"vdds\"";
      if (req.kind == RequestKind::evaluate &&
          (req.configs.size() != 1 || req.vdds.size() != 1)) {
        return "\"evaluate\" takes exactly one config and one vdd"
               " (use \"sweep\" for grids)";
      }
      break;
    case RequestKind::table_info:
      break;
  }
  return nullptr;
}

}  // namespace

std::optional<ConfigSpec> ConfigSpec::parse(std::string_view text) {
  ConfigSpec spec;
  if (text == "all6t") {
    spec.kind = Kind::all_6t;
    return spec;
  }
  if (text.rfind("hybrid", 0) == 0) {
    int n = 0;
    if (!parse_int(text.substr(6), n) || n < 0 || n > 64) return std::nullopt;
    spec.kind = Kind::uniform;
    spec.n_msb = n;
    return spec;
  }
  if (text.rfind("perlayer:", 0) == 0) {
    spec.kind = Kind::per_layer;
    std::string_view rest = text.substr(9);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view field = rest.substr(0, comma);
      int n = 0;
      if (!parse_int(field, n) || n < 0 || n > 64) return std::nullopt;
      spec.msbs.push_back(n);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
      if (rest.empty()) return std::nullopt;  // trailing comma
    }
    if (spec.msbs.empty()) return std::nullopt;
    return spec;
  }
  return std::nullopt;
}

std::string ConfigSpec::str() const {
  switch (kind) {
    case Kind::all_6t:
      return "all6t";
    case Kind::uniform:
      return "hybrid" + std::to_string(n_msb);
    case Kind::per_layer: {
      std::string out = "perlayer:";
      for (std::size_t i = 0; i < msbs.size(); ++i) {
        if (i != 0) out.push_back(',');
        out += std::to_string(msbs[i]);
      }
      return out;
    }
  }
  return {};
}

core::MemoryConfig ConfigSpec::materialize(
    std::span<const std::size_t> bank_words) const {
  switch (kind) {
    case Kind::all_6t:
      return core::MemoryConfig::all_6t(bank_words);
    case Kind::uniform:
      return core::MemoryConfig::uniform_hybrid(bank_words, n_msb);
    case Kind::per_layer:
      if (msbs.size() != bank_words.size()) {
        throw std::invalid_argument{
            "config \"" + str() + "\" names " + std::to_string(msbs.size()) +
            " banks but the served network has " +
            std::to_string(bank_words.size())};
      }
      return core::MemoryConfig::per_layer(bank_words, msbs);
  }
  throw std::invalid_argument{"bad ConfigSpec"};
}

const char* to_string(RequestStatus status) noexcept { return name_of(status); }

const char* to_string(engine::TableSource source) noexcept {
  return name_of(source);
}

const char* to_string(ErrorCode code) noexcept { return name_of(code); }

std::optional<ErrorCode> parse_error_code(std::string_view text) noexcept {
  return from_name<ErrorCode>(text);
}

std::optional<Request> parse_request(std::string_view line,
                                     RequestError* error) {
  Request req;
  Reader::Status status;
  if (parse_line(line, /*strict=*/true, req, status)) {
    if (const char* why = request_shape_error(req)) {
      status = {{ErrorCode::bad_request, why}, true};
    }
  }
  if (!status.failed) return req;
  if (error != nullptr) *error = std::move(status.error);
  return std::nullopt;
}

std::optional<Request> parse_request(std::string_view line,
                                     std::string* error) {
  RequestError structured;
  std::optional<Request> req =
      parse_request(line, error != nullptr ? &structured : nullptr);
  if (!req && error != nullptr) *error = std::move(structured.message);
  return req;
}

std::string format_request(const Request& request) {
  return format_line(request, false);
}

std::string format_response(const Response& response, bool per_chip) {
  return format_line(response, per_chip);
}

std::optional<Response> parse_response(std::string_view line,
                                       std::string* error) {
  Response r;
  Reader::Status status;
  if (parse_line(line, /*strict=*/false, r, status)) return r;
  if (error != nullptr) *error = std::move(status.error.message);
  return std::nullopt;
}

}  // namespace hynapse::serve
