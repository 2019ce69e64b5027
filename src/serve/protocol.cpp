#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "serve/json.hpp"

namespace hynapse::serve {

namespace {

bool parse_int(std::string_view text, int& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

/// Reads a non-negative integer-valued JSON number. Returns false (and
/// reports) on fractions, negatives, out-of-range values and non-numbers.
/// The bound is 2^53, not 2^64: JSON numbers travel as doubles, and above
/// the mantissa limit adjacent integers collapse -- two distinct seeds
/// would silently map to the same value (and >= 2^64 the cast itself is
/// undefined behavior). Rejecting makes the loss explicit.
bool read_u64(const Json& v, std::string_view key, std::uint64_t& out,
              RequestError* error) {
  constexpr double kTwoPow53 = 9007199254740992.0;
  const double d = v.is_number() ? v.as_number() : -1.0;
  if (!(d >= 0.0) || d != std::floor(d) || d > kTwoPow53) {
    if (error != nullptr) {
      error->code = ErrorCode::bad_request;
      error->message = "\"" + std::string{key} +
                       "\" must be a non-negative integer <= 2^53";
    }
    return false;
  }
  out = static_cast<std::uint64_t>(d);
  return true;
}

Json accuracy_json(const PointResult& point, bool per_chip) {
  Json j = Json::object();
  j.set("config", point.config);
  j.set("vdd", point.vdd);
  j.set("mean", point.accuracy.mean);
  j.set("stddev", point.accuracy.stddev);
  j.set("chips", static_cast<double>(point.accuracy.per_chip.size()));
  if (per_chip) {
    Json chips = Json::array();
    for (const double a : point.accuracy.per_chip) chips.push_back(a);
    j.set("per_chip", std::move(chips));
  }
  return j;
}

std::optional<RequestStatus> parse_status(std::string_view text) noexcept {
  if (text == "queued") return RequestStatus::queued;
  if (text == "running") return RequestStatus::running;
  if (text == "done") return RequestStatus::done;
  if (text == "failed") return RequestStatus::failed;
  if (text == "cancelled") return RequestStatus::cancelled;
  if (text == "evicted") return RequestStatus::evicted;
  if (text == "not_found") return RequestStatus::not_found;
  return std::nullopt;
}

std::optional<engine::TableSource> parse_table_source(
    std::string_view text) noexcept {
  if (text == "memory") return engine::TableSource::memory;
  if (text == "disk") return engine::TableSource::disk;
  if (text == "built") return engine::TableSource::built;
  return std::nullopt;
}

/// Fingerprints travel as the 16-hex-digit string of fingerprint_hex().
bool parse_fingerprint(const Json* v, std::uint64_t& out) {
  if (v == nullptr || !v->is_string()) return false;
  const std::string& s = v->as_string();
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return false;
  }
  out = value;
  return true;
}

/// Parses the "adaptive" request object into a policy with enabled=true.
/// Mirrors the top-level request discipline: unknown keys are rejected, and
/// every value is validated where a bad value would otherwise be silently
/// clamped server-side (the policy is fingerprinted verbatim, so two
/// requests differing only in a junk field must not coalesce).
bool parse_adaptive(const Json& value, mc::AdaptivePolicy& out,
                    RequestError* error) {
  const auto fail = [&](std::string why) {
    if (error != nullptr) {
      error->code = ErrorCode::bad_request;
      error->message = std::move(why);
    }
    return false;
  };
  if (!value.is_object()) return fail("\"adaptive\" must be an object");
  mc::AdaptivePolicy p;
  p.enabled = true;
  for (const auto& [key, v] : value.members()) {
    if (key == "rel_target" || key == "abs_target") {
      const double d = v.is_number() ? v.as_number() : -1.0;
      if (!(d >= 0.0) || !std::isfinite(d)) {
        return fail("\"adaptive." + key + "\" must be a non-negative number");
      }
      (key == "rel_target" ? p.rel_target : p.abs_target) = d;
    } else if (key == "z") {
      const double d = v.is_number() ? v.as_number() : -1.0;
      if (!(d > 0.0) || !std::isfinite(d)) {
        return fail("\"adaptive.z\" must be a positive number");
      }
      p.z = d;
    } else if (key == "interval") {
      if (v.is_string() && v.as_string() == "wilson") {
        p.interval = mc::IntervalKind::wilson;
      } else if (v.is_string() && v.as_string() == "clopper_pearson") {
        p.interval = mc::IntervalKind::clopper_pearson;
      } else {
        return fail(
            "\"adaptive.interval\" must be \"wilson\" or \"clopper_pearson\"");
      }
    } else if (key == "batch_growth") {
      const double d = v.is_number() ? v.as_number() : 0.0;
      if (!(d >= 1.0) || !std::isfinite(d)) {
        return fail("\"adaptive.batch_growth\" must be a number >= 1");
      }
      p.batch_growth = d;
    } else if (key == "batch_samples" || key == "min_samples" ||
               key == "max_samples" || key == "tail_escape_samples" ||
               key == "max_is_samples") {
      std::uint64_t n = 0;
      if (!read_u64(v, "adaptive." + std::string{key}, n, error)) return false;
      if (key == "batch_samples") p.batch_samples = n;
      else if (key == "min_samples") p.min_samples = n;
      else if (key == "max_samples") p.max_samples = n;
      else if (key == "tail_escape_samples") p.tail_escape_samples = n;
      else p.max_is_samples = n;
    } else {
      return fail("unknown field \"adaptive." + key + "\"");
    }
  }
  out = p;
  return true;
}

/// Full-policy rendering: every field is emitted (not just non-defaults) so
/// parse_request(format_request(r)) reproduces the policy -- and therefore
/// the fingerprint -- exactly.
Json adaptive_json(const mc::AdaptivePolicy& p) {
  Json j = Json::object();
  j.set("rel_target", p.rel_target);
  j.set("abs_target", p.abs_target);
  j.set("z", p.z);
  j.set("interval", p.interval == mc::IntervalKind::clopper_pearson
                        ? "clopper_pearson"
                        : "wilson");
  j.set("batch_samples", static_cast<double>(p.batch_samples));
  j.set("batch_growth", p.batch_growth);
  j.set("min_samples", static_cast<double>(p.min_samples));
  j.set("max_samples", static_cast<double>(p.max_samples));
  j.set("tail_escape_samples", static_cast<double>(p.tail_escape_samples));
  j.set("max_is_samples", static_cast<double>(p.max_is_samples));
  return j;
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

const char* to_string(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::queued: return "queued";
    case RequestStatus::running: return "running";
    case RequestStatus::done: return "done";
    case RequestStatus::failed: return "failed";
    case RequestStatus::cancelled: return "cancelled";
    case RequestStatus::evicted: return "evicted";
    case RequestStatus::not_found: return "not_found";
  }
  return "?";
}

const char* to_string(engine::TableSource source) noexcept {
  switch (source) {
    case engine::TableSource::memory: return "memory";
    case engine::TableSource::disk: return "disk";
    case engine::TableSource::built: return "built";
  }
  return "?";
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::none: return "none";
    case ErrorCode::bad_request: return "bad_request";
    case ErrorCode::queue_full: return "queue_full";
    case ErrorCode::quota_exceeded: return "quota_exceeded";
    case ErrorCode::deadline_exceeded: return "deadline_exceeded";
    case ErrorCode::shard_out_of_range: return "shard_out_of_range";
    case ErrorCode::shutting_down: return "shutting_down";
    case ErrorCode::not_found: return "not_found";
    case ErrorCode::unsupported_version: return "unsupported_version";
    case ErrorCode::internal: return "internal";
  }
  return "?";
}

std::optional<ErrorCode> parse_error_code(std::string_view text) noexcept {
  if (text == "none") return ErrorCode::none;
  if (text == "bad_request") return ErrorCode::bad_request;
  if (text == "queue_full") return ErrorCode::queue_full;
  if (text == "quota_exceeded") return ErrorCode::quota_exceeded;
  if (text == "deadline_exceeded") return ErrorCode::deadline_exceeded;
  if (text == "shard_out_of_range") return ErrorCode::shard_out_of_range;
  if (text == "shutting_down") return ErrorCode::shutting_down;
  if (text == "not_found") return ErrorCode::not_found;
  if (text == "unsupported_version") return ErrorCode::unsupported_version;
  if (text == "internal") return ErrorCode::internal;
  return std::nullopt;
}

std::optional<Request> parse_request(std::string_view line,
                                     RequestError* error) {
  const auto fail = [&](std::string why,
                        ErrorCode code =
                            ErrorCode::bad_request) -> std::optional<Request> {
    if (error != nullptr) {
      error->code = code;
      error->message = std::move(why);
    }
    return std::nullopt;
  };

  ParseError syntax;
  const std::optional<Json> doc = Json::parse(line, &syntax);
  if (!doc) return fail("invalid JSON: " + syntax.str());
  if (!doc->is_object()) return fail("not a JSON object");

  const Json* op = doc->get("op");
  if (op == nullptr || !op->is_string()) {
    return fail("missing string field \"op\"");
  }

  Request req;
  if (op->as_string() == "evaluate") {
    req.kind = RequestKind::evaluate;
  } else if (op->as_string() == "sweep") {
    req.kind = RequestKind::sweep;
  } else if (op->as_string() == "table_info") {
    req.kind = RequestKind::table_info;
  } else if (op->as_string() == "table_shard") {
    req.kind = RequestKind::table_shard;
  } else if (op->as_string() == "stats") {
    req.kind = RequestKind::stats;
  } else {
    return fail("unknown op \"" + op->as_string() + "\"");
  }

  for (const auto& [key, value] : doc->members()) {
    if (key == "op") continue;
    if (key == "v") {
      const double v = value.is_number() ? value.as_number() : -1.0;
      if (v != static_cast<double>(kProtocolVersion)) {
        return fail("unsupported protocol version (server speaks v" +
                        std::to_string(kProtocolVersion) + ")",
                    ErrorCode::unsupported_version);
      }
    } else if (key == "tag") {
      if (!value.is_string()) return fail("\"tag\" must be a string");
      req.tag = value.as_string();
    } else if (key == "client") {
      if (!value.is_string()) return fail("\"client\" must be a string");
      req.client = value.as_string();
    } else if (key == "deadline_ms") {
      const double d = value.is_number() ? value.as_number() : -1.0;
      if (!(d > 0.0) || !std::isfinite(d)) {
        return fail("\"deadline_ms\" must be a positive number");
      }
      req.deadline_ms = d;
    } else if (key == "inline_rows") {
      if (req.kind != RequestKind::table_shard) {
        return fail("\"inline_rows\" is only valid for op \"table_shard\"");
      }
      if (!value.is_bool()) return fail("\"inline_rows\" must be a boolean");
      req.inline_rows = value.as_bool();
    } else if (key == "priority") {
      const double p = value.is_number() ? value.as_number() : 0.5;
      if (p != std::floor(p) || p < -1e6 || p > 1e6) {
        return fail("\"priority\" must be an integer in [-1e6, 1e6]");
      }
      req.priority = static_cast<int>(p);
    } else if (key == "config" || key == "configs") {
      const auto add = [&](const Json& v) {
        if (!v.is_string()) return false;
        const auto spec = ConfigSpec::parse(v.as_string());
        if (!spec) return false;
        req.configs.push_back(*spec);
        return true;
      };
      if (value.is_array()) {
        for (const Json& v : value.items()) {
          if (!add(v)) return fail("bad config in \"" + key + "\"");
        }
      } else if (!add(value)) {
        return fail("bad config in \"" + key + "\"");
      }
    } else if (key == "vdd" || key == "vdds") {
      const auto add = [&](const Json& v) {
        if (!v.is_number() || v.as_number() <= 0.0) return false;
        req.vdds.push_back(v.as_number());
        return true;
      };
      if (value.is_array()) {
        for (const Json& v : value.items()) {
          if (!add(v)) return fail("bad voltage in \"" + key + "\"");
        }
      } else if (!add(value)) {
        return fail("bad voltage in \"" + key + "\"");
      }
    } else if (key == "chips") {
      std::uint64_t n = 0;
      if (!read_u64(value, key, n, error)) return std::nullopt;
      if (n > kMaxChipsPerRequest) {
        return fail("\"chips\" must be <= " +
                    std::to_string(kMaxChipsPerRequest));
      }
      req.chips = static_cast<std::size_t>(n);
    } else if (key == "eval_seed") {
      if (!read_u64(value, key, req.eval_seed, error)) return std::nullopt;
    } else if (key == "samples") {
      std::uint64_t n = 0;
      if (!read_u64(value, key, n, error)) return std::nullopt;
      req.mc_samples = static_cast<std::size_t>(n);
    } else if (key == "table_seed") {
      if (!read_u64(value, key, req.table_seed, error)) return std::nullopt;
    } else if (key == "shard" || key == "shard_count") {
      if (req.kind != RequestKind::table_shard) {
        return fail("\"" + key + "\" is only valid for op \"table_shard\"");
      }
      std::uint64_t n = 0;
      if (!read_u64(value, key, n, error)) return std::nullopt;
      (key == "shard" ? req.shard : req.shard_count) =
          static_cast<std::size_t>(n);
    } else if (key == "adaptive") {
      mc::AdaptivePolicy policy;
      if (!parse_adaptive(value, policy, error)) return std::nullopt;
      req.adaptive = policy;
    } else {
      return fail("unknown field \"" + key + "\"");
    }
  }

  if (req.kind == RequestKind::stats) {
    // A stats scrape names no workload; everything but the envelope
    // (v/tag/priority) is a client error, not silently ignored state.
    if (!req.configs.empty() || !req.vdds.empty() || req.chips != 0 ||
        req.eval_seed != 0 || req.mc_samples != 0 || req.table_seed != 0 ||
        req.adaptive.has_value()) {
      return fail("\"stats\" takes only \"v\", \"tag\" and \"priority\"");
    }
  }
  if (req.kind == RequestKind::table_shard) {
    if (req.shard_count == 0) {
      return fail("\"table_shard\" requires \"shard_count\" >= 1");
    }
    if (req.shard >= req.shard_count) {
      return fail("\"shard\" must be < \"shard_count\"");
    }
  }
  if (req.kind == RequestKind::evaluate || req.kind == RequestKind::sweep) {
    if (req.configs.empty()) return fail("missing \"config\"/\"configs\"");
    if (req.vdds.empty()) return fail("missing \"vdd\"/\"vdds\"");
    if (req.kind == RequestKind::evaluate &&
        (req.configs.size() != 1 || req.vdds.size() != 1)) {
      return fail("\"evaluate\" takes exactly one config and one vdd"
                  " (use \"sweep\" for grids)");
    }
  }
  return req;
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
  Json j = Json::object();
  j.set("v", kProtocolVersion);
  switch (request.kind) {
    case RequestKind::evaluate: j.set("op", "evaluate"); break;
    case RequestKind::sweep: j.set("op", "sweep"); break;
    case RequestKind::table_info: j.set("op", "table_info"); break;
    case RequestKind::table_shard: j.set("op", "table_shard"); break;
    case RequestKind::stats: j.set("op", "stats"); break;
  }
  if (request.kind == RequestKind::evaluate ||
      request.kind == RequestKind::sweep) {
    Json configs = Json::array();
    for (const ConfigSpec& spec : request.configs) {
      configs.push_back(spec.str());
    }
    Json vdds = Json::array();
    for (const double v : request.vdds) vdds.push_back(v);
    j.set("configs", std::move(configs));
    j.set("vdds", std::move(vdds));
  }
  if (request.kind == RequestKind::table_shard) {
    j.set("shard", static_cast<double>(request.shard));
    j.set("shard_count", static_cast<double>(request.shard_count));
    if (request.inline_rows) j.set("inline_rows", true);
  }
  if (request.priority != 0) j.set("priority", request.priority);
  if (request.chips != 0) j.set("chips", static_cast<double>(request.chips));
  if (request.eval_seed != 0) {
    j.set("eval_seed", static_cast<double>(request.eval_seed));
  }
  if (request.mc_samples != 0) {
    j.set("samples", static_cast<double>(request.mc_samples));
  }
  if (request.table_seed != 0) {
    j.set("table_seed", static_cast<double>(request.table_seed));
  }
  if (request.adaptive.has_value()) {
    j.set("adaptive", adaptive_json(*request.adaptive));
  }
  if (!request.tag.empty()) j.set("tag", request.tag);
  if (!request.client.empty()) j.set("client", request.client);
  if (request.deadline_ms > 0.0) j.set("deadline_ms", request.deadline_ms);
  return j.dump();
}

std::string format_response(const Response& response, bool per_chip) {
  Json j = Json::object();
  j.set("v", kProtocolVersion);
  j.set("id", static_cast<double>(response.id));
  j.set("status", to_string(response.status));
  if (!response.error.empty()) j.set("error", response.error);
  if (response.code != ErrorCode::none) {
    j.set("code", to_string(response.code));
  }
  if (!response.tag.empty()) j.set("tag", response.tag);
  if (response.retry_after_ms > 0.0) {
    j.set("retry_after_ms", response.retry_after_ms);
  }

  if (!response.results.empty()) {
    Json results = Json::array();
    for (const PointResult& point : response.results) {
      results.push_back(accuracy_json(point, per_chip));
    }
    j.set("results", std::move(results));
  }

  if (response.table_fingerprint != 0) {
    Json table = Json::object();
    table.set("fingerprint",
              engine::fingerprint_hex(response.table_fingerprint));
    if (response.status == RequestStatus::done &&
        !response.results.empty()) {
      table.set("source", to_string(response.stats.table_source));
      table.set("coalesced", response.stats.coalesced);
    }
    if (!response.table_csv.empty()) table.set("csv", response.table_csv);
    if (response.table_rows != 0) {
      table.set("rows", static_cast<double>(response.table_rows));
    }
    table.set("in_memory", response.table_in_memory);
    j.set("table", std::move(table));
  }

  if (response.shard_count != 0) {
    Json shard = Json::object();
    shard.set("index", static_cast<double>(response.shard_index));
    shard.set("count", static_cast<double>(response.shard_count));
    shard.set("fingerprint",
              engine::fingerprint_hex(response.shard_fingerprint));
    if (response.status == RequestStatus::done) {
      // built = this request paid for the Monte-Carlo; disk = replayed the
      // persisted shard CSV (possibly produced by another process).
      shard.set("source", to_string(response.stats.table_source));
    }
    if (response.shard_samples > 0.0) {
      // Achieved sampling cost/precision of the artifact (CSV v3 metadata;
      // omitted for v2-era shards, which predate the columns).
      shard.set("samples", response.shard_samples);
      shard.set("ci_half_width", response.shard_ci_half_width);
    }
    if (!response.shard_rows.empty()) {
      // [vdd, ra6, wf6, rd6, ra8, wf8, rd8, samples, ci_half_width] per
      // row; doubles travel as %.17g so a remote merge is bit-identical to
      // a local one (including the CSV v3 metadata columns).
      Json rows = Json::array();
      for (const mc::FailureTableRow& row : response.shard_rows) {
        Json r = Json::array();
        r.push_back(row.vdd);
        r.push_back(row.cell6.read_access);
        r.push_back(row.cell6.write_fail);
        r.push_back(row.cell6.read_disturb);
        r.push_back(row.cell8.read_access);
        r.push_back(row.cell8.write_fail);
        r.push_back(row.cell8.read_disturb);
        r.push_back(row.samples);
        r.push_back(row.ci_half_width);
        rows.push_back(std::move(r));
      }
      shard.set("rows_data", std::move(rows));
    }
    j.set("shard", std::move(shard));
  }

  if (response.health.has_value()) {
    const HealthSummary& h = *response.health;
    Json health = Json::object();
    health.set("uptime_s", h.uptime_s);
    health.set("queue_depth", static_cast<double>(h.queue_depth));
    health.set("queue_capacity", static_cast<double>(h.queue_capacity));
    health.set("dispatchers", static_cast<double>(h.dispatchers));
    health.set("threads", static_cast<double>(h.threads));
    health.set("backend", h.backend);
    health.set("fuse_chips", static_cast<double>(h.fuse_chips));
    health.set("max_batch", static_cast<double>(h.max_batch));
    if (!h.cache_dir.empty()) health.set("cache_dir", h.cache_dir);
    health.set("cache_tables", static_cast<double>(h.cache_tables));
    health.set("cache_bytes", static_cast<double>(h.cache_bytes));
    Json totals = Json::object();
    const auto set = [&totals](const char* key, std::uint64_t v) {
      totals.set(key, static_cast<double>(v));
    };
    set("submitted", h.totals.submitted);
    set("completed", h.totals.completed);
    set("failed", h.totals.failed);
    set("cancelled", h.totals.cancelled);
    set("rejected", h.totals.rejected);
    set("quota_rejected", h.totals.quota_rejected);
    set("deadline_expired", h.totals.deadline_expired);
    set("batches", h.totals.batches);
    set("coalesced_requests", h.totals.coalesced_requests);
    set("table_builds", h.totals.table_builds);
    set("table_memory_hits", h.totals.table_memory_hits);
    set("table_disk_hits", h.totals.table_disk_hits);
    set("shard_builds", h.totals.shard_builds);
    set("shard_replays", h.totals.shard_replays);
    set("max_queue_depth", h.totals.max_queue_depth);
    health.set("totals", std::move(totals));
    j.set("health", std::move(health));
  }

  if (!response.metrics.empty()) {
    Json registry = Json::array();
    for (const obs::MetricSnapshot& m : response.metrics) {
      Json metric = Json::object();
      metric.set("name", m.name);
      metric.set("kind", obs::metric_kind_name(m.kind));
      switch (m.kind) {
        case obs::MetricKind::counter:
          metric.set("count", static_cast<double>(m.count));
          break;
        case obs::MetricKind::gauge:
          metric.set("value", m.value);
          break;
        case obs::MetricKind::histogram: {
          metric.set("count", static_cast<double>(m.count));
          metric.set("sum", static_cast<double>(m.sum));
          metric.set("p50", m.p50);
          metric.set("p95", m.p95);
          metric.set("p99", m.p99);
          // Sparse [bucket_index, count] pairs; integers survive the
          // double round trip exactly (indices < 65, realistic counts).
          Json buckets = Json::array();
          for (const auto& [idx, n] : m.buckets) {
            Json pair = Json::array();
            pair.push_back(static_cast<double>(idx));
            pair.push_back(static_cast<double>(n));
            buckets.push_back(std::move(pair));
          }
          metric.set("buckets", std::move(buckets));
          break;
        }
      }
      registry.push_back(std::move(metric));
    }
    j.set("registry", std::move(registry));
  }

  if (response.status == RequestStatus::done ||
      response.status == RequestStatus::failed) {
    Json stats = Json::object();
    stats.set("queue_ms", response.stats.queue_ms);
    stats.set("table_ms", response.stats.table_ms);
    stats.set("run_ms", response.stats.run_ms);
    stats.set("wall_ms", response.stats.wall_ms);
    stats.set("batch_size", static_cast<double>(response.stats.batch_size));
    stats.set("dispatch_seq",
              static_cast<double>(response.stats.dispatch_seq));
    j.set("stats", std::move(stats));
  }
  return j.dump();
}

std::optional<Response> parse_response(std::string_view line,
                                       std::string* error) {
  const auto fail = [&](std::string why) -> std::optional<Response> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };

  ParseError syntax;
  const std::optional<Json> doc = Json::parse(line, &syntax);
  if (!doc) return fail("invalid JSON: " + syntax.str());
  if (!doc->is_object()) return fail("not a JSON object");

  Response r;
  const Json* id = doc->get("id");
  if (id == nullptr || !id->is_number()) {
    return fail("missing numeric field \"id\"");
  }
  r.id = static_cast<std::uint64_t>(id->as_number());

  const Json* status = doc->get("status");
  if (status == nullptr || !status->is_string()) {
    return fail("missing string field \"status\"");
  }
  const auto parsed_status = parse_status(status->as_string());
  if (!parsed_status) {
    return fail("unknown status \"" + status->as_string() + "\"");
  }
  r.status = *parsed_status;

  // Unknown top-level keys are tolerated: a newer server may annotate
  // responses, and a client must not choke on that.
  if (const Json* err = doc->get("error"); err != nullptr && err->is_string()) {
    r.error = err->as_string();
  }
  if (const Json* code = doc->get("code");
      code != nullptr && code->is_string()) {
    const auto parsed = parse_error_code(code->as_string());
    if (!parsed) return fail("unknown code \"" + code->as_string() + "\"");
    r.code = *parsed;
  }
  if (const Json* tag = doc->get("tag"); tag != nullptr && tag->is_string()) {
    r.tag = tag->as_string();
  }
  if (const Json* retry = doc->get("retry_after_ms");
      retry != nullptr && retry->is_number()) {
    r.retry_after_ms = retry->as_number();
  }

  if (const Json* results = doc->get("results");
      results != nullptr && results->is_array()) {
    for (const Json& item : results->items()) {
      if (!item.is_object()) return fail("bad entry in \"results\"");
      PointResult point;
      const Json* config = item.get("config");
      const Json* vdd = item.get("vdd");
      const Json* mean = item.get("mean");
      const Json* stddev = item.get("stddev");
      if (config == nullptr || !config->is_string() || vdd == nullptr ||
          !vdd->is_number() || mean == nullptr || !mean->is_number() ||
          stddev == nullptr || !stddev->is_number()) {
        return fail("bad entry in \"results\"");
      }
      point.config = config->as_string();
      point.vdd = vdd->as_number();
      point.accuracy.mean = mean->as_number();
      point.accuracy.stddev = stddev->as_number();
      if (const Json* chips = item.get("per_chip");
          chips != nullptr && chips->is_array()) {
        for (const Json& a : chips->items()) {
          if (!a.is_number()) return fail("bad \"per_chip\" entry");
          point.accuracy.per_chip.push_back(a.as_number());
        }
      }
      r.results.push_back(std::move(point));
    }
  }

  if (const Json* table = doc->get("table");
      table != nullptr && table->is_object()) {
    if (!parse_fingerprint(table->get("fingerprint"), r.table_fingerprint)) {
      return fail("bad \"table.fingerprint\"");
    }
    if (const Json* source = table->get("source");
        source != nullptr && source->is_string()) {
      const auto parsed = parse_table_source(source->as_string());
      if (!parsed) return fail("unknown table source");
      r.stats.table_source = *parsed;
    }
    if (const Json* coalesced = table->get("coalesced");
        coalesced != nullptr && coalesced->is_bool()) {
      r.stats.coalesced = coalesced->as_bool();
    }
    if (const Json* csv = table->get("csv");
        csv != nullptr && csv->is_string()) {
      r.table_csv = csv->as_string();
    }
    if (const Json* rows = table->get("rows");
        rows != nullptr && rows->is_number()) {
      r.table_rows = static_cast<std::size_t>(rows->as_number());
    }
    if (const Json* in_memory = table->get("in_memory");
        in_memory != nullptr && in_memory->is_bool()) {
      r.table_in_memory = in_memory->as_bool();
    }
  }

  if (const Json* shard = doc->get("shard");
      shard != nullptr && shard->is_object()) {
    const Json* index = shard->get("index");
    const Json* count = shard->get("count");
    if (index == nullptr || !index->is_number() || count == nullptr ||
        !count->is_number()) {
      return fail("bad \"shard\" block");
    }
    r.shard_index = static_cast<std::size_t>(index->as_number());
    r.shard_count = static_cast<std::size_t>(count->as_number());
    if (!parse_fingerprint(shard->get("fingerprint"), r.shard_fingerprint)) {
      return fail("bad \"shard.fingerprint\"");
    }
    if (const Json* source = shard->get("source");
        source != nullptr && source->is_string()) {
      const auto parsed = parse_table_source(source->as_string());
      if (!parsed) return fail("unknown shard source");
      r.stats.table_source = *parsed;
    }
    if (const Json* samples = shard->get("samples");
        samples != nullptr && samples->is_number()) {
      r.shard_samples = samples->as_number();
    }
    if (const Json* ci = shard->get("ci_half_width");
        ci != nullptr && ci->is_number()) {
      r.shard_ci_half_width = ci->as_number();
    }
    if (const Json* rows = shard->get("rows_data");
        rows != nullptr && rows->is_array()) {
      for (const Json& row : rows->items()) {
        // 9 entries since the CSV v3 metadata columns; 7 accepted for
        // responses from pre-v3 servers (metadata stays zero).
        if (!row.is_array() ||
            (row.items().size() != 9 && row.items().size() != 7)) {
          return fail("bad \"rows_data\" entry");
        }
        for (const Json& v : row.items()) {
          if (!v.is_number()) return fail("bad \"rows_data\" entry");
        }
        mc::FailureTableRow out;
        out.vdd = row.items()[0].as_number();
        out.cell6.read_access = row.items()[1].as_number();
        out.cell6.write_fail = row.items()[2].as_number();
        out.cell6.read_disturb = row.items()[3].as_number();
        out.cell8.read_access = row.items()[4].as_number();
        out.cell8.write_fail = row.items()[5].as_number();
        out.cell8.read_disturb = row.items()[6].as_number();
        if (row.items().size() == 9) {
          out.samples = row.items()[7].as_number();
          out.ci_half_width = row.items()[8].as_number();
        }
        r.shard_rows.push_back(out);
      }
    }
  }

  if (const Json* health = doc->get("health");
      health != nullptr && health->is_object()) {
    HealthSummary h;
    const auto number = [&](const char* key, double& out) {
      if (const Json* v = health->get(key); v != nullptr && v->is_number()) {
        out = v->as_number();
      }
    };
    const auto count = [&](const char* key, std::size_t& out) {
      if (const Json* v = health->get(key); v != nullptr && v->is_number()) {
        out = static_cast<std::size_t>(v->as_number());
      }
    };
    number("uptime_s", h.uptime_s);
    count("queue_depth", h.queue_depth);
    count("queue_capacity", h.queue_capacity);
    count("dispatchers", h.dispatchers);
    count("threads", h.threads);
    count("fuse_chips", h.fuse_chips);
    count("max_batch", h.max_batch);
    if (const Json* v = health->get("backend");
        v != nullptr && v->is_string()) {
      h.backend = v->as_string();
    }
    if (const Json* v = health->get("cache_dir");
        v != nullptr && v->is_string()) {
      h.cache_dir = v->as_string();
    }
    count("cache_tables", h.cache_tables);
    if (const Json* v = health->get("cache_bytes");
        v != nullptr && v->is_number()) {
      h.cache_bytes = static_cast<std::uint64_t>(v->as_number());
    }
    if (const Json* totals = health->get("totals");
        totals != nullptr && totals->is_object()) {
      const auto total = [&](const char* key, std::uint64_t& out) {
        if (const Json* v = totals->get(key);
            v != nullptr && v->is_number()) {
          out = static_cast<std::uint64_t>(v->as_number());
        }
      };
      total("submitted", h.totals.submitted);
      total("completed", h.totals.completed);
      total("failed", h.totals.failed);
      total("cancelled", h.totals.cancelled);
      total("rejected", h.totals.rejected);
      total("quota_rejected", h.totals.quota_rejected);
      total("deadline_expired", h.totals.deadline_expired);
      total("batches", h.totals.batches);
      total("coalesced_requests", h.totals.coalesced_requests);
      total("table_builds", h.totals.table_builds);
      total("table_memory_hits", h.totals.table_memory_hits);
      total("table_disk_hits", h.totals.table_disk_hits);
      total("shard_builds", h.totals.shard_builds);
      total("shard_replays", h.totals.shard_replays);
      total("max_queue_depth", h.totals.max_queue_depth);
    }
    r.health = std::move(h);
  }

  if (const Json* registry = doc->get("registry");
      registry != nullptr && registry->is_array()) {
    for (const Json& item : registry->items()) {
      if (!item.is_object()) return fail("bad entry in \"registry\"");
      obs::MetricSnapshot m;
      const Json* name = item.get("name");
      const Json* kind = item.get("kind");
      if (name == nullptr || !name->is_string() || kind == nullptr ||
          !kind->is_string() ||
          !obs::parse_metric_kind(kind->as_string(), m.kind)) {
        return fail("bad entry in \"registry\"");
      }
      m.name = name->as_string();
      if (const Json* v = item.get("count");
          v != nullptr && v->is_number()) {
        m.count = static_cast<std::uint64_t>(v->as_number());
      }
      if (const Json* v = item.get("sum"); v != nullptr && v->is_number()) {
        m.sum = static_cast<std::uint64_t>(v->as_number());
      }
      if (const Json* v = item.get("value");
          v != nullptr && v->is_number()) {
        m.value = v->as_number();
      }
      if (m.kind == obs::MetricKind::counter) {
        m.value = static_cast<double>(m.count);
      }
      if (const Json* v = item.get("p50"); v != nullptr && v->is_number()) {
        m.p50 = v->as_number();
      }
      if (const Json* v = item.get("p95"); v != nullptr && v->is_number()) {
        m.p95 = v->as_number();
      }
      if (const Json* v = item.get("p99"); v != nullptr && v->is_number()) {
        m.p99 = v->as_number();
      }
      if (const Json* buckets = item.get("buckets");
          buckets != nullptr && buckets->is_array()) {
        for (const Json& pair : buckets->items()) {
          if (!pair.is_array() || pair.items().size() != 2 ||
              !pair.items()[0].is_number() || !pair.items()[1].is_number()) {
            return fail("bad histogram bucket in \"registry\"");
          }
          m.buckets.emplace_back(
              static_cast<std::uint32_t>(pair.items()[0].as_number()),
              static_cast<std::uint64_t>(pair.items()[1].as_number()));
        }
        if (m.kind == obs::MetricKind::histogram && m.count != 0) {
          m.value = static_cast<double>(m.sum) / static_cast<double>(m.count);
        }
      }
      r.metrics.push_back(std::move(m));
    }
  }

  if (const Json* stats = doc->get("stats");
      stats != nullptr && stats->is_object()) {
    const auto number = [&](const char* key, double& out) {
      if (const Json* v = stats->get(key); v != nullptr && v->is_number()) {
        out = v->as_number();
      }
    };
    number("queue_ms", r.stats.queue_ms);
    number("table_ms", r.stats.table_ms);
    number("run_ms", r.stats.run_ms);
    number("wall_ms", r.stats.wall_ms);
    if (const Json* v = stats->get("batch_size");
        v != nullptr && v->is_number()) {
      r.stats.batch_size = static_cast<std::size_t>(v->as_number());
    }
    if (const Json* v = stats->get("dispatch_seq");
        v != nullptr && v->is_number()) {
      r.stats.dispatch_seq = static_cast<std::uint64_t>(v->as_number());
    }
  }
  return r;
}

}  // namespace hynapse::serve
