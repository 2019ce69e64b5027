#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace hynapse::serve {
namespace {

TEST(ConfigSpec, ParsesAndRoundTrips) {
  const auto all6t = ConfigSpec::parse("all6t");
  ASSERT_TRUE(all6t.has_value());
  EXPECT_EQ(all6t->kind, ConfigSpec::Kind::all_6t);
  EXPECT_EQ(all6t->str(), "all6t");

  const auto hybrid = ConfigSpec::parse("hybrid3");
  ASSERT_TRUE(hybrid.has_value());
  EXPECT_EQ(hybrid->kind, ConfigSpec::Kind::uniform);
  EXPECT_EQ(hybrid->n_msb, 3);
  EXPECT_EQ(hybrid->str(), "hybrid3");

  const auto per = ConfigSpec::parse("perlayer:1,2,0,4");
  ASSERT_TRUE(per.has_value());
  EXPECT_EQ(per->kind, ConfigSpec::Kind::per_layer);
  EXPECT_EQ(per->msbs, (std::vector<int>{1, 2, 0, 4}));
  EXPECT_EQ(per->str(), "perlayer:1,2,0,4");
}

TEST(ConfigSpec, RejectsMalformedNames) {
  EXPECT_FALSE(ConfigSpec::parse("").has_value());
  EXPECT_FALSE(ConfigSpec::parse("6t").has_value());
  EXPECT_FALSE(ConfigSpec::parse("hybrid").has_value());
  EXPECT_FALSE(ConfigSpec::parse("hybrid-1").has_value());
  EXPECT_FALSE(ConfigSpec::parse("hybrid999").has_value());
  EXPECT_FALSE(ConfigSpec::parse("hybrid3x").has_value());
  EXPECT_FALSE(ConfigSpec::parse("perlayer:").has_value());
  EXPECT_FALSE(ConfigSpec::parse("perlayer:1,,2").has_value());
  EXPECT_FALSE(ConfigSpec::parse("perlayer:1,2,").has_value());
  EXPECT_FALSE(ConfigSpec::parse("perlayer:1,a").has_value());
}

TEST(ConfigSpec, MaterializesAgainstBankLayout) {
  const std::vector<std::size_t> words{100, 50};
  const auto hybrid = ConfigSpec::parse("hybrid2");
  const core::MemoryConfig cfg = hybrid->materialize(words);
  ASSERT_EQ(cfg.num_banks(), 2u);
  EXPECT_EQ(cfg.banks()[0].msbs_in_8t, 2);

  const auto per = ConfigSpec::parse("perlayer:1,2,3");
  EXPECT_THROW((void)per->materialize(words), std::invalid_argument);
}

TEST(ParseRequest, AcceptsEvaluateAndDefaults) {
  std::string error;
  const auto req = parse_request(
      R"({"op":"evaluate","config":"hybrid3","vdd":0.65})", &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, RequestKind::evaluate);
  ASSERT_EQ(req->configs.size(), 1u);
  EXPECT_EQ(req->configs[0].str(), "hybrid3");
  ASSERT_EQ(req->vdds.size(), 1u);
  EXPECT_DOUBLE_EQ(req->vdds[0], 0.65);
  EXPECT_EQ(req->priority, 0);
  EXPECT_EQ(req->chips, 0u);        // 0 = service default
  EXPECT_EQ(req->mc_samples, 0u);
  EXPECT_EQ(req->table_seed, 0u);
}

TEST(ParseRequest, AcceptsSweepGridAndOverrides) {
  std::string error;
  const auto req = parse_request(
      R"({"op":"sweep","configs":["all6t","hybrid2"],"vdds":[0.6,0.7,0.8],)"
      R"("chips":4,"eval_seed":9,"samples":2500,"table_seed":7,)"
      R"("priority":2})",
      &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, RequestKind::sweep);
  EXPECT_EQ(req->configs.size(), 2u);
  EXPECT_EQ(req->vdds.size(), 3u);
  EXPECT_EQ(req->chips, 4u);
  EXPECT_EQ(req->eval_seed, 9u);
  EXPECT_EQ(req->mc_samples, 2500u);
  EXPECT_EQ(req->table_seed, 7u);
  EXPECT_EQ(req->priority, 2);
}

TEST(ParseRequest, AcceptsTableInfoWithoutWorkload) {
  std::string error;
  const auto req =
      parse_request(R"({"op":"table_info","samples":1000})", &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, RequestKind::table_info);
  EXPECT_TRUE(req->configs.empty());
}

TEST(ParseRequest, AcceptsTableShard) {
  std::string error;
  const auto req = parse_request(
      R"({"op":"table_shard","shard":2,"shard_count":5,"samples":1500,)"
      R"("table_seed":7,"priority":1})",
      &error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, RequestKind::table_shard);
  EXPECT_EQ(req->shard, 2u);
  EXPECT_EQ(req->shard_count, 5u);
  EXPECT_EQ(req->mc_samples, 1500u);
  EXPECT_EQ(req->table_seed, 7u);
  EXPECT_EQ(req->priority, 1);
}

TEST(ParseRequest, RejectsMalformedTableShard) {
  const auto reject = [](const char* line) {
    std::string error;
    EXPECT_FALSE(parse_request(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  };
  reject(R"({"op":"table_shard","shard":0})");          // missing count
  reject(R"({"op":"table_shard","shard_count":0})");    // count must be >= 1
  reject(R"({"op":"table_shard","shard":3,"shard_count":3})");  // shard >= count
  reject(R"({"op":"table_shard","shard":-1,"shard_count":2})");
  reject(R"({"op":"table_shard","shard":0.5,"shard_count":2})");
  // shard keys are meaningless on other ops -- reject, don't ignore.
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"shard":0})");
  reject(R"({"op":"table_info","shard_count":2})");
}

TEST(ParseRequest, RejectsBadLinesWithReasons) {
  const auto reject = [](const char* line) {
    std::string error;
    const auto req = parse_request(line, &error);
    EXPECT_FALSE(req.has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
    return error;
  };
  reject("not json");
  reject("[1,2]");
  reject(R"({"config":"hybrid1","vdd":0.6})");             // missing op
  reject(R"({"op":"destroy","config":"all6t","vdd":1})");  // unknown op
  reject(R"({"op":"evaluate","vdd":0.6})");                // missing config
  reject(R"({"op":"evaluate","config":"all6t"})");         // missing vdd
  reject(R"({"op":"evaluate","config":"bogus","vdd":0.6})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":-0.5})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":-1})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":2.5})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":1e12})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"frobnicate":1})");
  // evaluate is strictly one point; grids must say "sweep".
  reject(R"({"op":"evaluate","configs":["all6t","hybrid1"],"vdd":0.6})");
  reject(R"({"op":"evaluate","config":"all6t","vdds":[0.6,0.7]})");
  // Out-of-range numbers are rejected before any narrowing cast (a double
  // >= 2^64 -> uint64 conversion would be undefined behavior, not clamping).
  reject(R"({"op":"table_info","table_seed":1e20})");
  reject(R"({"op":"table_info","table_seed":9007199254740994})");  // > 2^53
  reject(R"({"op":"table_info","samples":1.5})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"priority":1e300})");
  reject(R"({"op":"evaluate","config":"all6t","vdd":0.6,"priority":0.5})");
}

/// Request lines at the edges of the schema, each with the verdict and
/// ErrorCode it must keep (nullopt = accepted). Pinned against the
/// hand-written codec the field tables replaced.
struct VerdictCase {
  const char* line;
  std::optional<ErrorCode> code;
};

constexpr auto kBad = ErrorCode::bad_request;
constexpr auto kVersion = ErrorCode::unsupported_version;

const VerdictCase kRequestVerdicts[] = {
    // Document shape and the op.
    {"", kBad},
    {"not json", kBad},
    {"[1,2]", kBad},
    {"null", kBad},
    {R"({})", kBad},
    {R"({"op":7})", kBad},
    {R"({"op":"destroy"})", kBad},
    {R"({"op":"Evaluate","config":"all6t","vdd":0.6})", kBad},
    {R"({"v":2})", kBad},
    {R"({"v":2,"op":"destroy"})", kBad},
    {R"({"op":"table_info"})", std::nullopt},
    {R"({"op":"table_info","op":"stats"})", std::nullopt},
    // The version: only the number 1.
    {R"({"op":"table_info","v":1})", std::nullopt},
    {R"({"op":"table_info","v":1.0})", std::nullopt},
    {R"({"op":"table_info","v":2})", kVersion},
    {R"({"op":"table_info","v":0})", kVersion},
    {R"({"op":"table_info","v":"1"})", kVersion},
    {R"({"op":"table_info","v":true})", kVersion},
    {R"({"op":"table_info","v":null})", kVersion},
    // Errors are reported in document order.
    {R"({"op":"table_info","v":2,"frob":1})", kVersion},
    {R"({"op":"table_info","frob":1,"v":2})", kBad},
    {R"({"op":"evaluate","v":2,"shard":0})", kVersion},
    {R"({"op":"evaluate","shard":0,"v":2})", kBad},
    {R"({"op":"table_info","samples":-1,"v":2})", kBad},
    {R"({"op":"table_info","adaptive":{"z":0},"v":2})", kBad},
    {R"({"op":"table_info","v":2,"adaptive":{"z":0}})", kVersion},
    {R"({"op":"stats","v":2,"chips":3})", kVersion},
    {R"({"op":"stats","chips":3,"v":2})", kVersion},
    // evaluate / sweep shape.
    {R"({"op":"evaluate","config":"all6t","vdd":0.6})", std::nullopt},
    {R"({"op":"evaluate","configs":["all6t"],"vdds":[0.6]})", std::nullopt},
    {R"({"op":"evaluate","configs":"all6t","vdds":0.6})", std::nullopt},
    {R"({"op":"evaluate","config":["all6t"],"vdd":[0.6]})", std::nullopt},
    {R"({"op":"evaluate","configs":[],"config":"all6t","vdd":0.6})",
     std::nullopt},
    {R"({"op":"evaluate","config":"all6t","configs":["hybrid1"],"vdd":0.6})",
     kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":0.6,"vdds":[]})",
     std::nullopt},
    {R"({"op":"evaluate","config":"all6t"})", kBad},
    {R"({"op":"evaluate","vdd":0.6})", kBad},
    {R"({"op":"evaluate","configs":[],"vdds":[]})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":0})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":-0.0})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":"0.6"})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":[0.6,null]})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":1e300})", std::nullopt},
    {R"({"op":"evaluate","config":"all6t","vdd":1e999})", kBad},
    {R"({"op":"evaluate","config":5,"vdd":0.6})", kBad},
    {R"({"op":"evaluate","config":["all6t",5],"vdd":0.6})", kBad},
    {R"({"op":"evaluate","config":"hybrid65","vdd":0.6})", kBad},
    {R"({"op":"evaluate","config":"hybrid64","vdd":0.6})", std::nullopt},
    {R"({"op":"sweep","configs":["all6t","hybrid1"],"vdds":[0.6,0.7]})",
     std::nullopt},
    {R"({"op":"sweep","configs":["all6t"]})", kBad},
    {R"({"op":"table_info","config":"all6t","vdd":0.6})", std::nullopt},
    {R"({"op":"table_info","config":"bogus"})", kBad},
    // Unsigned integers: non-negative, integral, <= 2^53, per-key bound.
    {R"({"op":"table_info","samples":0})", std::nullopt},
    {R"({"op":"table_info","samples":-0.0})", std::nullopt},
    {R"({"op":"table_info","samples":-1})", kBad},
    {R"({"op":"table_info","samples":1.5})", kBad},
    {R"({"op":"table_info","samples":"5"})", kBad},
    {R"({"op":"table_info","samples":true})", kBad},
    {R"({"op":"table_info","samples":null})", kBad},
    {R"({"op":"table_info","table_seed":9007199254740992})", std::nullopt},
    {R"({"op":"table_info","table_seed":9007199254740994})", kBad},
    {R"({"op":"table_info","table_seed":1e20})", kBad},
    {R"({"op":"table_info","eval_seed":4e15})", std::nullopt},
    {R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":4096})",
     std::nullopt},
    {R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":4097})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":1e12})", kBad},
    {R"({"op":"evaluate","config":"all6t","vdd":0.6,"chips":-1})", kBad},
    // priority: an integer in [-1e6, 1e6].
    {R"({"op":"table_info","priority":-1000000})", std::nullopt},
    {R"({"op":"table_info","priority":1000000})", std::nullopt},
    {R"({"op":"table_info","priority":1000001})", kBad},
    {R"({"op":"table_info","priority":-1e300})", kBad},
    {R"({"op":"table_info","priority":0.5})", kBad},
    {R"({"op":"table_info","priority":"1"})", kBad},
    {R"({"op":"table_info","priority":false})", kBad},
    // Strings and deadline.
    {R"({"op":"table_info","tag":"","client":""})", std::nullopt},
    {R"({"op":"table_info","tag":7})", kBad},
    {R"({"op":"table_info","client":null})", kBad},
    {R"({"op":"table_info","deadline_ms":0.001})", std::nullopt},
    {R"({"op":"table_info","deadline_ms":0})", kBad},
    {R"({"op":"table_info","deadline_ms":-5})", kBad},
    {R"({"op":"table_info","deadline_ms":"5"})", kBad},
    // table_shard keys.
    {R"({"op":"table_shard","shard":0,"shard_count":1})", std::nullopt},
    {R"({"op":"table_shard","shard_count":1,"inline_rows":false})",
     std::nullopt},
    {R"({"op":"table_shard","shard_count":1,"inline_rows":1})", kBad},
    {R"({"op":"table_shard","shard":1,"shard_count":1})", kBad},
    {R"({"op":"table_shard","shard":0})", kBad},
    {R"({"op":"table_shard","shard_count":-1})", kBad},
    {R"({"op":"table_shard","shard_count":2,"config":"all6t","vdd":0.6})",
     std::nullopt},
    {R"({"op":"table_info","shard":0})", kBad},
    {R"({"op":"stats","shard_count":1})", kBad},
    {R"({"op":"sweep","configs":["all6t"],"vdds":[0.6],"inline_rows":true})",
     kBad},
    // stats: envelope only, but defaulted workload keys pass.
    {R"({"op":"stats"})", std::nullopt},
    {R"({"op":"stats","tag":"p","priority":3,"client":"c","deadline_ms":5})",
     std::nullopt},
    {R"({"op":"stats","chips":0,"samples":0,"eval_seed":0,"table_seed":0})",
     std::nullopt},
    {R"({"op":"stats","configs":[],"vdds":[]})", std::nullopt},
    {R"({"op":"stats","chips":1})", kBad},
    {R"({"op":"stats","table_seed":1})", kBad},
    {R"({"op":"stats","config":"all6t"})", kBad},
    {R"({"op":"stats","vdd":0.7})", kBad},
    {R"({"op":"stats","adaptive":{}})", kBad},
    // adaptive: an object of known keys with checked values.
    {R"({"op":"table_info","adaptive":{}})", std::nullopt},
    {R"({"op":"table_info","adaptive":null})", kBad},
    {R"({"op":"table_info","adaptive":[]})", kBad},
    {R"({"op":"table_info","adaptive":{"bogus":1}})", kBad},
    {R"({"op":"table_info","adaptive":{"v":2}})", kBad},
    {R"({"op":"table_info","adaptive":{"rel_target":0,"abs_target":0}})",
     std::nullopt},
    {R"({"op":"table_info","adaptive":{"rel_target":-0.1}})", kBad},
    {R"({"op":"table_info","adaptive":{"abs_target":"0"}})", kBad},
    {R"({"op":"table_info","adaptive":{"z":0}})", kBad},
    {R"({"op":"table_info","adaptive":{"z":1e-300}})", std::nullopt},
    {R"({"op":"table_info","adaptive":{"interval":"wilson"}})", std::nullopt},
    {R"({"op":"table_info","adaptive":{"interval":"clopper_pearson"}})",
     std::nullopt},
    {R"({"op":"table_info","adaptive":{"interval":"exact"}})", kBad},
    {R"({"op":"table_info","adaptive":{"interval":0}})", kBad},
    {R"({"op":"table_info","adaptive":{"batch_growth":1}})", std::nullopt},
    {R"({"op":"table_info","adaptive":{"batch_growth":0.999}})", kBad},
    {R"({"op":"table_info","adaptive":{"batch_samples":0}})", std::nullopt},
    {R"({"op":"table_info","adaptive":{"min_samples":-1}})", kBad},
    {R"({"op":"table_info","adaptive":{"max_samples":2.5}})", kBad},
    {R"({"op":"table_info","adaptive":{"max_is_samples":1e17}})", kBad},
    {R"({"op":"table_info",)"
     R"("adaptive":{"tail_escape_samples":9007199254740992}})",
     std::nullopt},
};

TEST(ParseRequest, MalformedLinesKeepTheirVerdicts) {
  for (const VerdictCase& c : kRequestVerdicts) {
    RequestError error;
    const std::optional<Request> req = parse_request(c.line, &error);
    EXPECT_EQ(req.has_value(), !c.code.has_value()) << c.line;
    if (c.code.has_value() && !req.has_value()) {
      EXPECT_EQ(error.code, *c.code) << c.line << " -> " << error.message;
      EXPECT_FALSE(error.message.empty()) << c.line;
    }
  }
}

TEST(FormatResponse, RendersDoneResponse) {
  Response r;
  r.id = 7;
  r.status = RequestStatus::done;
  r.table_fingerprint = 0xabc;
  PointResult point;
  point.config = "hybrid3";
  point.vdd = 0.65;
  point.accuracy.mean = 0.5;
  point.accuracy.stddev = 0.25;
  point.accuracy.per_chip = {0.25, 0.75};
  r.results.push_back(point);
  r.stats.table_source = engine::TableSource::memory;
  r.stats.coalesced = true;
  r.stats.batch_size = 3;
  r.stats.dispatch_seq = 2;

  const std::string line = format_response(r);
  EXPECT_NE(line.find("\"id\":7"), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(line.find("\"config\":\"hybrid3\""), std::string::npos);
  EXPECT_NE(line.find("\"mean\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"fingerprint\":\"0000000000000abc\""),
            std::string::npos);
  EXPECT_NE(line.find("\"source\":\"memory\""), std::string::npos);
  EXPECT_NE(line.find("\"coalesced\":true"), std::string::npos);
  EXPECT_NE(line.find("\"batch_size\":3"), std::string::npos);
  EXPECT_EQ(line.find("per_chip"), std::string::npos);  // off by default

  const std::string with_chips = format_response(r, /*per_chip=*/true);
  EXPECT_NE(with_chips.find("\"per_chip\":[0.25,0.75]"), std::string::npos);
}

TEST(FormatResponse, RendersTableShardResponse) {
  Response r;
  r.id = 9;
  r.status = RequestStatus::done;
  r.table_fingerprint = 0xabc;
  r.shard_index = 1;
  r.shard_count = 4;
  r.shard_fingerprint = 0xdef;
  r.table_csv = "/cache/failure_table_x_shard1of4.csv";
  r.table_rows = 2;
  r.stats.table_source = engine::TableSource::built;

  const std::string line = format_response(r);
  EXPECT_NE(line.find("\"shard\":{"), std::string::npos);
  EXPECT_NE(line.find("\"index\":1"), std::string::npos);
  EXPECT_NE(line.find("\"count\":4"), std::string::npos);
  EXPECT_NE(line.find("\"fingerprint\":\"0000000000000def\""),
            std::string::npos);
  EXPECT_NE(line.find("\"source\":\"built\""), std::string::npos);
  EXPECT_NE(line.find("\"rows\":2"), std::string::npos);

  // Non-shard responses never emit the shard block.
  Response plain;
  plain.id = 1;
  plain.status = RequestStatus::done;
  EXPECT_EQ(format_response(plain).find("\"shard\""), std::string::npos);
}

TEST(FormatResponse, RendersFailureAndPendingStates) {
  Response failed;
  failed.id = 1;
  failed.status = RequestStatus::failed;
  failed.error = "bad config";
  const std::string fline = format_response(failed);
  EXPECT_NE(fline.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(fline.find("\"error\":\"bad config\""), std::string::npos);

  Response queued;
  queued.id = 2;
  queued.status = RequestStatus::queued;
  const std::string qline = format_response(queued);
  EXPECT_NE(qline.find("\"status\":\"queued\""), std::string::npos);
  EXPECT_EQ(qline.find("stats"), std::string::npos);  // not dispatched yet
}

TEST(Protocol, VersionFieldIsOptionalButChecked) {
  // "v" omitted: accepted (v1 servers predate the field).
  std::string error;
  EXPECT_TRUE(parse_request(R"({"op":"table_info"})", &error).has_value());
  // Matching version: accepted.
  EXPECT_TRUE(
      parse_request(R"({"op":"table_info","v":1})", &error).has_value());
  // Mismatch: refused with the structured unsupported_version code.
  RequestError structured;
  EXPECT_FALSE(
      parse_request(R"({"op":"table_info","v":2})", &structured).has_value());
  EXPECT_EQ(structured.code, ErrorCode::unsupported_version);
  EXPECT_NE(structured.message.find("v1"), std::string::npos);

  // Responses always carry the version.
  Response r;
  r.id = 1;
  r.status = RequestStatus::queued;
  EXPECT_NE(format_response(r).find("\"v\":1"), std::string::npos);
  // ...and format_request stamps it too.
  Request info;
  info.kind = RequestKind::table_info;
  EXPECT_NE(format_request(info).find("\"v\":1"), std::string::npos);
}

TEST(Protocol, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::none, ErrorCode::bad_request, ErrorCode::queue_full,
        ErrorCode::shard_out_of_range, ErrorCode::shutting_down,
        ErrorCode::not_found, ErrorCode::unsupported_version,
        ErrorCode::internal}) {
    const auto parsed = parse_error_code(to_string(code));
    ASSERT_TRUE(parsed.has_value()) << to_string(code);
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(parse_error_code("made_up").has_value());
}

TEST(Protocol, StructuredParseErrorsCarryCodes) {
  RequestError error;
  EXPECT_FALSE(parse_request("not json", &error).has_value());
  EXPECT_EQ(error.code, ErrorCode::bad_request);
  // JSON syntax failures surface the position from serve::Json.
  EXPECT_NE(error.message.find("line 1"), std::string::npos) << error.message;

  error = {};
  EXPECT_FALSE(
      parse_request(R"({"op":"evaluate","vdd":0.6})", &error).has_value());
  EXPECT_EQ(error.code, ErrorCode::bad_request);
  EXPECT_NE(error.message.find("config"), std::string::npos);
}

TEST(Protocol, TagEchoesAndInlineRowsGate) {
  std::string error;
  const auto tagged = parse_request(
      R"({"op":"table_shard","shard":0,"shard_count":2,"tag":"shard-0",)"
      R"("inline_rows":true})",
      &error);
  ASSERT_TRUE(tagged.has_value()) << error;
  EXPECT_EQ(tagged->tag, "shard-0");
  EXPECT_TRUE(tagged->inline_rows);

  // inline_rows is shard-only; tag must be a string.
  EXPECT_FALSE(parse_request(
                   R"({"op":"table_info","inline_rows":true})", &error)
                   .has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"table_info","tag":7})", &error).has_value());

  // Responses echo the tag and the code.
  Response r;
  r.id = 3;
  r.status = RequestStatus::failed;
  r.code = ErrorCode::queue_full;
  r.tag = "shard-0";
  const std::string line = format_response(r);
  EXPECT_NE(line.find("\"code\":\"queue_full\""), std::string::npos);
  EXPECT_NE(line.find("\"tag\":\"shard-0\""), std::string::npos);
}

TEST(Protocol, RequestFormatParseRoundTrip) {
  Request shard;
  shard.kind = RequestKind::table_shard;
  shard.shard = 1;
  shard.shard_count = 4;
  shard.mc_samples = 800;
  shard.table_seed = 42;
  shard.inline_rows = true;
  shard.tag = "shard-1";
  std::string error;
  const auto parsed = parse_request(format_request(shard), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->kind, RequestKind::table_shard);
  EXPECT_EQ(parsed->shard, 1u);
  EXPECT_EQ(parsed->shard_count, 4u);
  EXPECT_EQ(parsed->mc_samples, 800u);
  EXPECT_EQ(parsed->table_seed, 42u);
  EXPECT_TRUE(parsed->inline_rows);
  EXPECT_EQ(parsed->tag, "shard-1");

  Request sweep;
  sweep.kind = RequestKind::sweep;
  sweep.configs = {*ConfigSpec::parse("all6t"), *ConfigSpec::parse("hybrid2")};
  sweep.vdds = {0.6, 0.7};
  sweep.chips = 2;
  const auto parsed_sweep = parse_request(format_request(sweep), &error);
  ASSERT_TRUE(parsed_sweep.has_value()) << error;
  ASSERT_EQ(parsed_sweep->configs.size(), 2u);
  EXPECT_EQ(parsed_sweep->configs[1].str(), "hybrid2");
  EXPECT_EQ(parsed_sweep->vdds, (std::vector<double>{0.6, 0.7}));
  EXPECT_EQ(parsed_sweep->chips, 2u);
}

TEST(Protocol, ResponseFormatParseRoundTripWithShardRows) {
  Response r;
  r.id = 11;
  r.status = RequestStatus::done;
  r.tag = "shard-0";
  r.table_fingerprint = 0xabc;
  r.shard_index = 0;
  r.shard_count = 2;
  r.shard_fingerprint = 0xdef;
  r.stats.table_source = engine::TableSource::built;
  mc::FailureTableRow row;
  row.vdd = 0.6500000000000004;  // exercises %.17g exactness
  row.cell6 = {0.012345678901234567, 3.3e-7, 0.0};
  row.cell8 = {1.0e-9, 0.0, 5.5e-4};
  r.shard_rows = {row};

  std::string error;
  const auto parsed = parse_response(format_response(r), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->id, 11u);
  EXPECT_EQ(parsed->status, RequestStatus::done);
  EXPECT_EQ(parsed->tag, "shard-0");
  EXPECT_EQ(parsed->shard_index, 0u);
  EXPECT_EQ(parsed->shard_count, 2u);
  EXPECT_EQ(parsed->shard_fingerprint, 0xdefu);
  ASSERT_EQ(parsed->shard_rows.size(), 1u);
  // Bit-exact round trip: the fleet's correctness depends on it.
  EXPECT_EQ(parsed->shard_rows[0].vdd, row.vdd);
  EXPECT_EQ(parsed->shard_rows[0].cell6.read_access, row.cell6.read_access);
  EXPECT_EQ(parsed->shard_rows[0].cell6.write_fail, row.cell6.write_fail);
  EXPECT_EQ(parsed->shard_rows[0].cell8.read_disturb, row.cell8.read_disturb);

  // Failure responses round-trip status/code/error.
  Response failed;
  failed.id = 12;
  failed.status = RequestStatus::failed;
  failed.code = ErrorCode::shard_out_of_range;
  failed.error = "shard 9 out of range";
  const auto parsed_failed = parse_response(format_response(failed), &error);
  ASSERT_TRUE(parsed_failed.has_value()) << error;
  EXPECT_EQ(parsed_failed->code, ErrorCode::shard_out_of_range);
  EXPECT_EQ(parsed_failed->error, "shard 9 out of range");

  // Garbage and schema violations report, not crash.
  EXPECT_FALSE(parse_response("nope", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_response(R"({"status":"done"})", &error).has_value());
  EXPECT_FALSE(
      parse_response(R"({"id":1,"status":"sideways"})", &error).has_value());
}

TEST(ParseRequest, AcceptsStatsAndRejectsWorkloadFields) {
  std::string error;
  const auto parsed = parse_request(R"({"op":"stats","tag":"probe"})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->kind, RequestKind::stats);
  EXPECT_EQ(parsed->tag, "probe");

  // A scrape carries no workload: any evaluate-shaped field is a schema
  // error, not silently ignored.
  RequestError why;
  EXPECT_FALSE(
      parse_request(R"({"op":"stats","config":"all6t"})", &why).has_value());
  EXPECT_EQ(why.code, ErrorCode::bad_request);
  EXPECT_FALSE(
      parse_request(R"({"op":"stats","vdd":0.7})", &why).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"stats","chips":3})", &why).has_value());

  // Round trip through the formatter.
  const auto again = parse_request(format_request(*parsed), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->kind, RequestKind::stats);
  EXPECT_EQ(again->tag, "probe");
}

TEST(Protocol, StatsResponseRoundTripsHealthAndRegistry) {
  Response r;
  r.id = 21;
  r.status = RequestStatus::done;
  r.tag = "probe";

  HealthSummary h;
  h.uptime_s = 12.5;
  h.queue_depth = 3;
  h.queue_capacity = 64;
  h.dispatchers = 2;
  h.threads = 4;
  h.backend = "simd";
  h.max_batch = 16;
  h.cache_dir = "/srv/hynapse/cache";
  h.cache_tables = 2;
  h.cache_bytes = 4096;
  h.totals.submitted = 10;
  h.totals.completed = 9;
  h.totals.failed = 1;
  h.totals.batches = 5;
  h.totals.coalesced_requests = 2;
  h.totals.table_builds = 3;
  h.totals.shard_builds = 4;
  h.totals.max_queue_depth = 7;
  r.health = h;

  obs::MetricSnapshot counter;
  counter.name = "serve.requests_submitted";
  counter.kind = obs::MetricKind::counter;
  counter.count = 10;
  counter.value = 10.0;
  obs::MetricSnapshot gauge;
  gauge.name = "serve.queue_depth";
  gauge.kind = obs::MetricKind::gauge;
  gauge.value = 3.0;
  obs::MetricSnapshot histogram;
  histogram.name = "serve.request.wall_us";
  histogram.kind = obs::MetricKind::histogram;
  histogram.count = 9;
  histogram.sum = 4500;
  histogram.p50 = 400.0;
  histogram.p95 = 900.0;
  histogram.p99 = 1000.0;
  histogram.buckets = {{9, 5}, {10, 4}};
  r.metrics = {counter, gauge, histogram};

  std::string error;
  const auto parsed = parse_response(format_response(r), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->health.has_value());
  const HealthSummary& ph = *parsed->health;
  EXPECT_DOUBLE_EQ(ph.uptime_s, 12.5);
  EXPECT_EQ(ph.queue_depth, 3u);
  EXPECT_EQ(ph.queue_capacity, 64u);
  EXPECT_EQ(ph.dispatchers, 2u);
  EXPECT_EQ(ph.threads, 4u);
  EXPECT_EQ(ph.backend, "simd");
  EXPECT_EQ(ph.max_batch, 16u);
  EXPECT_EQ(ph.cache_dir, "/srv/hynapse/cache");
  EXPECT_EQ(ph.cache_tables, 2u);
  EXPECT_EQ(ph.cache_bytes, 4096u);
  EXPECT_EQ(ph.totals.submitted, 10u);
  EXPECT_EQ(ph.totals.completed, 9u);
  EXPECT_EQ(ph.totals.failed, 1u);
  EXPECT_EQ(ph.totals.batches, 5u);
  EXPECT_EQ(ph.totals.coalesced_requests, 2u);
  EXPECT_EQ(ph.totals.table_builds, 3u);
  EXPECT_EQ(ph.totals.shard_builds, 4u);
  EXPECT_EQ(ph.totals.max_queue_depth, 7u);

  ASSERT_EQ(parsed->metrics.size(), 3u);
  const obs::MetricSnapshot& pc = parsed->metrics[0];
  EXPECT_EQ(pc.name, "serve.requests_submitted");
  EXPECT_EQ(pc.kind, obs::MetricKind::counter);
  EXPECT_EQ(pc.count, 10u);
  const obs::MetricSnapshot& pg = parsed->metrics[1];
  EXPECT_EQ(pg.kind, obs::MetricKind::gauge);
  EXPECT_DOUBLE_EQ(pg.value, 3.0);
  const obs::MetricSnapshot& phist = parsed->metrics[2];
  EXPECT_EQ(phist.kind, obs::MetricKind::histogram);
  EXPECT_EQ(phist.count, 9u);
  EXPECT_EQ(phist.sum, 4500u);
  EXPECT_DOUBLE_EQ(phist.p50, 400.0);
  EXPECT_DOUBLE_EQ(phist.p95, 900.0);
  EXPECT_DOUBLE_EQ(phist.p99, 1000.0);
  ASSERT_EQ(phist.buckets.size(), 2u);
  EXPECT_EQ(phist.buckets[0], (std::pair<std::uint32_t, std::uint64_t>{9, 5}));
  EXPECT_EQ(phist.buckets[1],
            (std::pair<std::uint32_t, std::uint64_t>{10, 4}));

  // A malformed registry entry is a parse failure, not a silent skip.
  EXPECT_FALSE(parse_response(
                   R"({"id":1,"status":"done","registry":[{"kind":"counter"}]})",
                   &error)
                   .has_value());
  EXPECT_FALSE(parse_response(
                   R"({"id":1,"status":"done",)"
                   R"("registry":[{"name":"x","kind":"sideways"}]})",
                   &error)
                   .has_value());
}

TEST(Protocol, AdaptivePolicyRoundTrips) {
  // The full policy must survive format -> parse bit-exactly: every worker
  // folds it into the table fingerprint, so a lossy wire trip would split
  // the fleet's provenance.
  Request req;
  req.kind = RequestKind::table_shard;
  req.shard = 0;
  req.shard_count = 2;
  mc::AdaptivePolicy policy;
  policy.enabled = true;
  policy.rel_target = 0.07;
  policy.abs_target = 1e-6;
  policy.z = 2.5758293035489004;
  policy.interval = mc::IntervalKind::clopper_pearson;
  policy.batch_samples = 1500;
  policy.batch_growth = 1.5;
  policy.min_samples = 3000;
  policy.max_samples = 90000;
  policy.tail_escape_samples = 5000;
  policy.max_is_samples = 12000;
  req.adaptive = policy;

  std::string error;
  const auto parsed = parse_request(format_request(req), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->adaptive.has_value());
  const mc::AdaptivePolicy& p = *parsed->adaptive;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.rel_target, policy.rel_target);
  EXPECT_EQ(p.abs_target, policy.abs_target);
  EXPECT_EQ(p.z, policy.z);
  EXPECT_EQ(p.interval, mc::IntervalKind::clopper_pearson);
  EXPECT_EQ(p.batch_samples, policy.batch_samples);
  EXPECT_EQ(p.batch_growth, policy.batch_growth);
  EXPECT_EQ(p.min_samples, policy.min_samples);
  EXPECT_EQ(p.max_samples, policy.max_samples);
  EXPECT_EQ(p.tail_escape_samples, policy.tail_escape_samples);
  EXPECT_EQ(p.max_is_samples, policy.max_is_samples);
}

TEST(ParseRequest, AdaptiveObjectValidation) {
  std::string error;
  // Partial objects take the remaining defaults.
  const auto minimal = parse_request(
      R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
      R"("adaptive":{"rel_target":0.1}})",
      &error);
  ASSERT_TRUE(minimal.has_value()) << error;
  ASSERT_TRUE(minimal->adaptive.has_value());
  EXPECT_TRUE(minimal->adaptive->enabled);
  EXPECT_DOUBLE_EQ(minimal->adaptive->rel_target, 0.1);
  EXPECT_EQ(minimal->adaptive->interval, mc::IntervalKind::wilson);

  // Unknown keys, bad interval names and bad values are schema errors.
  RequestError why;
  EXPECT_FALSE(parse_request(R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
                             R"("adaptive":{"bogus":1}})",
                             &why)
                   .has_value());
  EXPECT_EQ(why.code, ErrorCode::bad_request);
  EXPECT_FALSE(parse_request(R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
                             R"("adaptive":{"interval":"exact"}})",
                             &why)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
                             R"("adaptive":{"rel_target":-0.5}})",
                             &why)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
                             R"("adaptive":{"z":0}})",
                             &why)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"evaluate","config":"all6t","vdd":0.7,)"
                             R"("adaptive":{"batch_growth":0.5}})",
                             &why)
                   .has_value());

  // A stats scrape carries no workload: adaptive is rejected there too.
  EXPECT_FALSE(parse_request(R"({"op":"stats","adaptive":{}})", &why)
                   .has_value());
  EXPECT_EQ(why.code, ErrorCode::bad_request);
}

TEST(Protocol, ShardSamplingMetadataRoundTrips) {
  Response r;
  r.id = 31;
  r.status = RequestStatus::done;
  r.shard_index = 1;
  r.shard_count = 2;
  r.shard_fingerprint = 0x123;
  r.shard_samples = 48000.0;
  r.shard_ci_half_width = 0.0125;
  mc::FailureTableRow row;
  row.vdd = 0.7;
  row.cell6 = {0.001, 2e-5, 0.0};
  row.cell8 = {1e-8, 0.0, 0.0};
  row.samples = 24000.0;
  row.ci_half_width = 0.0125;
  r.shard_rows = {row};

  std::string error;
  const auto parsed = parse_response(format_response(r), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_DOUBLE_EQ(parsed->shard_samples, 48000.0);
  EXPECT_DOUBLE_EQ(parsed->shard_ci_half_width, 0.0125);
  ASSERT_EQ(parsed->shard_rows.size(), 1u);
  EXPECT_EQ(parsed->shard_rows[0].samples, row.samples);
  EXPECT_EQ(parsed->shard_rows[0].ci_half_width, row.ci_half_width);
}

/// Response lines the parser must refuse: every integer field out of its
/// range (each used to reach an unchecked cast), plus schema violations.
const char* const kMalformedResponses[] = {
    "nope",
    "[1]",
    R"({"status":"done"})",
    R"({"id":1})",
    R"({"id":-1,"status":"done"})",
    R"({"id":1.5,"status":"done"})",
    R"({"id":1e300,"status":"done"})",
    R"({"id":9007199254740994,"status":"done"})",
    R"({"id":"1","status":"done"})",
    R"({"id":1,"status":"sideways"})",
    R"({"id":1,"status":"done","v":2})",
    R"({"id":1,"status":"failed","code":"made_up"})",
    R"({"id":1,"status":"failed","error":7})",
    R"({"id":1,"status":"done","results":[{"config":"all6t","vdd":0.6}]})",
    R"({"id":1,"status":"done","results":[{"config":"all6t","vdd":0.6,)"
    R"("mean":1,"stddev":0,"chips":-1}]})",
    R"({"id":1,"status":"done","results":[{"config":"all6t","vdd":0.6,)"
    R"("mean":1,"stddev":0,"per_chip":[1,"x"]}]})",
    R"({"id":1,"status":"done","table":{"rows":1}})",
    R"({"id":1,"status":"done","table":{"fingerprint":"xyz"}})",
    R"({"id":1,"status":"done","table":{"fingerprint":"12345678901234567"}})",
    R"({"id":1,"status":"done","table":{"fingerprint":"ab","rows":-1}})",
    R"({"id":1,"status":"done","table":{"fingerprint":"ab","source":"tape"}})",
    R"({"id":1,"status":"done","table":"ab"})",
    R"({"id":1,"status":"done","shard":{"index":-1,"count":2,)"
    R"("fingerprint":"1"}})",
    R"({"id":1,"status":"done","shard":{"index":0,"count":1e20,)"
    R"("fingerprint":"1"}})",
    R"({"id":1,"status":"done","shard":{"index":0,"count":1}})",
    R"({"id":1,"status":"done","shard":{"index":0,"count":1,)"
    R"("fingerprint":"1","rows_data":[[1,2,3]]}})",
    // A 7-number row: the wire row is exactly mc::columns(), 9 numbers.
    R"({"id":1,"status":"done","shard":{"index":0,"count":1,)"
    R"("fingerprint":"1","rows_data":[[0.7,0.001,2e-05,0,1e-08,0,0]]}})",
    R"({"id":1,"status":"done","health":{"queue_depth":-1}})",
    R"({"id":1,"status":"done","health":{"threads":0.5}})",
    R"({"id":1,"status":"done","health":{"cache_bytes":1e300}})",
    R"({"id":1,"status":"done","health":{"totals":{"submitted":-1}}})",
    R"({"id":1,"status":"done","health":{"totals":{"shard_replays":1e19}}})",
    R"({"id":1,"status":"done","registry":[{"kind":"counter"}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"sideways"}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"counter",)"
    R"("count":-1}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"histogram",)"
    R"("sum":2e19}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"histogram",)"
    R"("buckets":[[-1,2]]}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"histogram",)"
    R"("buckets":[[4294967296,2]]}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"histogram",)"
    R"("buckets":[[1,-2]]}]})",
    R"({"id":1,"status":"done","registry":[{"name":"x","kind":"histogram",)"
    R"("buckets":[[1,2,3]]}]})",
    R"({"id":1,"status":"done","stats":{"batch_size":-1}})",
    R"({"id":1,"status":"done","stats":{"dispatch_seq":1e20}})",
};

TEST(ParseResponse, RejectsOutOfRangeAndMalformedLines) {
  for (const char* line : kMalformedResponses) {
    std::string error;
    EXPECT_FALSE(parse_response(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // Unknown keys are tolerated at every level: a newer server may annotate.
  std::string error;
  const auto annotated = parse_response(
      R"({"id":9007199254740992,"status":"done","node":"a",)"
      R"("table":{"fingerprint":"ab","shards":3},"stats":{"cpu_ms":1}})",
      &error);
  ASSERT_TRUE(annotated.has_value()) << error;
  EXPECT_EQ(annotated->id, 9007199254740992u);
  EXPECT_EQ(annotated->table_fingerprint, 0xabu);
}

TEST(ParseResponse, AcceptsHealthWithRetiredFuseChips) {
  // A stats line from a server whose health still reported the retired
  // fused-evaluation group size (registry cut to three entries). Older
  // servers keep sending the key; the parser must skip it, and re-rendering
  // must drop exactly that key and nothing else.
  const std::string line =
      R"({"v":1,"id":1,"status":"done","tag":"probe","health":{)"
      R"("uptime_s":0.00024485400000000002,"queue_depth":0,)"
      R"("queue_capacity":256,"dispatchers":2,"threads":0,)"
      R"("backend":"reference","fuse_chips":8,"max_batch":32,)"
      R"("cache_dir":".hynapse_cache","cache_tables":0,"cache_bytes":0,)"
      R"("totals":{"submitted":1,"completed":0,"failed":0,"cancelled":0,)"
      R"("rejected":0,"quota_rejected":0,"deadline_expired":0,"batches":1,)"
      R"("coalesced_requests":0,"table_builds":0,"table_memory_hits":0,)"
      R"("table_disk_hits":0,"shard_builds":0,"shard_replays":0,)"
      R"("max_queue_depth":1}},"registry":[)"
      R"({"name":"pool.lock_acquisitions","kind":"counter","count":3},)"
      R"({"name":"pool.workers","kind":"gauge","value":3},)"
      R"({"name":"serve.request.wall_us","kind":"histogram","count":0,)"
      R"("sum":0,"p50":0,"p95":0,"p99":0,"buckets":[]}],)"
      R"("stats":{"queue_ms":0.030242000000000002,"table_ms":0,"run_ms":0,)"
      R"("wall_ms":0.130385,"batch_size":1,"dispatch_seq":1}})";
  std::string error;
  const auto parsed = parse_response(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::string expected = line;
  const std::string retired = R"("fuse_chips":8,)";
  const std::size_t at = expected.find(retired);
  ASSERT_NE(at, std::string::npos);
  expected.erase(at, retired.size());
  EXPECT_EQ(format_response(*parsed), expected);
}

// --- Codec property test: format -> parse reproduces every field. ---------

/// Draws wire values: integers <= 2^53, any finite double, any byte string.
class WireGen {
 public:
  explicit WireGen(std::uint64_t seed) : rng_{seed} {}

  bool coin() { return (rng_.next_u64() & 1) != 0; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_index(n));
  }
  /// Small values most of the time, the full [1, 2^53] range otherwise.
  std::uint64_t count() {
    return coin() ? 1 + rng_.uniform_index(1000)
                  : 1 + rng_.uniform_index(std::uint64_t{1} << 53);
  }
  /// Zero (the "absent" value) or a count.
  std::uint64_t maybe_count() { return coin() ? 0 : count(); }
  /// Any finite double, from its bit pattern.
  double real() {
    for (;;) {
      const double d = std::bit_cast<double>(rng_.next_u64());
      if (std::isfinite(d)) return d;
    }
  }
  double positive() {
    const double d = std::abs(real());
    return d > 0.0 ? d : 1.0;
  }
  std::string text() {
    std::string s(below(12), '\0');
    for (char& c : s) c = static_cast<char>(rng_.uniform_index(256));
    return s;
  }
  std::uint64_t bits() { return rng_.next_u64(); }

 private:
  util::Rng rng_;
};

ConfigSpec random_config(WireGen& g) {
  ConfigSpec spec;
  switch (g.below(3)) {
    case 0:
      break;
    case 1:
      spec.kind = ConfigSpec::Kind::uniform;
      spec.n_msb = static_cast<int>(g.below(65));
      break;
    default:
      spec.kind = ConfigSpec::Kind::per_layer;
      spec.msbs.resize(1 + g.below(4));
      for (int& n : spec.msbs) n = static_cast<int>(g.below(65));
  }
  return spec;
}

mc::AdaptivePolicy random_policy(WireGen& g) {
  mc::AdaptivePolicy p;
  p.enabled = true;  // presence on the wire enables the policy
  p.rel_target = std::abs(g.real());
  p.abs_target = std::abs(g.real());
  p.z = g.positive();
  p.interval =
      g.coin() ? mc::IntervalKind::wilson : mc::IntervalKind::clopper_pearson;
  p.batch_samples = g.maybe_count();
  p.batch_growth = 1.0 + std::abs(g.real());
  if (!std::isfinite(p.batch_growth)) p.batch_growth = 1.0;
  p.min_samples = g.maybe_count();
  p.max_samples = g.maybe_count();
  p.tail_escape_samples = g.maybe_count();
  p.max_is_samples = g.maybe_count();
  return p;
}

/// A request holding only what its op puts on the wire.
Request random_request(WireGen& g) {
  Request r;
  r.kind = static_cast<RequestKind>(g.below(5));
  if (g.coin()) r.priority = static_cast<int>(g.below(2000001)) - 1000000;
  if (g.coin()) r.tag = g.text();
  if (g.coin()) r.client = g.text();
  if (g.coin()) r.deadline_ms = g.positive();
  if (r.kind == RequestKind::stats) return r;
  if (r.kind == RequestKind::evaluate || r.kind == RequestKind::sweep) {
    const bool grid = r.kind == RequestKind::sweep;
    r.configs.resize(grid ? 1 + g.below(3) : 1);
    for (ConfigSpec& spec : r.configs) spec = random_config(g);
    r.vdds.resize(grid ? 1 + g.below(3) : 1);
    for (double& v : r.vdds) v = g.positive();
  }
  if (r.kind == RequestKind::table_shard) {
    r.shard_count = g.count();
    r.shard = g.below(r.shard_count < 1000 ? r.shard_count : 1000);
    r.inline_rows = g.coin();
  }
  if (g.coin()) r.chips = 1 + g.below(kMaxChipsPerRequest);
  r.eval_seed = g.maybe_count();
  r.mc_samples = g.maybe_count();
  r.table_seed = g.maybe_count();
  if (g.coin()) r.adaptive = random_policy(g);
  return r;
}

/// A response holding only what its status and blocks put on the wire.
Response random_response(WireGen& g) {
  Response r;
  r.id = g.count();
  r.status = static_cast<RequestStatus>(g.below(7));
  const bool done = r.status == RequestStatus::done;
  if (g.coin()) r.error = g.text();
  r.code = static_cast<ErrorCode>(g.below(10));
  if (g.coin()) r.tag = g.text();
  if (g.coin()) r.retry_after_ms = g.positive();
  r.results.resize(g.below(3));
  for (PointResult& p : r.results) {
    p.config = g.text();
    p.vdd = g.real();
    p.accuracy.mean = g.real();
    p.accuracy.stddev = g.real();
    p.accuracy.per_chip.resize(g.below(4));
    for (double& a : p.accuracy.per_chip) a = g.real();
  }
  bool sourced = false;
  if (g.coin()) {
    r.table_fingerprint = g.bits() | 1;
    if (g.coin()) r.table_csv = g.text();
    r.table_rows = g.maybe_count();
    r.table_in_memory = g.coin();
    if (done && !r.results.empty()) {
      sourced = true;
      r.stats.coalesced = g.coin();
    }
  }
  if (g.coin()) {
    r.shard_count = g.count();
    r.shard_index = g.maybe_count();
    r.shard_fingerprint = g.bits();
    if (g.coin()) {
      r.shard_samples = g.positive();
      r.shard_ci_half_width = g.real();
    }
    r.shard_rows.resize(g.below(3));
    for (mc::FailureTableRow& row : r.shard_rows) {
      for (double* v :
           {&row.vdd, &row.cell6.read_access, &row.cell6.write_fail,
            &row.cell6.read_disturb, &row.cell8.read_access,
            &row.cell8.write_fail, &row.cell8.read_disturb, &row.samples,
            &row.ci_half_width}) {
        *v = g.real();
      }
    }
    sourced = sourced || done;
  }
  if (sourced) {
    r.stats.table_source = static_cast<engine::TableSource>(g.below(3));
  }
  if (g.coin()) {
    HealthSummary h;
    h.uptime_s = g.real();
    h.queue_depth = g.maybe_count();
    h.queue_capacity = g.maybe_count();
    h.dispatchers = g.maybe_count();
    h.threads = g.maybe_count();
    h.backend = g.text();
    h.max_batch = g.maybe_count();
    h.cache_dir = g.text();
    h.cache_tables = g.maybe_count();
    h.cache_bytes = g.maybe_count();
    for (std::uint64_t* t :
         {&h.totals.submitted, &h.totals.completed, &h.totals.failed,
          &h.totals.cancelled, &h.totals.rejected, &h.totals.quota_rejected,
          &h.totals.deadline_expired, &h.totals.batches,
          &h.totals.coalesced_requests, &h.totals.table_builds,
          &h.totals.table_memory_hits, &h.totals.table_disk_hits,
          &h.totals.shard_builds, &h.totals.shard_replays,
          &h.totals.max_queue_depth}) {
      *t = g.maybe_count();
    }
    r.health = h;
  }
  r.metrics.resize(g.below(4));
  for (obs::MetricSnapshot& m : r.metrics) {
    m.name = g.text();
    m.kind = static_cast<obs::MetricKind>(g.below(3));
    switch (m.kind) {
      case obs::MetricKind::counter:
        m.count = g.maybe_count();
        m.value = static_cast<double>(m.count);
        break;
      case obs::MetricKind::gauge:
        m.value = g.real();
        break;
      case obs::MetricKind::histogram:
        m.count = g.maybe_count();
        m.sum = g.maybe_count();
        m.value = m.count == 0 ? 0.0
                               : static_cast<double>(m.sum) /
                                     static_cast<double>(m.count);
        m.p50 = g.real();
        m.p95 = g.real();
        m.p99 = g.real();
        m.buckets.resize(g.below(4));
        for (auto& [idx, n] : m.buckets) {
          idx = static_cast<std::uint32_t>(g.bits());
          n = g.maybe_count();
        }
        break;
    }
  }
  if (done || r.status == RequestStatus::failed) {
    r.stats.queue_ms = g.real();
    r.stats.table_ms = g.real();
    r.stats.run_ms = g.real();
    r.stats.wall_ms = g.real();
    r.stats.batch_size = g.maybe_count();
    r.stats.dispatch_seq = g.maybe_count();
  }
  return r;
}

/// Bitwise double equality (distinguishes -0.0 from 0.0).
void expect_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_same(const Request& got, const Request& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.priority, want.priority);
  ASSERT_EQ(got.configs.size(), want.configs.size());
  for (std::size_t i = 0; i < want.configs.size(); ++i) {
    EXPECT_EQ(got.configs[i].str(), want.configs[i].str());
  }
  ASSERT_EQ(got.vdds.size(), want.vdds.size());
  for (std::size_t i = 0; i < want.vdds.size(); ++i) {
    expect_bits(got.vdds[i], want.vdds[i], "vdd");
  }
  EXPECT_EQ(got.chips, want.chips);
  EXPECT_EQ(got.eval_seed, want.eval_seed);
  EXPECT_EQ(got.mc_samples, want.mc_samples);
  EXPECT_EQ(got.table_seed, want.table_seed);
  EXPECT_EQ(got.shard, want.shard);
  EXPECT_EQ(got.shard_count, want.shard_count);
  EXPECT_EQ(got.inline_rows, want.inline_rows);
  ASSERT_EQ(got.adaptive.has_value(), want.adaptive.has_value());
  if (want.adaptive) {
    const mc::AdaptivePolicy& a = *got.adaptive;
    const mc::AdaptivePolicy& b = *want.adaptive;
    EXPECT_EQ(a.enabled, b.enabled);
    expect_bits(a.rel_target, b.rel_target, "rel_target");
    expect_bits(a.abs_target, b.abs_target, "abs_target");
    expect_bits(a.z, b.z, "z");
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.batch_samples, b.batch_samples);
    expect_bits(a.batch_growth, b.batch_growth, "batch_growth");
    EXPECT_EQ(a.min_samples, b.min_samples);
    EXPECT_EQ(a.max_samples, b.max_samples);
    EXPECT_EQ(a.tail_escape_samples, b.tail_escape_samples);
    EXPECT_EQ(a.max_is_samples, b.max_is_samples);
  }
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.client, want.client);
  expect_bits(got.deadline_ms, want.deadline_ms, "deadline_ms");
}

void expect_same(const Response& got, const Response& want, bool per_chip) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.tag, want.tag);
  expect_bits(got.retry_after_ms, want.retry_after_ms, "retry_after_ms");
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t i = 0; i < want.results.size(); ++i) {
    const PointResult& a = got.results[i];
    const PointResult& b = want.results[i];
    EXPECT_EQ(a.config, b.config);
    expect_bits(a.vdd, b.vdd, "vdd");
    expect_bits(a.accuracy.mean, b.accuracy.mean, "mean");
    expect_bits(a.accuracy.stddev, b.accuracy.stddev, "stddev");
    const std::vector<double> chips =
        per_chip ? b.accuracy.per_chip : std::vector<double>{};
    ASSERT_EQ(a.accuracy.per_chip.size(), chips.size());
    for (std::size_t c = 0; c < chips.size(); ++c) {
      expect_bits(a.accuracy.per_chip[c], chips[c], "per_chip");
    }
  }
  EXPECT_EQ(got.table_fingerprint, want.table_fingerprint);
  EXPECT_EQ(got.table_csv, want.table_csv);
  EXPECT_EQ(got.table_rows, want.table_rows);
  EXPECT_EQ(got.table_in_memory, want.table_in_memory);
  EXPECT_EQ(got.shard_index, want.shard_index);
  EXPECT_EQ(got.shard_count, want.shard_count);
  EXPECT_EQ(got.shard_fingerprint, want.shard_fingerprint);
  expect_bits(got.shard_samples, want.shard_samples, "shard_samples");
  expect_bits(got.shard_ci_half_width, want.shard_ci_half_width,
              "shard_ci_half_width");
  ASSERT_EQ(got.shard_rows.size(), want.shard_rows.size());
  for (std::size_t i = 0; i < want.shard_rows.size(); ++i) {
    const mc::FailureTableRow& a = got.shard_rows[i];
    const mc::FailureTableRow& b = want.shard_rows[i];
    expect_bits(a.vdd, b.vdd, "row.vdd");
    expect_bits(a.cell6.read_access, b.cell6.read_access, "row.ra6");
    expect_bits(a.cell6.write_fail, b.cell6.write_fail, "row.wf6");
    expect_bits(a.cell6.read_disturb, b.cell6.read_disturb, "row.rd6");
    expect_bits(a.cell8.read_access, b.cell8.read_access, "row.ra8");
    expect_bits(a.cell8.write_fail, b.cell8.write_fail, "row.wf8");
    expect_bits(a.cell8.read_disturb, b.cell8.read_disturb, "row.rd8");
    expect_bits(a.samples, b.samples, "row.samples");
    expect_bits(a.ci_half_width, b.ci_half_width, "row.ci_half_width");
  }
  ASSERT_EQ(got.health.has_value(), want.health.has_value());
  if (want.health) {
    const HealthSummary& a = *got.health;
    const HealthSummary& b = *want.health;
    expect_bits(a.uptime_s, b.uptime_s, "uptime_s");
    EXPECT_EQ(a.queue_depth, b.queue_depth);
    EXPECT_EQ(a.queue_capacity, b.queue_capacity);
    EXPECT_EQ(a.dispatchers, b.dispatchers);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.max_batch, b.max_batch);
    EXPECT_EQ(a.cache_dir, b.cache_dir);
    EXPECT_EQ(a.cache_tables, b.cache_tables);
    EXPECT_EQ(a.cache_bytes, b.cache_bytes);
    EXPECT_EQ(a.totals.submitted, b.totals.submitted);
    EXPECT_EQ(a.totals.completed, b.totals.completed);
    EXPECT_EQ(a.totals.failed, b.totals.failed);
    EXPECT_EQ(a.totals.cancelled, b.totals.cancelled);
    EXPECT_EQ(a.totals.rejected, b.totals.rejected);
    EXPECT_EQ(a.totals.quota_rejected, b.totals.quota_rejected);
    EXPECT_EQ(a.totals.deadline_expired, b.totals.deadline_expired);
    EXPECT_EQ(a.totals.batches, b.totals.batches);
    EXPECT_EQ(a.totals.coalesced_requests, b.totals.coalesced_requests);
    EXPECT_EQ(a.totals.table_builds, b.totals.table_builds);
    EXPECT_EQ(a.totals.table_memory_hits, b.totals.table_memory_hits);
    EXPECT_EQ(a.totals.table_disk_hits, b.totals.table_disk_hits);
    EXPECT_EQ(a.totals.shard_builds, b.totals.shard_builds);
    EXPECT_EQ(a.totals.shard_replays, b.totals.shard_replays);
    EXPECT_EQ(a.totals.max_queue_depth, b.totals.max_queue_depth);
  }
  ASSERT_EQ(got.metrics.size(), want.metrics.size());
  for (std::size_t i = 0; i < want.metrics.size(); ++i) {
    const obs::MetricSnapshot& a = got.metrics[i];
    const obs::MetricSnapshot& b = want.metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    expect_bits(a.value, b.value, "metric.value");
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    expect_bits(a.p50, b.p50, "p50");
    expect_bits(a.p95, b.p95, "p95");
    expect_bits(a.p99, b.p99, "p99");
    EXPECT_EQ(a.buckets, b.buckets);
  }
  expect_bits(got.stats.queue_ms, want.stats.queue_ms, "queue_ms");
  expect_bits(got.stats.table_ms, want.stats.table_ms, "table_ms");
  expect_bits(got.stats.run_ms, want.stats.run_ms, "run_ms");
  expect_bits(got.stats.wall_ms, want.stats.wall_ms, "wall_ms");
  EXPECT_EQ(got.stats.table_source, want.stats.table_source);
  EXPECT_EQ(got.stats.coalesced, want.stats.coalesced);
  EXPECT_EQ(got.stats.batch_size, want.stats.batch_size);
  EXPECT_EQ(got.stats.dispatch_seq, want.stats.dispatch_seq);
}

TEST(CodecProperty, RequestsRoundTripEveryField) {
  WireGen g{20261017};
  for (int i = 0; i < 2000; ++i) {
    const Request want = random_request(g);
    const std::string line = format_request(want);
    RequestError error;
    const std::optional<Request> got = parse_request(line, &error);
    ASSERT_TRUE(got.has_value()) << line << " -> " << error.message;
    SCOPED_TRACE(line);
    expect_same(*got, want);
    EXPECT_EQ(format_request(*got), line);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CodecProperty, ResponsesRoundTripEveryField) {
  WireGen g{17102026};
  for (int i = 0; i < 2000; ++i) {
    const Response want = random_response(g);
    for (const bool per_chip : {false, true}) {
      const std::string line = format_response(want, per_chip);
      std::string error;
      const std::optional<Response> got = parse_response(line, &error);
      ASSERT_TRUE(got.has_value()) << line << " -> " << error;
      SCOPED_TRACE(line);
      expect_same(*got, want, per_chip);
      // Without per_chip the parsed results lose their chip vectors, so
      // only the full rendering must reproduce its bytes.
      if (per_chip) {
        EXPECT_EQ(format_response(*got, per_chip), line);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hynapse::serve
