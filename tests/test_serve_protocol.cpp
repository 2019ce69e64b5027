#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "serve/protocol.hpp"

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
  h.fuse_chips = 8;
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
  EXPECT_EQ(ph.fuse_chips, 8u);
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

  // 7-number rows (the pre-metadata wire shape) still parse, with zeroed
  // metadata -- a fleet can mix old and new workers mid-upgrade.
  const auto legacy = parse_response(
      R"({"id":32,"status":"done","shard":{"index":0,"count":1,)"
      R"("fingerprint":"0","rows":1,)"
      R"("rows_data":[[0.7,0.001,2e-05,0,1e-08,0,0]]}})",
      &error);
  ASSERT_TRUE(legacy.has_value()) << error;
  ASSERT_EQ(legacy->shard_rows.size(), 1u);
  EXPECT_DOUBLE_EQ(legacy->shard_rows[0].cell6.read_access, 0.001);
  EXPECT_DOUBLE_EQ(legacy->shard_rows[0].samples, 0.0);
  EXPECT_DOUBLE_EQ(legacy->shard_rows[0].ci_half_width, 0.0);
}

}  // namespace
}  // namespace hynapse::serve
