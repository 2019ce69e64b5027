// serve::RequestJournal + load_journal: round trip, torn-line tolerance,
// rotation, and the crash-recovery contract -- entries without a terminal
// record replay bit-identically through a fresh service
// (docs/robustness.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ann/mlp.hpp"
#include "core/delta_eval.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "serve/eval_service.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "test_helpers.hpp"

namespace hynapse::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
class JournalTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string path(const char* name = "requests.jsonl") const {
    return scratch_.file(name);
  }

  static Request evaluate_request(const char* config, double vdd) {
    Request r;
    r.kind = RequestKind::evaluate;
    r.configs = {*ConfigSpec::parse(config)};
    r.vdds = {vdd};
    return r;
  }

  const testing::ScratchDir scratch_;
};

TEST_F(JournalTest, RoundTripSubmitsAndTerminals) {
  Request first = evaluate_request("hybrid2", 0.65);
  first.tag = "alpha";
  first.client = "bench";
  first.deadline_ms = 1500.0;
  first.priority = 3;
  Request second = evaluate_request("all6t", 0.7);
  second.mc_samples = 900;

  {
    const testing::RegistryBaseline registry;
    RequestJournal journal{JournalOptions{path()}, 0xdeadbeefcafef00dull};
    journal.record_submit(1, first);
    journal.record_submit(2, second);
    journal.record_terminal(1, RequestStatus::done);
    journal.flush();
    EXPECT_EQ(journal.stats().appends, 4u);  // header + 3 records
    EXPECT_EQ(journal.stats().write_errors, 0u);
    EXPECT_EQ(registry.delta("serve.journal.appends"), 4u);
    EXPECT_EQ(registry.delta("serve.journal.fsyncs"), journal.stats().fsyncs);
    EXPECT_EQ(registry.delta("serve.journal.write_errors"), 0u);
  }

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->service_fingerprint, 0xdeadbeefcafef00dull);
  EXPECT_EQ(load->skipped_lines, 0u);
  EXPECT_EQ(load->max_id, 2u);
  ASSERT_EQ(load->entries.size(), 2u);

  EXPECT_EQ(load->entries[0].id, 1u);
  EXPECT_TRUE(load->entries[0].terminal);
  EXPECT_EQ(load->entries[0].final_status, RequestStatus::done);
  // The journaled request is the exact codec rendering.
  EXPECT_EQ(format_request(load->entries[0].request), format_request(first));

  EXPECT_EQ(load->entries[1].id, 2u);
  EXPECT_FALSE(load->entries[1].terminal);
  EXPECT_EQ(format_request(load->entries[1].request), format_request(second));

  const auto pending = incomplete_entries(*load);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->id, 2u);
}

TEST_F(JournalTest, ToleratesTornTrailingLine) {
  {
    RequestJournal journal{JournalOptions{path()}, 1};
    journal.record_submit(1, evaluate_request("hybrid2", 0.65));
    journal.record_submit(2, evaluate_request("all6t", 0.65));
    journal.flush();
  }
  // Simulate a crash mid-append: a torn, unterminated record at the tail.
  {
    std::ofstream torn{path(), std::ios::app | std::ios::binary};
    torn << R"({"e":"submit","id":3,"req":{"kind":"eva)";
  }

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->skipped_lines, 1u);
  ASSERT_EQ(load->entries.size(), 2u);
  EXPECT_EQ(load->entries[0].id, 1u);
  EXPECT_EQ(load->entries[1].id, 2u);
  EXPECT_EQ(load->max_id, 2u);
}

TEST_F(JournalTest, ReplaySkipsDoneRecordsWithNonTerminalStatus) {
  {
    RequestJournal journal{JournalOptions{path()}, 0xdeadbeefcafef00dull};
    for (std::uint64_t id = 1; id <= 4; ++id) {
      journal.record_submit(id, evaluate_request("hybrid2", 0.65));
    }
    journal.record_terminal(1, RequestStatus::failed);
    journal.record_terminal(2, RequestStatus::cancelled);
    journal.record_terminal(3, RequestStatus::evicted);
    journal.flush();
  }
  {
    std::ofstream out{path(), std::ios::app};
    out << R"({"e":"done","id":4,"status":"queued"})" << '\n'
        << R"({"e":"done","id":4,"status":"sideways"})" << '\n';
  }

  // The records use the protocol's names and fingerprint rendering.
  std::ifstream in{path()};
  const std::string text{std::istreambuf_iterator<char>{in}, {}};
  EXPECT_NE(text.find(R"("fp":"deadbeefcafef00d")"), std::string::npos);
  EXPECT_NE(text.find(R"({"e":"done","id":1,"status":"failed"})"),
            std::string::npos);
  EXPECT_NE(text.find(R"({"e":"done","id":3,"status":"evicted"})"),
            std::string::npos);

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->service_fingerprint, 0xdeadbeefcafef00dull);
  EXPECT_EQ(load->skipped_lines, 3u);  // evicted, queued, sideways
  ASSERT_EQ(load->entries.size(), 4u);
  EXPECT_TRUE(load->entries[0].terminal);
  EXPECT_EQ(load->entries[0].final_status, RequestStatus::failed);
  EXPECT_TRUE(load->entries[1].terminal);
  EXPECT_EQ(load->entries[1].final_status, RequestStatus::cancelled);
  EXPECT_FALSE(load->entries[2].terminal);
  EXPECT_FALSE(load->entries[3].terminal);
  const auto pending = incomplete_entries(*load);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0]->id, 3u);
  EXPECT_EQ(pending[1]->id, 4u);
}

TEST_F(JournalTest, RotationShiftsSegmentsAndLoaderReadsOldestFirst) {
  JournalOptions options{path()};
  options.rotate_bytes = 256;  // force rotation every few records
  options.keep_segments = 3;
  options.fsync_every = 1;
  constexpr std::uint64_t kCount = 24;
  {
    const testing::RegistryBaseline registry;
    RequestJournal journal{options, 7};
    for (std::uint64_t id = 1; id <= kCount; ++id) {
      journal.record_submit(id, evaluate_request("hybrid2", 0.65));
      journal.record_terminal(id, RequestStatus::done);
    }
    journal.flush();
    EXPECT_GT(journal.stats().rotations, 0u);
    EXPECT_EQ(registry.delta("serve.journal.rotations"),
              journal.stats().rotations);
    EXPECT_EQ(registry.delta("serve.journal.appends"),
              journal.stats().appends);
  }
  EXPECT_TRUE(fs::exists(path() + std::string{".1"}));
  // Rotation keeps at most keep_segments rotated files.
  EXPECT_FALSE(fs::exists(path() + std::string{".4"}));

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->max_id, kCount);
  ASSERT_FALSE(load->entries.empty());
  // Entries arrive in ascending id order and include the newest records;
  // the oldest may have aged out with dropped segments.
  for (std::size_t i = 1; i < load->entries.size(); ++i) {
    EXPECT_GT(load->entries[i].id, load->entries[i - 1].id);
  }
  EXPECT_EQ(load->entries.back().id, kCount);
  EXPECT_TRUE(load->entries.back().terminal);
  EXPECT_EQ(incomplete_entries(*load).size(), 0u);
}

TEST_F(JournalTest, MissingJournalReportsError) {
  std::string error;
  EXPECT_FALSE(load_journal(path("nope.jsonl"), &error).has_value());
  EXPECT_FALSE(error.empty());
}

/// Service-level crash-recovery contract: a journaling service stamps the
/// network fingerprint, records every submit, and a "crashed" run (no
/// terminal records) replays bit-identically through a fresh service.
TEST_F(JournalTest, ServiceJournalsAndReplaysBitIdentically) {
  const core::QuantizedNetwork qnet{ann::Mlp{{784, 12, 10}, 17}, 8};
  const data::Dataset test = data::generate_digits(60, 5);

  ServiceOptions options;
  options.vdd_grid = {0.65};
  options.default_samples = 400;
  options.default_chips = 2;
  options.dispatchers = 2;
  options.journal.path = path();
  // Simulate a crash before any completion was made durable: replay-style
  // services stamp terminals themselves, so nothing lands in the journal.
  options.journal.record_terminals = false;

  Request request = evaluate_request("hybrid2", 0.65);
  request.tag = "replay-me";

  Response original;
  {
    EvalService service{qnet, test, options};
    ASSERT_NE(service.journal(), nullptr);
    original = service.wait(service.submit(request));
    ASSERT_EQ(original.status, RequestStatus::done) << original.error;
    service.journal()->flush();
  }

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->service_fingerprint, core::network_fingerprint(qnet));
  const auto pending = incomplete_entries(*load);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->request.tag, "replay-me");

  // Recovery: a fresh service starts its ids above the journal's max and
  // reproduces the recorded request bit-for-bit.
  ServiceOptions recovered = options;
  recovered.journal.path.clear();
  recovered.first_request_id = load->max_id + 1;
  EvalService service{qnet, test, recovered};
  const std::uint64_t id = service.submit(pending[0]->request);
  EXPECT_EQ(id, load->max_id + 1);
  const Response replayed = service.wait(id);
  ASSERT_EQ(replayed.status, RequestStatus::done) << replayed.error;
  ASSERT_EQ(replayed.results.size(), original.results.size());
  for (std::size_t i = 0; i < original.results.size(); ++i) {
    const core::AccuracyResult& a = original.results[i].accuracy;
    const core::AccuracyResult& b = replayed.results[i].accuracy;
    EXPECT_EQ(b.mean, a.mean);
    EXPECT_EQ(b.stddev, a.stddev);
    ASSERT_EQ(b.per_chip.size(), a.per_chip.size());
    for (std::size_t c = 0; c < a.per_chip.size(); ++c) {
      EXPECT_EQ(b.per_chip[c], a.per_chip[c]) << "chip " << c;
    }
  }
}

/// With record_terminals on (the served default), finished requests are
/// terminal in the journal and recovery has nothing to replay.
TEST_F(JournalTest, ServiceRecordsTerminalsByDefault) {
  const core::QuantizedNetwork qnet{ann::Mlp{{784, 12, 10}, 17}, 8};
  const data::Dataset test = data::generate_digits(60, 5);

  ServiceOptions options;
  options.vdd_grid = {0.65};
  options.default_samples = 400;
  options.default_chips = 2;
  options.dispatchers = 2;
  options.journal.path = path();
  {
    EvalService service{qnet, test, options};
    const Response r =
        service.wait(service.submit(evaluate_request("hybrid2", 0.65)));
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
  }

  std::string error;
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  ASSERT_EQ(load->entries.size(), 1u);
  EXPECT_TRUE(load->entries[0].terminal);
  EXPECT_EQ(load->entries[0].final_status, RequestStatus::done);
  EXPECT_TRUE(incomplete_entries(*load).empty());

  // Reopening appends (no truncation): a second service run extends the
  // same journal with fresh ids.
  ServiceOptions again = options;
  again.first_request_id = load->max_id + 1;
  {
    EvalService service{qnet, test, again};
    const Response r =
        service.wait(service.submit(evaluate_request("all6t", 0.65)));
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
  }
  const auto reload = load_journal(path(), &error);
  ASSERT_TRUE(reload.has_value()) << error;
  ASSERT_EQ(reload->entries.size(), 2u);
  EXPECT_EQ(reload->entries[1].id, load->max_id + 1);
  EXPECT_TRUE(reload->entries[1].terminal);
}

TEST_F(JournalTest, CompactionDropsTerminalsAndRemovesRotatedSegments) {
  // Rotation + compaction + recover round trip: after many completed
  // requests and a handful of in-flight ones, compaction leaves one fresh
  // segment holding exactly the incomplete submits, drops every rotated
  // segment, and preserves the id watermark.
  JournalOptions options{path()};
  options.rotate_bytes = 256;
  options.keep_segments = 4;
  options.fsync_every = 1;
  {
    RequestJournal journal{options, 0xfeedfacef00dull};
    for (std::uint64_t id = 1; id <= 20; ++id) {
      journal.record_submit(id, evaluate_request("hybrid2", 0.65));
      if (id % 5 != 0) {  // ids 5, 10, 15, 20 stay in flight
        journal.record_terminal(id, RequestStatus::done);
      }
    }
    journal.flush();
    EXPECT_GT(journal.stats().rotations, 0u);
  }
  ASSERT_TRUE(fs::exists(path() + std::string{".1"}));

  std::string error;
  const auto compacted = compact_journal(path(), &error);
  ASSERT_TRUE(compacted.has_value()) << error;
  // Rotation may already have aged old terminal records out of the retained
  // segments, so `dropped` counts only what was still loadable.
  EXPECT_GT(compacted->dropped, 0u);
  EXPECT_GE(compacted->kept, 1u);
  EXPECT_LE(compacted->kept, 4u);
  EXPECT_EQ(compacted->max_id, 20u);
  EXPECT_GT(compacted->removed_segments, 0u);
  EXPECT_FALSE(fs::exists(path() + std::string{".1"}));

  // Only incomplete entries survive (kept may be short of 4 if rotation
  // aged the oldest in-flight submits out before compaction ran).
  const auto load = load_journal(path(), &error);
  ASSERT_TRUE(load.has_value()) << error;
  EXPECT_EQ(load->service_fingerprint, 0xfeedfacef00dull);
  EXPECT_EQ(load->max_id, 20u);
  ASSERT_EQ(load->entries.size(), compacted->kept);
  for (const JournalEntry& e : load->entries) {
    EXPECT_FALSE(e.terminal);
    EXPECT_EQ(e.id % 5, 0u);
    EXPECT_EQ(e.request.configs[0].str(), "hybrid2");
  }
  EXPECT_EQ(incomplete_entries(*load).size(), load->entries.size());

  // Compacting an already-compact journal is a no-op that keeps everything.
  const auto again = compact_journal(path(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->kept, compacted->kept);
  EXPECT_EQ(again->dropped, 0u);
  EXPECT_EQ(again->removed_segments, 0u);
  EXPECT_EQ(again->max_id, 20u);

  // A fresh journal reopening the compacted segment appends after the
  // watermark -- ids never move backwards across a compaction.
  {
    RequestJournal journal{JournalOptions{path()}, 0xfeedfacef00dull};
    journal.record_submit(21, evaluate_request("all6t", 0.7));
    journal.flush();
  }
  const auto reload = load_journal(path(), &error);
  ASSERT_TRUE(reload.has_value()) << error;
  EXPECT_EQ(reload->max_id, 21u);
  EXPECT_EQ(reload->entries.back().id, 21u);
}

TEST_F(JournalTest, CompactionOnMissingJournalFails) {
  std::string error;
  EXPECT_FALSE(compact_journal(path("nope.jsonl"), &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace hynapse::serve
