// Replayable request journal: an append-only, crash-safe JSONL write-ahead
// log of every request submitted to an EvalService. A restarted
// `hynapse_served --recover` re-submits journaled requests that never
// reached a terminal record, and `hynapse_cli replay <journal>` drives
// load-replay benchmarking from a recorded trace (docs/robustness.md).
//
// On-disk format -- one JSON document per line, per segment:
//
//   {"journal":"hynapse-requests","v":1,"fp":"<16-hex network fingerprint>"}
//   {"e":"submit","id":N,"req":{...format_request object...}}
//   {"e":"done","id":N,"status":"done"|"failed"|"cancelled"}
//
// Every append is written to the segment immediately; only the fsync is
// batched (every `fsync_every` records or on flush()). The active segment
// rotates to "<path>.1" (older segments shift up, the oldest beyond
// `keep_segments` is dropped) once it exceeds `rotate_bytes`.
// The loader reads rotated segments oldest-first, tolerates a torn trailing
// line (the crash case), and reports entries in submit order with their
// terminal status when one was recorded.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace hynapse::serve {

struct JournalOptions {
  /// Path of the active segment; empty disables journaling entirely.
  std::string path;
  /// fsync after this many appended records (1 = every append). Records
  /// reach the kernel on every append; this only bounds how many can be
  /// lost to a machine crash (a process crash loses nothing appended).
  std::size_t fsync_every = 64;
  /// Rotate the active segment once it exceeds this many bytes.
  std::uintmax_t rotate_bytes = 64ull << 20;
  /// Rotated segments kept as "<path>.1" (newest) .. "<path>.N" (oldest).
  std::size_t keep_segments = 2;
  /// Record terminal ("done") events from the service's completion path.
  /// hynapse_served's file-replay mode turns this off and stamps terminals
  /// itself only after a response has been *printed*, so a crash between
  /// completion and delivery still replays (docs/robustness.md).
  bool record_terminals = true;
};

/// A journal's lifetime counters; each also feeds the registry counter
/// "serve.journal.<field>", summed over every journal in the process.
struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t write_errors = 0;
};

/// Append half of the journal. Thread-safe; append latency is one O_APPEND
/// write plus an amortized fsync. Write failures are counted and warned
/// once, never thrown -- a full disk degrades durability, not service.
class RequestJournal {
 public:
  /// Opens (appending) or creates the active segment and stamps a header
  /// with `service_fingerprint` (the served network's fingerprint).
  RequestJournal(JournalOptions options, std::uint64_t service_fingerprint);
  ~RequestJournal();

  RequestJournal(const RequestJournal&) = delete;
  RequestJournal& operator=(const RequestJournal&) = delete;

  /// Records a submitted request. `request_json` must be the
  /// format_request() rendering (callers that still own the Request can use
  /// the convenience overload).
  void record_submit(std::uint64_t id, std::string_view request_json);
  void record_submit(std::uint64_t id, const Request& request);

  /// Records a terminal outcome; entries with no terminal record are what
  /// recovery re-submits.
  void record_terminal(std::uint64_t id, RequestStatus status);

  /// Writes buffered records and fsyncs now.
  void flush();

  [[nodiscard]] JournalStats stats() const;
  [[nodiscard]] const JournalOptions& options() const noexcept {
    return options_;
  }
  /// The fingerprint this journal stamps into segment headers.
  [[nodiscard]] std::uint64_t service_fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  void append_locked(std::string&& line);
  void flush_locked();
  void rotate_locked();
  void open_segment_locked(bool write_header);

  /// The registry family also names compact_journal's counter, so a
  /// scrape lists every journal counter once a journal counted anything.
  static constexpr std::string_view kCounterNames[] = {
      "serve.journal.appends", "serve.journal.fsyncs",
      "serve.journal.rotations", "serve.journal.write_errors",
      "serve.journal.compactions"};

  JournalOptions options_;
  std::uint64_t fingerprint_ = 0;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::size_t pending_records_ = 0;  // appended since the last fsync
  std::uintmax_t segment_bytes_ = 0;
  bool warned_ = false;
  obs::InstanceCounter appends_{"serve.journal.appends", kCounterNames};
  obs::InstanceCounter fsyncs_{"serve.journal.fsyncs", kCounterNames};
  obs::InstanceCounter rotations_{"serve.journal.rotations", kCounterNames};
  obs::InstanceCounter write_errors_{"serve.journal.write_errors",
                                     kCounterNames};
};

/// One journaled request, as read back by the loader.
struct JournalEntry {
  std::uint64_t id = 0;
  Request request;
  bool terminal = false;  ///< a "done" record was found for this id
  RequestStatus final_status = RequestStatus::queued;
};

struct JournalLoad {
  /// Fingerprint stamped in the newest segment header (0 if none found).
  std::uint64_t service_fingerprint = 0;
  /// Entries in submit order (ascending id across segments).
  std::vector<JournalEntry> entries;
  /// Corrupt or torn lines tolerated and skipped.
  std::size_t skipped_lines = 0;
  /// Highest id seen (submit or terminal); a recovering service starts its
  /// id counter above this so journal ids stay unique across restarts.
  std::uint64_t max_id = 0;
};

/// Reads "<path>.keep" .. "<path>.1" then "<path>" (oldest first). Returns
/// nullopt (with *error) only when no segment could be opened; malformed
/// lines inside an open segment are skipped and counted.
[[nodiscard]] std::optional<JournalLoad> load_journal(const std::string& path,
                                                      std::string* error);

/// Entries without a terminal record -- what a restarted service replays.
[[nodiscard]] std::vector<const JournalEntry*> incomplete_entries(
    const JournalLoad& load);

/// What compact_journal did: how many live entries were carried into the
/// fresh segment, how many terminated (or stats) records were left behind,
/// and how many rotated segments were deleted.
struct CompactionResult {
  std::size_t kept = 0;
  std::size_t dropped = 0;
  std::size_t removed_segments = 0;
  /// Id watermark stamped into the new header ("max_id"): the loader's
  /// max_id survives compaction even when every carried record is dropped,
  /// so a recovering service never reissues a journaled id.
  std::uint64_t max_id = 0;
};

/// Rewrites the journal as ONE fresh active segment holding a header plus
/// the submit records of incomplete_entries() only; terminal records,
/// finished requests and rotated segments are dropped. Runs offline (call
/// before constructing the RequestJournal that will append to `path` --
/// there is no coordination with a live writer): `hynapse_served --recover`
/// compacts after loading, so restart cost stays proportional to live work,
/// not journal history. Crash-safe: the new segment is written to a temp
/// file, fsynced and renamed over `path` before old segments are removed.
/// Returns nullopt (with *error) when the journal cannot be loaded or the
/// new segment cannot be written.
[[nodiscard]] std::optional<CompactionResult> compact_journal(
    const std::string& path, std::string* error = nullptr);

}  // namespace hynapse::serve
