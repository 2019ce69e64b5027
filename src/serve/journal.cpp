#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace hynapse::serve {
namespace {

std::string segment_name(const std::string& path, std::size_t n) {
  return path + "." + std::to_string(n);
}

/// Replay honours only terminal outcomes; a "done" record naming any other
/// status is skipped like a corrupt line.
std::optional<RequestStatus> terminal_status(std::string_view name) {
  for (const RequestStatus s : {RequestStatus::done, RequestStatus::failed,
                                RequestStatus::cancelled}) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

}  // namespace

RequestJournal::RequestJournal(JournalOptions options,
                               std::uint64_t service_fingerprint)
    : options_{std::move(options)}, fingerprint_{service_fingerprint} {
  if (options_.fsync_every == 0) options_.fsync_every = 1;
  if (options_.path.empty()) return;
  const std::scoped_lock lock{mutex_};
  open_segment_locked(/*write_header=*/true);
}

RequestJournal::~RequestJournal() {
  const std::scoped_lock lock{mutex_};
  flush_locked();
  if (fd_ >= 0) ::close(fd_);
}

void RequestJournal::open_segment_locked(bool write_header) {
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    write_errors_.add();
    if (!warned_) {
      std::fprintf(stderr, "[journal] warning: cannot open %s: %s\n",
                   options_.path.c_str(), std::strerror(errno));
      warned_ = true;
    }
    return;
  }
  struct stat st{};
  segment_bytes_ = ::fstat(fd_, &st) == 0
                       ? static_cast<std::uintmax_t>(st.st_size)
                       : 0;
  if (write_header && segment_bytes_ == 0) {
    std::string header = "{\"journal\":\"hynapse-requests\",\"v\":1,\"fp\":\"" +
                         engine::fingerprint_hex(fingerprint_) + "\"}";
    append_locked(std::move(header));
    flush_locked();
  }
}

void RequestJournal::record_submit(std::uint64_t id,
                                   std::string_view request_json) {
  if (options_.path.empty()) return;
  // format_request() output is already a compact JSON object, so the record
  // is assembled by concatenation -- no DOM round trip on the submit path.
  std::string line = "{\"e\":\"submit\",\"id\":" + std::to_string(id) +
                     ",\"req\":" + std::string{request_json} + "}";
  const std::scoped_lock lock{mutex_};
  append_locked(std::move(line));
}

void RequestJournal::record_submit(std::uint64_t id, const Request& request) {
  record_submit(id, format_request(request));
}

void RequestJournal::record_terminal(std::uint64_t id, RequestStatus status) {
  if (options_.path.empty()) return;
  std::string line = "{\"e\":\"done\",\"id\":" + std::to_string(id) +
                     ",\"status\":\"" + to_string(status) + "\"}";
  const std::scoped_lock lock{mutex_};
  append_locked(std::move(line));
}

void RequestJournal::append_locked(std::string&& line) {
  if (fd_ < 0) return;
  if (segment_bytes_ + line.size() + 1 > options_.rotate_bytes &&
      segment_bytes_ > 0) {
    rotate_locked();
    if (fd_ < 0) return;
  }
  // Each record hits the kernel immediately (one O_APPEND write is cheap
  // and a kill -9 can then lose nothing already appended); only the fsync
  // -- the expensive part -- is amortized across fsync_every records.
  line += '\n';
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_errors_.add();
      if (!warned_) {
        std::fprintf(stderr, "[journal] warning: write to %s failed: %s\n",
                     options_.path.c_str(), std::strerror(errno));
        warned_ = true;
      }
      break;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
    segment_bytes_ += static_cast<std::uintmax_t>(n);
  }
  ++pending_records_;
  appends_.add();
  if (pending_records_ >= options_.fsync_every) flush_locked();
}

void RequestJournal::flush() {
  const std::scoped_lock lock{mutex_};
  flush_locked();
}

void RequestJournal::flush_locked() {
  if (fd_ < 0 || pending_records_ == 0) return;
  pending_records_ = 0;
  if (::fsync(fd_) == 0) {
    fsyncs_.add();
  }
}

void RequestJournal::rotate_locked() {
  flush_locked();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  // Shift "<path>.N" up; the oldest beyond keep_segments falls off.
  std::error_code ec;
  if (options_.keep_segments == 0) {
    std::filesystem::remove(options_.path, ec);
  } else {
    std::filesystem::remove(segment_name(options_.path, options_.keep_segments),
                            ec);
    for (std::size_t n = options_.keep_segments; n > 1; --n) {
      std::filesystem::rename(segment_name(options_.path, n - 1),
                              segment_name(options_.path, n), ec);
    }
    std::filesystem::rename(options_.path, segment_name(options_.path, 1), ec);
  }
  rotations_.add();
  open_segment_locked(/*write_header=*/true);
}

JournalStats RequestJournal::stats() const {
  return {appends_.value(), fsyncs_.value(), rotations_.value(),
          write_errors_.value()};
}

namespace {

/// Folds one segment's lines into the accumulating load state.
void load_segment(const std::string& file, JournalLoad& load,
                  std::vector<JournalEntry>& entries,
                  std::unordered_map<std::uint64_t, std::size_t>& by_id) {
  std::ifstream in{file};
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::optional<Json> doc = Json::parse(line);
    if (!doc || !doc->is_object()) {
      // Torn trailing line after a crash, or corruption: skip, count.
      ++load.skipped_lines;
      continue;
    }
    if (doc->get("journal") != nullptr) {
      if (const Json* fp = doc->get("fp"); fp != nullptr && fp->is_string()) {
        load.service_fingerprint = std::strtoull(
            fp->as_string().c_str(), nullptr, 16);
      }
      // Compacted segments stamp the pre-compaction id watermark into the
      // header, so max_id survives even when every old record was dropped.
      if (const Json* mid = doc->get("max_id");
          mid != nullptr && mid->is_number() && mid->as_number() >= 0.0) {
        const auto watermark = static_cast<std::uint64_t>(mid->as_number());
        if (watermark > load.max_id) load.max_id = watermark;
      }
      continue;
    }
    const Json* e = doc->get("e");
    const Json* id_v = doc->get("id");
    if (e == nullptr || !e->is_string() || id_v == nullptr ||
        !id_v->is_number() || id_v->as_number() < 1.0) {
      ++load.skipped_lines;
      continue;
    }
    const auto id = static_cast<std::uint64_t>(id_v->as_number());
    if (e->as_string() == "submit") {
      const Json* req = doc->get("req");
      if (req == nullptr || !req->is_object()) {
        ++load.skipped_lines;
        continue;
      }
      std::string parse_err;
      std::optional<Request> parsed = parse_request(req->dump(), &parse_err);
      if (!parsed) {
        ++load.skipped_lines;
        continue;
      }
      JournalEntry entry;
      entry.id = id;
      entry.request = std::move(*parsed);
      const auto it = by_id.find(id);
      if (it == by_id.end()) {
        by_id.emplace(id, entries.size());
        entries.push_back(std::move(entry));
      } else {
        // Same id resubmitted (should not happen; last record wins).
        const bool terminal = entries[it->second].terminal;
        const RequestStatus st = entries[it->second].final_status;
        entries[it->second] = std::move(entry);
        entries[it->second].terminal = terminal;
        entries[it->second].final_status = st;
      }
      if (id > load.max_id) load.max_id = id;
    } else if (e->as_string() == "done") {
      const Json* status = doc->get("status");
      std::optional<RequestStatus> st =
          status != nullptr && status->is_string()
              ? terminal_status(status->as_string())
              : std::nullopt;
      if (!st) {
        ++load.skipped_lines;
        continue;
      }
      if (const auto it = by_id.find(id); it != by_id.end()) {
        entries[it->second].terminal = true;
        entries[it->second].final_status = *st;
      }
      if (id > load.max_id) load.max_id = id;
    } else {
      ++load.skipped_lines;
    }
  }
}

}  // namespace

std::optional<JournalLoad> load_journal(const std::string& path,
                                        std::string* error) {
  JournalLoad load;
  std::vector<JournalEntry> entries;
  std::unordered_map<std::uint64_t, std::size_t> by_id;

  std::vector<std::string> segments;
  // Oldest rotated segment first, active segment last, so later records
  // (terminals for earlier submits) overwrite earlier state.
  for (std::size_t n = 64; n >= 1; --n) {
    const std::string seg = segment_name(path, n);
    if (std::filesystem::exists(seg)) segments.push_back(seg);
  }
  if (std::filesystem::exists(path)) segments.push_back(path);
  if (segments.empty()) {
    if (error) *error = "journal not found: " + path;
    return std::nullopt;
  }
  for (const std::string& seg : segments) {
    load_segment(seg, load, entries, by_id);
  }
  std::sort(entries.begin(), entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) {
              return a.id < b.id;
            });
  load.entries = std::move(entries);
  return load;
}

std::vector<const JournalEntry*> incomplete_entries(const JournalLoad& load) {
  std::vector<const JournalEntry*> out;
  for (const JournalEntry& e : load.entries) {
    // stats scrapes are point-in-time reads; replaying them is pure noise.
    if (!e.terminal && e.request.kind != RequestKind::stats) {
      out.push_back(&e);
    }
  }
  return out;
}

std::optional<CompactionResult> compact_journal(const std::string& path,
                                                std::string* error) {
  std::optional<JournalLoad> load = load_journal(path, error);
  if (!load) return std::nullopt;

  CompactionResult result;
  result.max_id = load->max_id;
  const std::vector<const JournalEntry*> keep = incomplete_entries(*load);
  result.kept = keep.size();
  result.dropped = load->entries.size() - keep.size();

  // One fresh segment: header (fingerprint + id watermark) plus the live
  // submit records. parse_request(format_request(r)) == r, so replaying
  // the compacted journal is indistinguishable from replaying the
  // original's incomplete set.
  std::string out = "{\"journal\":\"hynapse-requests\",\"v\":1,\"fp\":\"" +
                    engine::fingerprint_hex(load->service_fingerprint) +
                    "\",\"max_id\":" + std::to_string(load->max_id) + "}\n";
  for (const JournalEntry* e : keep) {
    out += "{\"e\":\"submit\",\"id\":" + std::to_string(e->id) +
           ",\"req\":" + format_request(e->request) + "}\n";
  }

  const std::string tmp = path + ".compact.tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error) *error = "cannot create " + tmp + ": " + std::strerror(errno);
    return std::nullopt;
  }
  const char* data = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = "write to " + tmp + " failed: " + std::strerror(errno);
      ::close(fd);
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return std::nullopt;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);

  // Atomic cutover first, cleanup after: a crash between the two leaves a
  // valid compacted segment plus stale rotated segments, which the next
  // compaction (or rotation) removes -- never a missing journal.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error) *error = "rename " + tmp + " -> " + path + ": " + ec.message();
    std::filesystem::remove(tmp, ec);
    return std::nullopt;
  }
  for (std::size_t n = 1; n <= 64; ++n) {
    std::error_code rec;
    if (std::filesystem::remove(segment_name(path, n), rec)) {
      ++result.removed_segments;
    }
  }
  obs::count("serve.journal.compactions");
  return result;
}

}  // namespace hynapse::serve
