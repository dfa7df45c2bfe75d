// Copyright (c) 2026 The DeltaMerge Authors.
// Span recording for the end-to-end benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code, around each call into a
// layer's public functions, never inside src/. Every closed-loop request
// (one writer op or one reader query) is a request span with an id; the
// public calls it makes are its child spans, sharing that id. Each thread
// owns one SpanBuffer (no synchronization on the hot path); the buffers are
// read only after the threads have been joined, and written out as Chrome
// trace JSON (chrome://tracing, ui.perfetto.dev) when the run ends.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/cycle_clock.h"

namespace e2e {

/// What a span covers: a whole request (kReq*) or one public call into a
/// layer made on the request's behalf.
enum class SpanName : uint8_t {
  kReqInsert = 0,
  kReqUpdate,
  kReqDelete,
  kReqBatch,
  kReqTxn,
  kReqLookup,
  kReqCountRange,
  kReqSumColumn,
  kReqCountEquals,
  kNumRequestNames,  // names below are child calls
  kInsertRow = kNumRequestNames,
  kUpdateRow,
  kDeleteRow,
  kInsertRows,
  kTxnCommit,
  kSnapshotCapture,
  kCollectEquals,
  kCountRange,
  kSumColumn,
  kCountEquals,
  kNumNames,
};

inline constexpr const char* kSpanNames[] = {
    "req.write.insert",    "req.write.update",      "req.write.delete",
    "req.write.batch",     "req.write.txn",         "req.read.lookup",
    "req.read.count_range", "req.read.sum_column",  "req.read.count_equals",
    "core.InsertRow",      "core.UpdateRow",        "core.DeleteRow",
    "core.InsertRows",     "core.Transaction::Commit",
    "core.CreateSnapshot", "query.CollectEquals",   "query.CountRange",
    "query.SumColumn",     "query.CountEquals",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<size_t>(SpanName::kNumNames));

inline bool IsRequest(SpanName n) { return n < SpanName::kNumRequestNames; }
inline bool IsQueryCall(SpanName n) { return n >= SpanName::kCollectEquals; }

struct Span {
  uint64_t start = 0;  ///< CycleClock ticks
  uint64_t end = 0;
  uint64_t request = 0;  ///< request id shared by a request and its calls
  uint64_t rows = 0;     ///< rows the call wrote or scanned (0 = n/a)
  SpanName name = SpanName::kReqInsert;
};

/// One thread's spans. Bounded: once `capacity` spans are held, further
/// spans are counted as dropped rather than recorded.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity = size_t{1} << 20)
      : capacity_(capacity) {}

  void Add(SpanName name, uint64_t request, uint64_t start, uint64_t end,
           uint64_t rows = 0) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{start, end, request, rows, name});
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Writes every buffer as one Chrome trace ("X" complete events, one tid per
/// buffer), at most `max_events` events in total. Returns false on I/O
/// failure.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanBuffer*>& buffers,
                             const std::vector<std::string>& thread_names,
                             uint64_t origin, size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double us_per_tick = 1e6 / deltamerge::CycleClock::FrequencyHz();
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t t = 0; t < buffers.size(); ++t) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, thread_names[t].c_str());
    first = false;
  }
  size_t written = 0;
  for (size_t t = 0; t < buffers.size(); ++t) {
    for (const Span& s : buffers[t]->spans()) {
      if (written == max_events) break;
      const double ts = static_cast<double>(s.start - origin) * us_per_tick;
      const double dur = static_cast<double>(s.end - s.start) * us_per_tick;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"rows\":%llu}}",
                   kSpanNames[static_cast<size_t>(s.name)], t, ts, dur,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.rows));
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
