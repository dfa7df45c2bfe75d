// Copyright (c) 2026 The DeltaMerge Authors.
// e2e_bench: one end-to-end benchmark of the production configuration.
//
// The configuration is persist::DurablePartitionedTable plus
// PartitionedMergeDaemon, with compaction checkpoints, WAL group commit on
// every commit (kEveryCommit), EnableSharedScans(true) and no read pool.
// Writers mix single-row calls, InsertRows batches and optimistic
// PartitionedTable::Transactions; readers pin a PartitionedSnapshot per
// request. Every loop is closed: each writer and reader is an application
// thread that waits for its reply before sending the next request. The op
// streams are generated from --seed before timing starts.
//
// A run: calibrate -> set up (load + merge the main) several times, keep
// the last table -> warm up -> measure for --seconds -> run on to the next
// merge boundary -> correctness gate (model sums, ScanGate on == off) ->
// close -> reopen -> gate again.
// With --trace 0 the last stdout line carries the end-to-end metrics (CPU
// costs, set-up CPU time and footprint; the wall-clock times are printed
// above it, ungated). With --trace 1 half of the requests (pre-drawn) are
// traced and the line carries the per-layer metrics read from their spans
// and from the layers' own counters, plus the tracing overhead measured
// against the untraced half. See README.md in this directory.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <malloc.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/merge_daemon.h"
#include "core/partitioned_table.h"
#include "model/machine_profile.h"
#include "parallel/task_queue.h"
#include "persist/durable_partitioned_table.h"
#include "trace.h"
#include "util/cycle_clock.h"
#include "util/random.h"

namespace e2e {
namespace {

using deltamerge::CycleClock;
using deltamerge::MachineProfile;
using deltamerge::MergeDaemonPolicy;
using deltamerge::MergeParallelism;
using deltamerge::MergeStats;
using deltamerge::PartitionedMergeDaemon;
using deltamerge::PartitionedMergeDaemonStats;
using deltamerge::PartitionedSnapshot;
using deltamerge::PartitionedTable;
using deltamerge::Rng;
using deltamerge::Schema;
using deltamerge::Status;
using deltamerge::StatusCode;
using deltamerge::Table;
using deltamerge::TableMergeOptions;
using deltamerge::TaskQueue;
using deltamerge::persist::DurablePartitionedTable;
using deltamerge::persist::DurableTableOptions;
using deltamerge::persist::WalSyncPolicy;

constexpr size_t kCols = 4;
// Every transaction buffers 2..8 ops and reads kTxnHotReads rows of a
// kHotRows-row hot set (its readset).
constexpr uint64_t kTxnMinOps = 2;
constexpr uint64_t kTxnMaxOps = 8;
constexpr int kTxnHotReads = 2;
constexpr uint64_t kHotRows = 64;
// The daemon merges on its own thread. With a second merge thread,
// ingest_merge's writer, reader and two merge threads fill a 4-core box and
// each merge's checkpoint writeback competes with them: fewer rows/s and a
// wider spread between runs.
constexpr int kMergeThreads = 1;
using Row = std::array<uint64_t, kCols>;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  // Table shape.
  uint64_t load_rows = 0;
  uint64_t segment_capacity = 0;
  uint64_t domain = 100'000;  ///< distinct values per column (17-bit codes)
  uint64_t load_batch = 65'536;   ///< rows per InsertRows call while loading
  uint64_t merge_every = 0;       ///< loaded rows between MergeAll calls
  int setup_reps = 3;
  // Clients (closed loops); with kMergeThreads their sum is <= nproc.
  int writers = 1;
  int readers = 1;
  // Writer op classes: txn and batch shares; the rest are single-row
  // calls. Single-row calls and txn sub-ops draw insert:modify:delete.
  double p_txn = 0;
  double p_batch = 0;
  std::array<double, 3> write_mix{9, 6, 2};
  double hot_update_frac = 0;  ///< single-row modifies of a shared hot row
  uint32_t batch_rows = 16;    ///< mean InsertRows batch (drawn 0.5x..1.5x)
  /// Writers pace themselves to this many completed reads per write call
  /// (0 = no pacing): a writer waits for the readers before its next call.
  double reads_per_write = 0;
  // Reader classes: lookup (CollectEquals), CountRange, SumColumn,
  // CountEquals.
  std::array<double, 4> read_mix{1, 0, 0, 0};
  double range_frac = 0.001;  ///< CountRange width / domain
};

// Figure 1's write classes (insert : modify : delete) per workload; the
// reader mixes follow Figure 1's read shares (lookup / table scan / range
// select) of the OLTP and OLAP workloads.
bool MakeSpec(const std::string& name, bool smoke, WorkloadSpec* out) {
  WorkloadSpec s;
  s.name = name;
  if (name == "oltp_commit") {
    s.load_rows = 1 << 20;
    s.segment_capacity = 1 << 18;
    s.writers = 2;
    s.readers = 1;
    s.p_txn = 0.35;
    s.p_batch = 0.05;
    s.write_mix = {9, 6, 2};
    s.hot_update_frac = 0.3;
    s.batch_rows = 16;
    s.read_mix = {55, 12, 16, 0};
    s.range_frac = 0.001;
  } else if (name == "ingest_merge") {
    s.load_rows = 3 << 20;
    s.segment_capacity = 16 << 20;
    s.writers = 1;
    s.readers = 1;
    s.p_txn = 0.02;
    s.p_batch = 0.6;
    s.write_mix = {1, 8, 1};
    s.batch_rows = 1024;
    s.read_mix = {20, 70, 10, 0};
    s.range_frac = 0.01;
  } else if (name == "olap_scan") {
    // 14M rows x 4 columns of 17-bit codes: 119 MiB, more than the LLC.
    s.load_rows = 14 << 20;
    // 2M-row segments: at least ScanGate's boarding threshold, so that a
    // sweep two readers share can hold the next one for its window.
    s.segment_capacity = 2 << 20;
    s.writers = 1;
    s.readers = 2;
    // Single-row calls, plus transactions and bulk InsertRows loads, so
    // that every write-side layer metric (and a merge now and then) is
    // measured here too.
    s.p_txn = 0.05;
    s.p_batch = 0.10;
    s.batch_rows = 1024;
    s.write_mix = {10, 3, 1};
    s.read_mix = {18, 27, 39, 9};
    s.range_frac = 0.05;
    // Figure 1's OLAP mix is ~93% reads and ~7% single-row writes.
    s.reads_per_write = 93.0 / 7.0;
    s.setup_reps = 2;  // one load is ~20 s of 4-thread ingest
  } else {
    return false;
  }
  s.merge_every = std::min<uint64_t>(s.segment_capacity, 1 << 20);
  if (smoke) {
    s.load_rows /= 64;
    s.segment_capacity /= 64;
    s.merge_every /= 64;
    s.load_batch = 4096;
    s.setup_reps = 1;
  }
  *out = s;
  return true;
}

// ---------------------------------------------------------------------------
// Inputs and the reference model
// ---------------------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The value the load gives row `row`, column `col`.
uint64_t LoadValue(uint64_t seed, uint64_t row, size_t col, uint64_t domain) {
  return Mix64(seed * 0x100000001b3ULL ^ (row * kCols + col)) % domain;
}

Row LoadRow(uint64_t seed, uint64_t row, uint64_t domain) {
  Row r;
  for (size_t c = 0; c < kCols; ++c) r[c] = LoadValue(seed, row, c, domain);
  return r;
}

/// What the table must hold, built only from acknowledged operations. The
/// table is insert-only with tombstones, so `rows` and `sum_all` count
/// every version ever appended and `valid`/`sum_valid` the live ones.
struct Model {
  uint64_t rows = 0;
  uint64_t valid = 0;
  Row sum_all{};
  Row sum_valid{};

  void Insert(const Row& v) {
    ++rows;
    ++valid;
    for (size_t c = 0; c < kCols; ++c) {
      sum_all[c] += v[c];
      sum_valid[c] += v[c];
    }
  }
  void Update(const Row& old_v, const Row& v) {
    ++rows;
    for (size_t c = 0; c < kCols; ++c) {
      sum_all[c] += v[c];
      sum_valid[c] += v[c] - old_v[c];
    }
  }
  void Delete(const Row& old_v) {
    --valid;
    for (size_t c = 0; c < kCols; ++c) sum_valid[c] -= old_v[c];
  }
  void Add(const Model& d) {
    rows += d.rows;
    valid += d.valid;
    for (size_t c = 0; c < kCols; ++c) {
      sum_all[c] += d.sum_all[c];
      sum_valid[c] += d.sum_valid[c];
    }
  }
};

// ---------------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------------

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// A row of the small hot set. Transactions of every writer read it (their
/// readset); only its owner writer updates it, with single-row UpdateRow,
/// and publishes the new version's id. `vals` is owner-private.
struct HotSlot {
  std::atomic<uint64_t> row{0};
  Row vals{};
};

struct RunShared {
  PartitionedTable* table = nullptr;
  const WorkloadSpec* spec = nullptr;
  std::vector<HotSlot> hot;
  std::atomic<int> phase{kWarmup};
  std::atomic<uint64_t> next_request{1};
  std::atomic<bool> halt{false};  ///< clients return after their request
  std::atomic<uint64_t> reads_done{0};  ///< every reader's finished requests
  std::atomic<bool> bad_read{false};
  bool trace = false;
};

constexpr size_t kNumReq = static_cast<size_t>(SpanName::kNumRequestNames);

/// One finished request: when it ended, how long it took, the CPU time its
/// thread spent on it, and its rows: for a write the rows it wrote (0 if
/// it failed), for a read the rows its snapshot held.
struct Sample {
  uint64_t end = 0;  ///< CycleClock ticks
  uint64_t ticks = 0;
  uint64_t cpu_ns = 0;
  uint64_t rows = 0;
};

/// CPU time the calling thread has used. Time it spends blocked (in
/// fdatasync, on a lock, descheduled) does not count.
uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// One closed-loop client's outcome (measurement window only).
struct ClientStats {
  std::array<std::vector<Sample>, kNumReq> lat_plain;
  std::array<std::vector<Sample>, kNumReq> lat_traced;
  uint64_t write_calls = 0;
  uint64_t user_bytes = 0;
  uint64_t reads = 0;
  uint64_t txn_attempts = 0;
  uint64_t txn_aborts = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checksum = 0;
  SpanBuffer spans;
};

/// Records one finished request if it ran wholly inside the window.
void RecordRequest(RunShared& sh, ClientStats& st, SpanName name,
                   bool traced, uint64_t request, uint64_t t0, uint64_t t1,
                   uint64_t cpu_ns, uint64_t rows, bool started_in_window) {
  if (!started_in_window || sh.phase.load(std::memory_order_relaxed) !=
                                kMeasure) {
    return;
  }
  const size_t i = static_cast<size_t>(name);
  (traced ? st.lat_traced[i] : st.lat_plain[i])
      .push_back(Sample{t1, t1 - t0, cpu_ns, rows});
  if (traced) st.spans.Add(name, request, t0, t1);
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

enum class WKind : uint8_t { kInsert, kUpdate, kDelete, kBatch, kTxn };

struct WriteReq {
  WKind kind = WKind::kInsert;
  bool traced = false;
  bool hot = false;  ///< single-row update of an owned hot row
  uint8_t ops = 0;   ///< txn sub-op count
  uint32_t sel = 0;  ///< pool / hot-slot selector
  uint32_t rows = 1;
  std::array<WKind, 8> sub{};  ///< txn sub-op kinds
};

struct OwnRow {
  uint64_t row;
  Row vals;
};

class Writer {
 public:
  Writer(RunShared* sh, int id, uint64_t seed) : sh_(*sh), id_(id) {
    const WorkloadSpec& s = *sh_.spec;
    Rng rng(seed);
    // Values of new rows, consumed cyclically.
    arena_.resize(size_t{1} << 20);
    for (auto& v : arena_) v = rng.Below(s.domain);
    stream_.resize(size_t{1} << 16);
    const double wsum = s.write_mix[0] + s.write_mix[1] + s.write_mix[2];
    auto draw_class = [&] {
      const double u = rng.NextDouble() * wsum;
      if (u < s.write_mix[0]) return WKind::kInsert;
      if (u < s.write_mix[0] + s.write_mix[1]) return WKind::kUpdate;
      return WKind::kDelete;
    };
    for (WriteReq& r : stream_) {
      const double u = rng.NextDouble();
      r.traced = sh_.trace && (rng.Next() & 1) != 0;
      r.sel = static_cast<uint32_t>(rng.Next());
      if (u < s.p_txn) {
        r.kind = WKind::kTxn;
        r.ops = static_cast<uint8_t>(
            rng.InRange(kTxnMinOps, kTxnMaxOps));
        for (int j = 0; j < r.ops; ++j) r.sub[j] = draw_class();
      } else if (u < s.p_txn + s.p_batch) {
        r.kind = WKind::kBatch;
        r.rows = static_cast<uint32_t>(
            rng.InRange(std::max<uint64_t>(1, s.batch_rows / 2),
                      s.batch_rows * 3 / 2));
      } else {
        r.kind = draw_class();
        r.hot = r.kind == WKind::kUpdate &&
                rng.NextDouble() < s.hot_update_frac;
      }
    }
  }

  void AddPoolRow(uint64_t row, const Row& vals) {
    pool_.push_back(OwnRow{row, vals});
  }

  void Run() {
    const double pace =
        sh_.spec->reads_per_write / static_cast<double>(sh_.spec->writers);
    size_t i = 0;
    uint64_t calls = 0;
    while (!sh_.halt.load(std::memory_order_relaxed)) {
      // The think time of a paced writer: wait until the readers have
      // finished their share of requests.
      while (pace > 0 && !sh_.halt.load(std::memory_order_relaxed) &&
             static_cast<double>(
                 sh_.reads_done.load(std::memory_order_relaxed)) <
                 static_cast<double>(calls) * pace) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      Execute(stream_[i]);
      ++calls;
      if (++i == stream_.size()) i = 0;
    }
  }

  const Model& model() const { return model_; }
  ClientStats& stats() { return st_; }

 private:
  Row NextValues() {
    if (cursor_ + kCols > arena_.size()) cursor_ = 0;
    Row v;
    std::memcpy(v.data(), &arena_[cursor_], sizeof(v));
    cursor_ += kCols;
    return v;
  }

  uint64_t Now() const { return CycleClock::Now(); }

  /// Calls `fn` and records it as a child span of `request` when traced.
  template <typename Fn>
  auto Call(bool traced, SpanName name, uint64_t request, uint64_t rows,
            Fn&& fn) {
    if (!traced) return fn();
    const uint64_t t0 = Now();
    auto result = fn();
    st_.spans.Add(name, request, t0, Now(), rows);
    return result;
  }

  size_t PoolIndex(uint32_t sel) const { return sel % pool_.size(); }

  void Execute(const WriteReq& req) {
    const bool in_window =
        sh_.phase.load(std::memory_order_relaxed) == kMeasure;
    const bool traced = req.traced && in_window;
    const uint64_t request =
        sh_.next_request.fetch_add(1, std::memory_order_relaxed);
    const uint64_t cpu0 = ThreadCpuNs();
    const uint64_t t0 = Now();
    PartitionedTable& t = *sh_.table;
    uint64_t rows = 1;
    bool ok = true;
    SpanName name = SpanName::kReqInsert;
    WKind kind = req.kind;
    // Modifies and deletes need a live own row (or an owned hot row); an
    // empty pool turns them into inserts.
    const bool hot = req.hot && OwnedHotSlots() > 0;
    if (kind == WKind::kDelete || (kind == WKind::kUpdate && !hot)) {
      if (pool_.empty()) kind = WKind::kInsert;
    }
    switch (kind) {
      case WKind::kInsert: {
        const Row v = NextValues();
        const uint64_t row = Call(traced, SpanName::kInsertRow, request, 1,
                                  [&] { return t.InsertRow(v); });
        pool_.push_back(OwnRow{row, v});
        model_.Insert(v);
        break;
      }
      case WKind::kUpdate: {
        name = SpanName::kReqUpdate;
        const Row v = NextValues();
        if (hot) {
          const size_t owned = OwnedHotSlots();
          HotSlot& slot =
              sh_.hot[static_cast<size_t>(id_) +
                      static_cast<size_t>(sh_.spec->writers) *
                          (req.sel % owned)];
          const uint64_t old_row = slot.row.load(std::memory_order_relaxed);
          const uint64_t row = Call(traced, SpanName::kUpdateRow, request, 1,
                                    [&] { return t.UpdateRow(old_row, v); });
          model_.Update(slot.vals, v);
          slot.vals = v;
          slot.row.store(row, std::memory_order_release);
        } else {
          OwnRow& own = pool_[PoolIndex(req.sel)];
          const uint64_t row = Call(traced, SpanName::kUpdateRow, request, 1,
                                    [&] { return t.UpdateRow(own.row, v); });
          model_.Update(own.vals, v);
          own = OwnRow{row, v};
        }
        break;
      }
      case WKind::kDelete: {
        name = SpanName::kReqDelete;
        const size_t idx = PoolIndex(req.sel);
        const Status s = Call(traced, SpanName::kDeleteRow, request, 1,
                              [&] { return t.DeleteRow(pool_[idx].row); });
        if (s.ok()) {
          model_.Delete(pool_[idx].vals);
          RemovePoolIndexes({idx});
        } else {
          ok = false;
          std::fprintf(stderr, "DeleteRow failed: %s\n",
                       s.ToString().c_str());
        }
        break;
      }
      case WKind::kBatch: {
        name = SpanName::kReqBatch;
        rows = req.rows;
        batch_.resize(rows * kCols);
        for (uint64_t r = 0; r < rows; ++r) {
          const Row v = NextValues();
          std::memcpy(&batch_[r * kCols], v.data(), sizeof(v));
        }
        const uint64_t first =
            Call(traced, SpanName::kInsertRows, request, rows,
                 [&] { return t.InsertRows(batch_, rows); });
        // A batch that stays inside one segment lands contiguously (it is
        // appended under that segment's commit lock), so its rows are
        // addressable later.
        const uint64_t cap = t.segment_capacity();
        const bool contiguous = first / cap == (first + rows - 1) / cap;
        for (uint64_t r = 0; r < rows; ++r) {
          Row v;
          std::memcpy(v.data(), &batch_[r * kCols], sizeof(v));
          model_.Insert(v);
          if (contiguous) pool_.push_back(OwnRow{first + r, v});
        }
        break;
      }
      case WKind::kTxn: {
        name = SpanName::kReqTxn;
        rows = req.ops;
        ok = ExecuteTxn(req, traced, request);
        break;
      }
    }
    const uint64_t t1 = Now();
    ++st_.attempted;
    if (!ok) ++st_.failed;
    if (in_window && sh_.phase.load(std::memory_order_relaxed) == kMeasure) {
      ++st_.write_calls;
      if (ok) st_.user_bytes += rows * kCols * sizeof(uint64_t);
    }
    RecordRequest(sh_, st_, name, traced, request, t0, t1,
                  ThreadCpuNs() - cpu0, ok ? rows : 0, in_window);
  }

  size_t OwnedHotSlots() const {
    const size_t w = static_cast<size_t>(sh_.spec->writers);
    const size_t n = sh_.hot.size();
    const size_t id = static_cast<size_t>(id_);
    return n > id ? (n - id + w - 1) / w : 0;
  }

  void RemovePoolIndexes(std::vector<size_t> idx) {
    std::sort(idx.rbegin(), idx.rend());
    for (size_t i : idx) {
      pool_[i] = pool_.back();
      pool_.pop_back();
    }
  }

  /// One optimistic transaction, retried until it commits: its readset is
  /// kTxnHotReads hot rows plus every own row it modifies or deletes.
  bool ExecuteTxn(const WriteReq& req, bool traced, uint64_t request) {
    PartitionedTable& t = *sh_.table;
    // Resolve targets once; a retry re-reads only the hot set.
    std::array<WKind, 8> kinds = req.sub;
    std::array<Row, 8> vals{};
    std::array<size_t, 8> target{};
    std::vector<size_t> used;
    for (int j = 0; j < req.ops; ++j) {
      if (kinds[j] != WKind::kInsert) {
        if (pool_.size() <= used.size()) {
          kinds[j] = WKind::kInsert;
        } else {
          size_t idx = (req.sel + static_cast<size_t>(j) * 2654435761u) %
                       pool_.size();
          while (std::find(used.begin(), used.end(), idx) != used.end()) {
            idx = (idx + 1) % pool_.size();
          }
          used.push_back(idx);
          target[j] = idx;
        }
      }
      if (kinds[j] != WKind::kDelete) vals[j] = NextValues();
    }
    constexpr int kMaxAttempts = 1000;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ++st_.txn_attempts;
      PartitionedTable::Transaction txn = t.BeginTransaction();
      bool stale = false;
      for (int k = 0; k < kTxnHotReads && !sh_.hot.empty(); ++k) {
        const HotSlot& slot =
            sh_.hot[(req.sel + static_cast<size_t>(k) * 40503u + attempt) %
                    sh_.hot.size()];
        if (!txn.ReadRowValid(slot.row.load(std::memory_order_acquire))) {
          stale = true;  // its owner just replaced it: read again
          break;
        }
      }
      if (stale) {
        txn.Abort();
        ++st_.txn_aborts;
        continue;
      }
      for (int j = 0; j < req.ops; ++j) {
        switch (kinds[j]) {
          case WKind::kInsert:
            txn.Insert(vals[j]);
            break;
          case WKind::kUpdate:
            txn.ReadRowValid(pool_[target[j]].row);
            txn.Update(pool_[target[j]].row, vals[j]);
            break;
          default:
            txn.ReadRowValid(pool_[target[j]].row);
            txn.Delete(pool_[target[j]].row);
            break;
        }
      }
      const Status st = Call(traced, SpanName::kTxnCommit, request, req.ops,
                             [&] { return txn.Commit(); });
      if (st.ok()) {
        for (int j = 0; j < req.ops; ++j) {
          switch (kinds[j]) {
            case WKind::kInsert:
              model_.Insert(vals[j]);
              break;
            case WKind::kUpdate:
              model_.Update(pool_[target[j]].vals, vals[j]);
              break;
            default:
              model_.Delete(pool_[target[j]].vals);
              break;
          }
        }
        // New versions written by a transaction are not addressable (Commit
        // returns no row ids), so modified rows leave the pool too.
        RemovePoolIndexes(used);
        return true;
      }
      ++st_.txn_aborts;
      if (st.code() != StatusCode::kAborted) {
        std::fprintf(stderr, "Commit failed: %s\n", st.ToString().c_str());
        return false;
      }
    }
    std::fprintf(stderr, "transaction aborted %d times in a row\n",
                 kMaxAttempts);
    return false;
  }

  RunShared& sh_;
  int id_;
  std::vector<uint64_t> arena_;
  size_t cursor_ = 0;
  std::vector<WriteReq> stream_;
  std::vector<OwnRow> pool_;
  std::vector<uint64_t> batch_;
  Model model_;
  ClientStats st_;
};

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

enum class RKind : uint8_t { kLookup, kCountRange, kSumColumn, kCountEquals };

struct ReadReq {
  RKind kind = RKind::kLookup;
  uint8_t col = 0;
  bool traced = false;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

class Reader {
 public:
  Reader(RunShared* sh, uint64_t seed) : sh_(*sh) {
    const WorkloadSpec& s = *sh_.spec;
    Rng rng(seed);
    const double total =
        s.read_mix[0] + s.read_mix[1] + s.read_mix[2] + s.read_mix[3];
    const uint64_t width = std::max<uint64_t>(
        1, static_cast<uint64_t>(s.range_frac * static_cast<double>(s.domain)));
    stream_.resize(size_t{1} << 16);
    for (ReadReq& r : stream_) {
      double u = rng.NextDouble() * total;
      size_t k = 0;
      while (k < 3 && u >= s.read_mix[k]) u -= s.read_mix[k++];
      r.kind = static_cast<RKind>(k);
      r.col = static_cast<uint8_t>(rng.Below(kCols));
      r.traced = sh_.trace && (rng.Next() & 1) != 0;
      r.lo = rng.Below(s.domain);
      r.hi = std::min(s.domain - 1, r.lo + width - 1);
    }
  }

  void Run() {
    size_t i = 0;
    while (!sh_.halt.load(std::memory_order_relaxed)) {
      Execute(stream_[i]);
      if (++i == stream_.size()) i = 0;
    }
  }

  ClientStats& stats() { return st_; }

 private:
  void Execute(const ReadReq& req) {
    const bool in_window =
        sh_.phase.load(std::memory_order_relaxed) == kMeasure;
    const bool traced = req.traced && in_window;
    const uint64_t request =
        sh_.next_request.fetch_add(1, std::memory_order_relaxed);
    const uint64_t cpu0 = ThreadCpuNs();
    const uint64_t t0 = CycleClock::Now();
    PartitionedSnapshot snap = sh_.table->CreateSnapshot();
    const uint64_t t1 = CycleClock::Now();
    const uint64_t n = snap.num_rows();
    SpanName name = SpanName::kReqLookup;
    SpanName call = SpanName::kCollectEquals;
    bool good = true;
    switch (req.kind) {
      case RKind::kLookup: {
        const std::vector<uint64_t> rows =
            snap.CollectEquals(req.col, req.lo, /*only_valid=*/true);
        // Every returned row must be live, in order, and hold the key.
        for (size_t k = 0; k < rows.size(); ++k) {
          good &= rows[k] < n && (k == 0 || rows[k - 1] < rows[k]) &&
                  snap.IsRowValid(rows[k]) &&
                  snap.GetKey(req.col, rows[k]) == req.lo;
        }
        st_.checksum += rows.size();
        break;
      }
      case RKind::kCountRange: {
        name = SpanName::kReqCountRange;
        call = SpanName::kCountRange;
        const uint64_t c = snap.CountRange(req.col, req.lo, req.hi);
        good = c <= n;
        st_.checksum += c;
        break;
      }
      case RKind::kSumColumn: {
        name = SpanName::kReqSumColumn;
        call = SpanName::kSumColumn;
        // Versions are never removed, so a column's sum over all rows can
        // only grow from one snapshot to the next.
        const uint64_t sum = snap.SumColumn(req.col);
        good = sum >= last_sum_[req.col];
        last_sum_[req.col] = sum;
        st_.checksum += sum;
        break;
      }
      case RKind::kCountEquals: {
        name = SpanName::kReqCountEquals;
        call = SpanName::kCountEquals;
        const uint64_t c = snap.CountEquals(req.col, req.lo);
        good = c <= n;
        st_.checksum += c;
        break;
      }
    }
    const uint64_t t2 = CycleClock::Now();
    snap.Release();
    const uint64_t t3 = CycleClock::Now();
    if (!good) sh_.bad_read.store(true);
    sh_.reads_done.fetch_add(1, std::memory_order_relaxed);
    ++st_.attempted;
    if (in_window && sh_.phase.load(std::memory_order_relaxed) == kMeasure) {
      ++st_.reads;
    }
    if (traced && in_window) {
      st_.spans.Add(SpanName::kSnapshotCapture, request, t0, t1);
      st_.spans.Add(call, request, t1, t2, n);
    }
    RecordRequest(sh_, st_, name, traced, request, t0, t3,
                  ThreadCpuNs() - cpu0, n, in_window);
  }

  RunShared& sh_;
  std::vector<ReadReq> stream_;
  Row last_sum_{};
  ClientStats st_;
};

// ---------------------------------------------------------------------------
// Set-up, layer counters and the correctness gate
// ---------------------------------------------------------------------------

DurableTableOptions TableOptions() {
  DurableTableOptions o;
  o.wal.policy = WalSyncPolicy::kEveryCommit;  // group commit, every commit
  return o;
}

Schema TableSchema() { return Schema::Uniform(kCols, sizeof(uint64_t)); }

std::unique_ptr<DurablePartitionedTable> OpenTable(const std::string& dir,
                                                   const WorkloadSpec& s) {
  auto opened = DurablePartitionedTable::Open(dir, TableSchema(),
                                              s.segment_capacity,
                                              TableOptions());
  if (!opened.ok()) {
    std::fprintf(stderr, "Open(%s) failed: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return nullptr;
  }
  return std::move(opened).ValueOrDie();
}

/// Loads the workload's rows in InsertRows batches (every batch one WAL
/// record and one fsync) and merges them into the main every
/// `merge_every` rows. Returns false on an unexpected row id.
bool LoadTable(PartitionedTable& t, const WorkloadSpec& s, uint64_t seed) {
  TaskQueue queue(3);  // plus the calling thread: 4 threads
  TableMergeOptions merge;
  merge.num_threads = 4;
  merge.parallelism = MergeParallelism::kIntraColumn;
  std::vector<uint64_t> buf(s.load_batch * kCols);
  for (uint64_t r0 = 0; r0 < s.load_rows; r0 += s.load_batch) {
    const uint64_t n = std::min(s.load_batch, s.load_rows - r0);
    for (uint64_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        buf[r * kCols + c] = LoadValue(seed, r0 + r, c, s.domain);
      }
    }
    if (t.InsertRows(std::span<const uint64_t>(buf.data(), n * kCols), n,
                     &queue) != r0) {
      return false;
    }
    if ((r0 + n) % s.merge_every == 0 || r0 + n == s.load_rows) {
      t.MergeAll(merge);
    }
  }
  return true;
}

Model LoadModel(const WorkloadSpec& s, uint64_t seed) {
  Model m;
  for (uint64_t r = 0; r < s.load_rows; ++r) {
    m.Insert(LoadRow(seed, r, s.domain));
  }
  return m;
}

/// Counters read from the persist layer, summed over segments.
struct PersistCounters {
  uint64_t syncs = 0;
  uint64_t checkpoints = 0;
  uint64_t uncheckpointed = 0;
};

PersistCounters ReadPersist(const DurablePartitionedTable& d) {
  PersistCounters p;
  for (size_t i = 0; i < d.num_durable_segments(); ++i) {
    const auto& seg = d.durable_segment(i);
    p.syncs += seg.wal().sync_count();
    const auto ds = seg.durability_stats();
    p.checkpoints += ds.checkpoints_written;
    p.uncheckpointed += ds.uncheckpointed_records;
  }
  return p;
}

uint64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// CPU time every thread of the process has used.
double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resident set size now, from /proc/self/statm.
double RssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  in >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Commits everything written or removed on the file system holding
/// `dir`, so that the writeback (and, on a discard-mounted disk, the block
/// frees) of earlier work does not stall the fsyncs timed next.
void SyncFileSystem(const fs::path& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Removes `dir` and commits the removal.
void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  SyncFileSystem(fs::path(dir).parent_path());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// Compares the table with the model: row counts, every column's sum over
/// all versions, and every column's sum over the live rows (read per
/// segment with Snapshot::SumColumnValid). Writers must be stopped.
bool CheckModel(PartitionedTable& t, const Model& want, const char* when) {
  bool good = true;
  auto expect = [&](const char* what, size_t col, uint64_t got,
                    uint64_t expected) {
    if (got == expected) return;
    good = false;
    std::fprintf(stderr,
                 "correctness gate FAILED (%s): %s col %zu = %llu, model "
                 "expects %llu\n",
                 when, what, col, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(expected));
  };
  PartitionedSnapshot snap = t.CreateSnapshot();
  expect("num_rows", 0, snap.num_rows(), want.rows);
  expect("valid_rows", 0, t.valid_rows(), want.valid);
  Row valid_sum{};
  for (size_t i = 0; i < t.num_segments(); ++i) {
    deltamerge::Snapshot seg = t.segment(i).CreateSnapshot();
    for (size_t c = 0; c < kCols; ++c) valid_sum[c] += seg.SumColumnValid(c);
  }
  for (size_t c = 0; c < kCols; ++c) {
    expect("SumColumn(all versions)", c, snap.SumColumn(c), want.sum_all[c]);
    expect("SumColumn(valid rows)", c, valid_sum[c], want.sum_valid[c]);
  }
  return good;
}

/// Every read class answered on a snapshot with ScanGate on (from two
/// threads at once, so their sweeps share) must equal the answers with it
/// off. Writers must be stopped, so both snapshots see one state.
bool CheckGate(PartitionedTable& t, const WorkloadSpec& s, uint64_t seed) {
  struct Query {
    RKind kind;
    size_t col;
    uint64_t lo, hi;
  };
  std::vector<Query> queries;
  Rng rng(seed ^ 0x6a7e);
  for (size_t c = 0; c < kCols; ++c) {
    for (int k = 0; k < 3; ++k) {
      const uint64_t lo = rng.Below(s.domain);
      queries.push_back({RKind::kCountRange, c, lo,
                         lo + rng.Below(s.domain / 10 + 1)});
      queries.push_back({RKind::kCountEquals, c, lo, lo});
    }
    queries.push_back({RKind::kSumColumn, c, 0, 0});
    queries.push_back({RKind::kLookup, c, rng.Below(s.domain), 0});
  }
  auto answer = [&](const PartitionedSnapshot& snap, const Query& q) {
    switch (q.kind) {
      case RKind::kCountRange:
        return snap.CountRange(q.col, q.lo, q.hi);
      case RKind::kCountEquals:
        return snap.CountEquals(q.col, q.lo);
      case RKind::kSumColumn:
        return snap.SumColumn(q.col);
      case RKind::kLookup: {
        uint64_t h = 0;
        for (uint64_t r : snap.CollectEquals(q.col, q.lo, true)) {
          h = Mix64(h ^ r);
        }
        return h;
      }
    }
    return uint64_t{0};
  };
  t.EnableSharedScans(true);
  PartitionedSnapshot gated = t.CreateSnapshot();
  std::array<std::vector<uint64_t>, 2> shared;
  {
    std::vector<std::thread> th;
    for (size_t k = 0; k < 2; ++k) {
      th.emplace_back([&, k] {
        for (const Query& q : queries) shared[k].push_back(answer(gated, q));
      });
    }
    for (auto& x : th) x.join();
  }
  t.EnableSharedScans(false);
  PartitionedSnapshot solo = t.CreateSnapshot();
  t.EnableSharedScans(true);
  bool good = gated.num_rows() == solo.num_rows() &&
              gated.valid_rows() == solo.valid_rows();
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t want = answer(solo, queries[i]);
    if (shared[0][i] != want || shared[1][i] != want) {
      good = false;
      std::fprintf(stderr,
                   "correctness gate FAILED: query %zu (kind %d col %zu) "
                   "ScanGate on = %llu/%llu, off = %llu\n",
                   i, static_cast<int>(queries[i].kind), queries[i].col,
                   static_cast<unsigned long long>(shared[0][i]),
                   static_cast<unsigned long long>(shared[1][i]),
                   static_cast<unsigned long long>(want));
    }
  }
  return good;
}

// ---------------------------------------------------------------------------
// Calibration (printed, not gated)
// ---------------------------------------------------------------------------

struct Calibration {
  unsigned nproc = 0;
  double tsc_ghz = 0;
  bool avx2 = false;
  double stream_bytes_per_cycle = 0;
  double fdatasync_p50_us = 0;
  MachineProfile profile;
};

double FdatasyncP50Us(const std::string& dir) {
  const std::string path = dir + "/fdatasync-probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::vector<double> us;
  char block[4096];
  std::memset(block, 'x', sizeof(block));
  for (int i = 0; i < 32; ++i) {
    if (::write(fd, block, sizeof(block)) !=
        static_cast<ssize_t>(sizeof(block))) {
      break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (::fdatasync(fd) != 0) break;
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  ::close(fd);
  ::unlink(path.c_str());
  if (us.empty()) return 0;
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

Calibration Calibrate(const std::string& dir) {
  Calibration c;
  c.nproc = std::thread::hardware_concurrency();
  c.tsc_ghz = CycleClock::FrequencyHz() / 1e9;
#if defined(__x86_64__)
  c.avx2 = __builtin_cpu_supports("avx2");
#endif
  c.fdatasync_p50_us = FdatasyncP50Us(dir);
  return c;
}

/// Host bandwidth for the §6 model and the roof. Run after peak RSS has
/// been read: its buffers are larger than the LLC.
void CalibrateBandwidth(Calibration* c) {
  constexpr size_t kBufferBytes = size_t{256} << 20;
  MachineProfile& m = c->profile;
  m.frequency_hz = CycleClock::FrequencyHz();
  m.stream_bytes_per_cycle =
      deltamerge::MeasureStreamBandwidth(kBufferBytes, 1);
  m.random_bytes_per_cycle =
      deltamerge::MeasureRandomGatherBandwidth(kBufferBytes, 1);
  m.llc_bytes = static_cast<double>(deltamerge::DetectLlcBytes());
  m.cores = kMergeThreads;
  c->stream_bytes_per_cycle = m.stream_bytes_per_cycle;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place); 0 for no samples.
double Percentile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size(), std::max<size_t>(rank, 1)) -
                               1]);
}

double TicksToUs(double ticks) {
  return ticks / CycleClock::FrequencyHz() * 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Splits [start, end) into `slices` equal parts, evaluates `stat(samples,
/// part_seconds)` on the samples that ended in each part, and returns the
/// median over the parts: interference from outside the process (other
/// tenants of the box) then moves only the parts it overlaps.
template <typename Stat>
double SliceMedian(const std::vector<Sample>& samples, uint64_t start,
                   uint64_t end, size_t slices, Stat&& stat) {
  std::vector<std::vector<uint64_t>> ticks(slices);
  std::vector<double> rows(slices, 0.0);
  const double width =
      static_cast<double>(end - start) / static_cast<double>(slices);
  for (const Sample& x : samples) {
    if (x.end < start) continue;
    const size_t k = std::min(
        slices - 1,
        static_cast<size_t>(static_cast<double>(x.end - start) / width));
    ticks[k].push_back(x.ticks);
    rows[k] += static_cast<double>(x.rows);
  }
  const double part_s = CycleClock::ToSeconds(end - start) /
                        static_cast<double>(slices);
  std::vector<double> per_part;
  for (size_t k = 0; k < slices; ++k) {
    per_part.push_back(stat(ticks[k], rows[k], part_s));
  }
  return Median(per_part);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
  bool smoke = false;
  bool inject_error = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (k == "--workload") {
      a->workload = val();
    } else if (k == "--seed") {
      a->seed = std::strtoull(val(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(val(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(val(), "1") == 0;
    } else if (k == "--dir") {
      a->dir = val();
    } else if (k == "--trace-out") {
      a->trace_out = val();
    } else if (k == "--smoke") {
      a->smoke = true;
    } else if (k == "--inject-sum-error") {
      a->inject_error = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload oltp_commit|ingest_merge|"
                 "olap_scan --dir DIR [--seed N] [--seconds S] [--trace 0|1]"
                 " [--trace-out FILE] [--smoke] [--inject-sum-error]\n");
    return 1;
  }
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 1;
  }
  std::error_code ec;
  RemoveDir(args.dir);
  fs::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.dir.c_str());
    return 1;
  }

  // --- calibration ---
  Calibration cal = Calibrate(args.dir);
  const int threads = spec.writers + spec.readers + kMergeThreads;
  std::printf("workload %s: %d writer(s) + %d reader(s) + %d merge "
              "thread(s) = %d threads, %llu rows x %zu cols, segment "
              "capacity %llu, seed %llu, %s\n",
              spec.name.c_str(), spec.writers, spec.readers,
              kMergeThreads, threads,
              static_cast<unsigned long long>(spec.load_rows), kCols,
              static_cast<unsigned long long>(spec.segment_capacity),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  if (cal.nproc != 0 && static_cast<unsigned>(threads) > cal.nproc) {
    std::printf("note: %d threads on %u cores\n", threads, cal.nproc);
  }

  // --- set-up: load + merge the main, several times; keep the last ---
  const std::string table_dir = args.dir + "/table";
  // Each set-up is timed twice: wall-clock, and the CPU seconds all of
  // the process's threads spent on it. The CPU seconds are gated; see the
  // metrics below.
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::unique_ptr<DurablePartitionedTable> durable;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    durable.reset();
    RemoveDir(table_dir);
    const double c0 = ProcessCpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    durable = OpenTable(table_dir, spec);
    if (durable == nullptr || !LoadTable(durable->table(), spec, args.seed)) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
  }
  Model want = LoadModel(spec, args.seed);
  // Return what the discarded set-ups freed, so that the RSS sampled during
  // the run is the kept table's and the clients'.
  ::malloc_trim(0);
  SyncFileSystem(table_dir);
  PartitionedTable& table = durable->table();
  table.EnableSharedScans(true);

  // --- clients ---
  RunShared sh;
  sh.table = &table;
  sh.spec = &spec;
  sh.trace = args.trace;
  sh.hot = std::vector<HotSlot>(std::min<uint64_t>(kHotRows,
                                                   spec.load_rows / 4));
  for (size_t i = 0; i < sh.hot.size(); ++i) {
    sh.hot[i].row.store(i);
    sh.hot[i].vals = LoadRow(args.seed, i, spec.domain);
  }
  std::vector<std::unique_ptr<Writer>> writers;
  std::vector<std::unique_ptr<Reader>> readers;
  for (int w = 0; w < spec.writers; ++w) {
    writers.push_back(std::make_unique<Writer>(
        &sh, w, Mix64(args.seed * 1000 + static_cast<uint64_t>(w))));
  }
  for (int r = 0; r < spec.readers; ++r) {
    readers.push_back(std::make_unique<Reader>(
        &sh, Mix64(args.seed * 1000 + 500 + static_cast<uint64_t>(r))));
  }
  // Each writer owns an evenly spread sample of the loaded rows (past the
  // hot set) as the targets of its modifies and deletes.
  {
    const uint64_t first = sh.hot.size();
    const uint64_t span = spec.load_rows - first;
    const uint64_t n = std::min<uint64_t>(131'072, span / 2);
    for (uint64_t k = 0; k < n; ++k) {
      const uint64_t row = first + k * (span / n);
      writers[k % writers.size()]->AddPoolRow(
          row, LoadRow(args.seed, row, spec.domain));
    }
  }

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 1024;
  policy.compact_uncheckpointed_records = 4096;
  TableMergeOptions merge_options;
  merge_options.num_threads = kMergeThreads;
  auto daemon = std::make_unique<PartitionedMergeDaemon>(&table, policy,
                                                         merge_options);
  daemon->Start();

  std::vector<std::thread> threads_run;
  for (auto& w : writers) threads_run.emplace_back([&w] { w->Run(); });
  for (auto& r : readers) threads_run.emplace_back([&r] { r->Run(); });

  // --- warm-up, then the measurement window ---
  const double warmup_s = std::clamp(args.seconds * 0.1, 0.2, 1.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const PartitionedMergeDaemonStats m0 = daemon->stats();
  const PersistCounters p0 = ReadPersist(*durable);
  const uint64_t wchar0 = ProcWriteBytes();
  const auto gate0 = table.shared_scan_stats();
  const uint64_t w_start = CycleClock::Now();
  sh.phase.store(kMeasure);
  std::vector<double> delta_rows_samples;
  std::vector<double> rss_mb = {RssMb()};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(args.seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    rss_mb.push_back(RssMb());
    if (args.trace) {
      delta_rows_samples.push_back(static_cast<double>(table.delta_rows()));
    }
  }
  sh.phase.store(kStop);
  const uint64_t w_end = CycleClock::Now();
  const PartitionedMergeDaemonStats m1 = daemon->stats();
  const PersistCounters p1 = ReadPersist(*durable);
  const uint64_t wchar1 = ProcWriteBytes();
  const auto gate1 = table.shared_scan_stats();
  // End at a merge boundary: the clients keep running (unmeasured) until
  // a merge has completed since the window closed and the next one starts
  // (or completes too), at most 3 s. The merge in flight at the halt then
  // covers nearly every row written, so the WAL backlog reopen replays does
  // not depend on where in the merge cycle the window happened to end.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  auto merges_since = [&] {
    return daemon->stats().segments_merged - m1.segments_merged;
  };
  auto wait_while = [&](auto&& pending) {
    while (pending() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  wait_while([&] { return merges_since() == 0; });
  wait_while([&] { return !daemon->merge_in_flight() && merges_since() < 2; });
  sh.halt.store(true);
  for (auto& th : threads_run) th.join();
  daemon->Stop();
  const double window_s = CycleClock::ToSeconds(w_end - w_start);

  // --- correctness gate before close ---
  for (auto& w : writers) want.Add(w->model());
  if (args.inject_error) want.sum_valid[0] += 1;
  bool correct = !sh.bad_read.load();
  if (!correct) std::fprintf(stderr, "correctness gate FAILED: bad read\n");
  correct &= CheckModel(table, want, "before close");
  correct &= CheckGate(table, spec, args.seed);
  const uint64_t uncheckpointed_end = ReadPersist(*durable).uncheckpointed;

  // --- close, measure the footprint, reopen, check again ---
  daemon.reset();
  durable.reset();
  const double disk_bytes = static_cast<double>(DirBytes(table_dir));
  // Reopen three times (the median is reported); the gate checks the first
  // recovery.
  std::vector<double> reopen_s;
  std::vector<double> reopen_cpu_s;
  uint64_t recovery_wal_records = 0;
  for (int rep = 0; rep < 3 && correct; ++rep) {
    const double c0 = ProcessCpuSeconds();
    const auto r0 = std::chrono::steady_clock::now();
    durable = OpenTable(table_dir, spec);
    reopen_s.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - r0)
                           .count());
    reopen_cpu_s.push_back(ProcessCpuSeconds() - c0);
    if (durable == nullptr) {
      correct = false;
    } else if (rep == 0) {
      for (const auto& seg : durable->recovery().segments) {
        recovery_wal_records += seg.wal_records_applied;
      }
      correct &= CheckModel(durable->table(), want, "after reopen");
    }
    durable.reset();
  }
  CalibrateBandwidth(&cal);
  std::printf("calibration: nproc=%u tsc_ghz=%.3f avx2=%s llc_mb=%.1f "
              "stream_bytes_per_cycle=%.2f fdatasync_p50_us=%.1f\n",
              cal.nproc, cal.tsc_ghz, cal.avx2 ? "yes" : "no",
              cal.profile.llc_bytes / (1024.0 * 1024.0),
              cal.stream_bytes_per_cycle, cal.fdatasync_p50_us);

  // --- aggregate the clients ---
  std::vector<ClientStats*> all;
  for (auto& w : writers) all.push_back(&w->stats());
  for (auto& r : readers) all.push_back(&r->stats());
  ClientStats sum;
  for (ClientStats* c : all) {
    for (size_t i = 0; i < kNumReq; ++i) {
      sum.lat_plain[i].insert(sum.lat_plain[i].end(), c->lat_plain[i].begin(),
                              c->lat_plain[i].end());
      sum.lat_traced[i].insert(sum.lat_traced[i].end(),
                               c->lat_traced[i].begin(),
                               c->lat_traced[i].end());
    }
    sum.write_calls += c->write_calls;
    sum.user_bytes += c->user_bytes;
    sum.reads += c->reads;
    sum.txn_attempts += c->txn_attempts;
    sum.txn_aborts += c->txn_aborts;
    sum.attempted += c->attempted;
    sum.failed += c->failed;
    sum.checksum += c->checksum;
  }
  auto merged = [&](std::initializer_list<SpanName> names, bool traced) {
    std::vector<Sample> v;
    for (SpanName n : names) {
      const auto& src = (traced ? sum.lat_traced : sum.lat_plain)[
          static_cast<size_t>(n)];
      v.insert(v.end(), src.begin(), src.end());
    }
    return v;
  };
  const std::initializer_list<SpanName> kWrites = {
      SpanName::kReqInsert, SpanName::kReqUpdate, SpanName::kReqDelete,
      SpanName::kReqBatch, SpanName::kReqTxn};
  const std::initializer_list<SpanName> kScans = {
      SpanName::kReqCountRange, SpanName::kReqSumColumn,
      SpanName::kReqCountEquals};

  std::vector<Metric> metrics;
  const double live_rows =
      static_cast<double>(std::max<uint64_t>(want.valid, 1));
  if (!args.trace) {
    // The gated read metrics are CPU costs: the CPU time the reader spent
    // on its requests (time blocked on a lock or descheduled does not
    // count) per row of the snapshot read. On a shared VM the wall-clock
    // times below swing 2-4x for minutes at a time with the disk and the
    // neighbours; these CPU costs move by a fraction of that. The
    // wall-clock times are printed, not gated.
    const std::vector<Sample> w = merged(kWrites, false);
    const std::vector<Sample> l = merged({SpanName::kReqLookup}, false);
    const std::vector<Sample> s = merged(kScans, false);
    // Full-column sums cost ~5-10x a predicate count, so each class gets its
    // own statistics: over the mix, a median would flip between the two.
    const std::vector<Sample> sums = merged({SpanName::kReqSumColumn}, false);
    const std::vector<Sample> counts = merged(
        {SpanName::kReqCountRange, SpanName::kReqCountEquals}, false);
    // Percentiles are taken over the whole window's samples; rates are
    // medians over five equal slices of it (see SliceMedian).
    constexpr size_t kSlices = 5;
    auto pct = [&](const std::vector<Sample>& v, double q) {
      std::vector<uint64_t> ticks;
      for (const Sample& x : v) ticks.push_back(x.ticks);
      return TicksToUs(Percentile(ticks, q));
    };
    auto rate = [&](const std::vector<Sample>& v, bool count_rows) {
      return SliceMedian(v, w_start, w_end, kSlices,
                         [count_rows](std::vector<uint64_t>& t, double rows,
                                      double part_s) {
                           return (count_rows ? rows
                                              : static_cast<double>(
                                                    t.size())) /
                                  part_s;
                         });
    };
    // Median over the requests of CPU ns per row written or per snapshot
    // row read.
    auto cpu_ns_per_row = [](const std::vector<Sample>& v) {
      std::vector<double> ns;
      for (const Sample& x : v) {
        if (x.rows > 0) {
          ns.push_back(static_cast<double>(x.cpu_ns) /
                       static_cast<double>(x.rows));
        }
      }
      return Median(ns);
    };
    std::printf("samples: %zu write calls, %zu lookups, %zu scans (%zu sums, "
                "%zu counts) in %.2f s; reads are %.1f%% of requests\n",
                w.size(), l.size(), s.size(), sums.size(), counts.size(),
                window_s,
                100.0 * static_cast<double>(l.size() + s.size()) /
                    static_cast<double>(
                        std::max<size_t>(1, w.size() + l.size() + s.size())));
    std::printf("wall-clock (ungated): write_rows_per_s %.1f write_p50_us %.1f "
                "write_p90_us %.1f write_p99_us %.1f lookup_p50_us %.1f "
                "lookup_p90_us %.1f lookup_p99_us %.1f scan_qps %.1f "
                "sum_p50_us %.1f count_p50_us %.1f count_p90_us %.1f "
                "reopen_s %.3f peak_rss_mb %.1f setup_wall_s %.3f\n",
                rate(w, true), pct(w, 0.50), pct(w, 0.90), pct(w, 0.99),
                pct(l, 0.50), pct(l, 0.90), pct(l, 0.99), rate(s, false),
                pct(sums, 0.50), pct(counts, 0.50), pct(counts, 0.90),
                Median(reopen_s),
                *std::max_element(rss_mb.begin(), rss_mb.end()),
                Median(setup_s));
    // Not gated either. A write call's CPU time grows with the disk's
    // fdatasync latency (oltp_commit: ~55 us/row at ~0.1 ms, 70-90 at
    // ~0.25 ms), with or without group-commit boarding. A sum's cost is set
    // by how much of the host's LLC the other tenants leave it (it
    // histograms 17-bit codes): its median moved by 18-26% on every
    // workload between two sets of runs 20 minutes apart.
    std::printf("cpu (ungated): write_cpu_us_per_row %.3f sum_cpu_ns_per_row "
                "%.3f\n",
                cpu_ns_per_row(w) / 1e3, cpu_ns_per_row(sums));
    metrics = {
        // CPU seconds, not wall-clock: a set-up writes its table through
        // the WAL and checkpoints, and its wall-clock time moved by up to
        // 24% between sets of runs with the host's disk and CPU steal.
        {"setup_s", Median(setup_cpu_s), "s"},
        {"lookup_cpu_ns_per_row", cpu_ns_per_row(l), "ns/row"},
        {"count_cpu_ns_per_row", cpu_ns_per_row(counts), "ns/row"},
        // Per live row: a closed loop writes more rows when the code gets
        // faster, and a bigger table must not read as a regression.
        {"reopen_cpu_ns_per_row", Median(reopen_cpu_s) * 1e9 / live_rows,
         "ns/row"},
        {"disk_bytes_per_row", disk_bytes / live_rows, "B/row"},
        // The median RSS sample: a merge's transient peak lands in some
        // windows and not in others.
        {"rss_bytes_per_row", Median(rss_mb) * 1024 * 1024 / live_rows,
         "B/row"},
    };
  } else {
    // Per-layer numbers, from the traced half of the requests and from the
    // layers' counters over the window.
    std::array<std::vector<uint64_t>, static_cast<size_t>(SpanName::kNumNames)>
        calls;
    std::array<uint64_t, static_cast<size_t>(SpanName::kNumNames)> call_rows{};
    double request_ticks = 0;
    double query_ticks = 0;
    std::vector<double> cycles_per_code;
    std::vector<const SpanBuffer*> buffers;
    std::vector<std::string> names;
    uint64_t dropped = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      buffers.push_back(&all[i]->spans);
      names.push_back(i < writers.size()
                          ? "writer-" + std::to_string(i)
                          : "reader-" + std::to_string(i - writers.size()));
      dropped += all[i]->spans.dropped();
      // A request still running when the window closed has child spans
      // but no request span; its calls are left out with it.
      std::unordered_set<uint64_t> recorded;
      for (const Span& sp : all[i]->spans.spans()) {
        if (IsRequest(sp.name)) recorded.insert(sp.request);
      }
      for (const Span& sp : all[i]->spans.spans()) {
        const uint64_t d = sp.end - sp.start;
        if (IsRequest(sp.name)) {
          request_ticks += static_cast<double>(d);
          continue;
        }
        if (!recorded.contains(sp.request)) continue;
        calls[static_cast<size_t>(sp.name)].push_back(d);
        call_rows[static_cast<size_t>(sp.name)] += sp.rows;
        if (IsQueryCall(sp.name)) query_ticks += static_cast<double>(d);
        if (sp.name == SpanName::kCountRange && sp.rows > 0) {
          cycles_per_code.push_back(static_cast<double>(d) /
                                    static_cast<double>(sp.rows));
        }
      }
    }
    if (!args.trace_out.empty() &&
        !WriteChromeTrace(args.trace_out, buffers, names, w_start, 200'000)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
    auto p = [&](SpanName n, double q) {
      return TicksToUs(Percentile(calls[static_cast<size_t>(n)], q));
    };
    // Tracing overhead: traced vs untraced median latency per request
    // class, weighted by the class's traced request count. Medians, because
    // a merge pause that lands on a few requests of one half would move a
    // mean by tens of percent.
    auto median_ticks = [](const std::vector<Sample>& v) {
      std::vector<double> t;
      for (const Sample& x : v) t.push_back(static_cast<double>(x.ticks));
      return Median(t);
    };
    double overhead = 0;
    double weight = 0;
    for (size_t i = 0; i < kNumReq; ++i) {
      const auto& a = sum.lat_traced[i];
      const auto& b = sum.lat_plain[i];
      if (a.empty() || b.empty()) continue;
      overhead += (median_ticks(a) / median_ticks(b) - 1.0) *
                  static_cast<double>(a.size());
      weight += static_cast<double>(a.size());
    }
    const MergeStats ms = [&] {
      MergeStats d;
      d.cycles_step1a = m1.merge.cycles_step1a - m0.merge.cycles_step1a;
      d.cycles_step1b = m1.merge.cycles_step1b - m0.merge.cycles_step1b;
      d.cycles_step2 = m1.merge.cycles_step2 - m0.merge.cycles_step2;
      d.cycles_total = m1.merge.cycles_total - m0.merge.cycles_total;
      d.columns = m1.merge.columns - m0.merge.columns;
      d.nm = m1.merge.nm - m0.merge.nm;
      d.nd = m1.merge.nd - m0.merge.nd;
      d.um = m1.merge.um - m0.merge.um;
      d.ud = m1.merge.ud - m0.merge.ud;
      return d;
    }();
    const double merge_wall_s =
        CycleClock::ToSeconds(m1.merge_wall_cycles - m0.merge_wall_cycles);
    double projected_s = 0;
    if (ms.columns > 0) {
      Table::ColumnShape shape;
      shape.nm = ms.nm / ms.columns;
      shape.nd_active = ms.nd / ms.columns;
      shape.um = ms.um / ms.columns;
      shape.ud = ms.ud / ms.columns;
      shape.value_width = sizeof(uint64_t);
      projected_s = deltamerge::ProjectedMergeSeconds(
                        {shape}, cal.profile, kMergeThreads) *
                    static_cast<double>(ms.columns);
    }
    const double code_bits =
        std::ceil(std::log2(static_cast<double>(spec.domain)));
    const double cpc = Median(cycles_per_code);
    const double gate_sweeps =
        static_cast<double>(gate1.sweeps - gate0.sweeps);
    const double gate_served =
        static_cast<double>(gate1.queries_served - gate0.queries_served);
    const double write_calls = static_cast<double>(sum.write_calls);
    const auto per_row_us = [&](SpanName n) {
      const size_t i = static_cast<size_t>(n);
      double total = 0;
      for (uint64_t d : calls[i]) total += static_cast<double>(d);
      return call_rows[i] == 0
                 ? 0.0
                 : TicksToUs(total) / static_cast<double>(call_rows[i]);
    };
    std::printf("traced spans: %zu dropped; %.0f%% of requests traced\n",
                static_cast<size_t>(dropped), 50.0);
    metrics = {
        {"core.insert_row_p50_us", p(SpanName::kInsertRow, 0.5), "us"},
        {"core.update_row_p50_us", p(SpanName::kUpdateRow, 0.5), "us"},
        {"core.delete_row_p50_us", p(SpanName::kDeleteRow, 0.5), "us"},
        {"core.txn_commit_p50_us", p(SpanName::kTxnCommit, 0.5), "us"},
        {"core.txn_commit_p99_us", p(SpanName::kTxnCommit, 0.99), "us"},
        {"core.txn_abort_ratio",
         sum.txn_attempts == 0 ? 0.0
                               : static_cast<double>(sum.txn_aborts) /
                                     static_cast<double>(sum.txn_attempts),
         "ratio"},
        {"core.insert_rows_us_per_row", per_row_us(SpanName::kInsertRows),
         "us/row"},
        {"core.snapshot_capture_p50_us", p(SpanName::kSnapshotCapture, 0.5),
         "us"},
        {"core.snapshot_capture_p99_us", p(SpanName::kSnapshotCapture, 0.99),
         "us"},
        {"core.delta_rows_mean",
         delta_rows_samples.empty()
             ? 0.0
             : [&] {
                 double t = 0;
                 for (double x : delta_rows_samples) t += x;
                 return t / static_cast<double>(delta_rows_samples.size());
               }(),
         "rows"},
        {"persist.fsyncs_per_write_call",
         write_calls == 0 ? 0.0
                          : static_cast<double>(p1.syncs - p0.syncs) /
                                write_calls,
         "count"},
        {"persist.fsyncs_per_s",
         static_cast<double>(p1.syncs - p0.syncs) / window_s, "1/s"},
        {"persist.bytes_written_per_user_byte",
         sum.user_bytes == 0 ? 0.0
                             : static_cast<double>(wchar1 - wchar0) /
                                   static_cast<double>(sum.user_bytes),
         "ratio"},
        {"persist.checkpoints",
         static_cast<double>(p1.checkpoints - p0.checkpoints), "count"},
        {"persist.uncheckpointed_records_end",
         static_cast<double>(uncheckpointed_end), "count"},
        {"persist.recovery_wal_records",
         static_cast<double>(recovery_wal_records), "count"},
        {"merge.count",
         static_cast<double>(m1.segments_merged - m0.segments_merged),
         "count"},
        {"merge.rows_merged",
         static_cast<double>(m1.rows_merged - m0.rows_merged), "rows"},
        {"merge.busy_frac", merge_wall_s / window_s, "ratio"},
        {"merge.max_pause_ms",
         CycleClock::ToSeconds(m1.max_segment_wall_cycles) * 1e3, "ms"},
        {"merge.step1a_cpt", ms.Step1aCyclesPerTuple(), "cycles/tuple"},
        {"merge.step1b_cpt", ms.Step1bCyclesPerTuple(), "cycles/tuple"},
        {"merge.step2_cpt", ms.Step2CyclesPerTuple(), "cycles/tuple"},
        {"merge.total_cpt", ms.CyclesPerTuple(), "cycles/tuple"},
        {"model.merge_projection_ratio",
         projected_s > 0 ? merge_wall_s / projected_s : 0.0, "ratio"},
        {"query.count_range_p50_us", p(SpanName::kCountRange, 0.5), "us"},
        {"query.sum_column_p50_us", p(SpanName::kSumColumn, 0.5), "us"},
        {"query.collect_equals_p50_us", p(SpanName::kCollectEquals, 0.5),
         "us"},
        {"query.request_time_share",
         request_ticks > 0 ? query_ticks / request_ticks : 0.0, "ratio"},
        {"query.gate_queries_per_sweep",
         gate_sweeps > 0 ? gate_served / gate_sweeps : 0.0, "count"},
        {"query.gate_bypass_frac",
         gate_served > 0
             ? static_cast<double>(gate1.bypasses - gate0.bypasses) /
                   gate_served
             : 0.0,
         "ratio"},
        {"simd.cycles_per_code", cpc, "cycles/code"},
        {"simd.roof_frac",
         cpc > 0 && cal.stream_bytes_per_cycle > 0
             ? (code_bits / 8.0 / cpc) / cal.stream_bytes_per_cycle
             : 0.0,
         "ratio"},
        {"trace.overhead_frac", weight > 0 ? overhead / weight : 0.0,
         "ratio"},
    };
  }

  const double failed_frac =
      sum.write_calls == 0 ? 0.0
                           : static_cast<double>(sum.failed) /
                                 static_cast<double>(sum.write_calls);
  std::printf("write calls %llu (failed_op_frac %.6f, txn aborts %llu of %llu "
              "attempts), reads %llu, checksum %llu\n",
              static_cast<unsigned long long>(sum.write_calls), failed_frac,
              static_cast<unsigned long long>(sum.txn_aborts),
              static_cast<unsigned long long>(sum.txn_attempts),
              static_cast<unsigned long long>(sum.reads),
              static_cast<unsigned long long>(sum.checksum));
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("correctness gate: %s\n", correct ? "passed" : "FAILED");
  RemoveDir(args.dir);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sum.attempted);
  json += ", \"failed\": " + std::to_string(sum.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
