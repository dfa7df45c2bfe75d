// Copyright (c) 2026 The DeltaMerge Authors.
// Unit tests for the durability subsystem: CRC framing, buffered file I/O,
// the PollThread harness, storage serialization, WAL append/replay/rotate,
// checkpoint roundtrips, and DurableTable open/recover cycles. The
// crash-point torture lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/merge_daemon.h"
#include "core/table.h"
#include "durable_torture_util.h"
#include "persist/checkpoint.h"
#include "persist/durable_table.h"
#include "persist/manifest.h"
#include "persist/wal.h"
#include "storage/dictionary.h"
#include "storage/main_partition.h"
#include "storage/packed_vector.h"
#include "parallel/task_queue.h"
#include "storage/validity.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/poll_thread.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using persist::DurableTable;
using persist::DurableTableOptions;
using persist::ListWalSegments;
using persist::ReplayWal;
using persist::WalOptions;
using persist::WalRecordType;
using persist::WalRecordView;
using persist::WalSyncPolicy;
using persist::WalWriter;

// Unique scratch directory under the test's working directory; removed
// (with contents) on scope exit. Shared with the crash/fuzz tortures.
using ScratchDir = testref::TortureScratchDir;

// --- CRC-32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32 ("check") value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, CombineMatchesIncrementalAtEverySplit) {
  // Crc32Combine(crc(A), crc(B), |B|) must equal crc(A||B) — this is what
  // lets a batch payload be checksummed outside the table lock and merged
  // with the frame header's CRC under it.
  const char* data = "one batch record covers a whole bulk-insert batch";
  const size_t n = std::strlen(data);
  const uint32_t whole = Crc32(data, n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t a = Crc32(data, split);
    const uint32_t b = Crc32(data + split, n - split);
    EXPECT_EQ(Crc32Combine(a, b, n - split), whole) << "split at " << split;
  }
  EXPECT_EQ(Crc32Combine(whole, 0, 0), whole);  // empty suffix is identity
}

// Bit-at-a-time CRC-32 with no tables, independent of both library paths.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
    }
  }
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& x : out) x = static_cast<uint8_t>(rng.Below(256));
  return out;
}

// Checks Crc32 and each available kernel against `expect` for `n` bytes of
// `src` placed at source alignments 0..15 (relative to a 16-byte boundary).
void ExpectEveryPathAtEveryAlignment(const std::vector<uint8_t>& src,
                                     size_t n, uint32_t seed,
                                     uint32_t expect) {
  std::vector<uint8_t> shifted(n + 32);
  const auto base = reinterpret_cast<uintptr_t>(shifted.data());
  const size_t to16 = (16 - base % 16) % 16;
  for (size_t align = 0; align < 16; ++align) {
    uint8_t* p = shifted.data() + to16 + align;
    if (n > 0) std::memcpy(p, src.data(), n);
    EXPECT_EQ(Crc32(p, n, seed), expect) << "n " << n << " align " << align;
    EXPECT_EQ(detail::Crc32Slice8(p, n, seed), expect)
        << "n " << n << " align " << align;
    if (detail::Crc32FoldSupported()) {
      EXPECT_EQ(detail::Crc32Fold(p, n, seed), expect)
          << "n " << n << " align " << align;
    }
  }
}

TEST(Crc32Test, EveryPathMatchesBitwiseReference) {
  // Every length through several 64-byte fold blocks (each tail length mod
  // 16 and mod 8, below and above the 64-byte fold threshold), fresh and
  // continued from a seed, at every source alignment.
  const std::vector<uint8_t> src = RandomBytes(1024, 17);
  for (size_t n = 0; n <= 1024; ++n) {
    ExpectEveryPathAtEveryAlignment(src, n, 0, ReferenceCrc32(src.data(), n));
  }
  for (size_t n : {63ul, 64ul, 65ul, 200ul, 1024ul}) {
    const uint32_t seed = 0xCBF43926u;
    ExpectEveryPathAtEveryAlignment(src, n, seed,
                                    ReferenceCrc32(src.data(), n, seed));
  }
  const size_t big = (size_t{1} << 20) + 5;
  const std::vector<uint8_t> large = RandomBytes(big, 18);
  ExpectEveryPathAtEveryAlignment(large, big, 0,
                                  ReferenceCrc32(large.data(), big));
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  // Splits on both sides of the 16-byte block and 64-byte fold boundaries,
  // so a continued call starts mid-block and with a sub-threshold head.
  const std::vector<uint8_t> src = RandomBytes(300, 20);
  const size_t n = src.size();
  const uint32_t whole = ReferenceCrc32(src.data(), n);
  for (size_t split = 0; split <= n; ++split) {
    const uint8_t* p = src.data();
    EXPECT_EQ(Crc32(p + split, n - split, Crc32(p, split)), whole)
        << "split at " << split;
    EXPECT_EQ(detail::Crc32Slice8(p + split, n - split,
                                  detail::Crc32Slice8(p, split, 0)),
              whole)
        << "split at " << split;
    if (detail::Crc32FoldSupported()) {
      EXPECT_EQ(detail::Crc32Fold(p + split, n - split,
                                  detail::Crc32Fold(p, split, 0)),
                whole)
          << "split at " << split;
    }
  }
}

TEST(Crc32Test, CombineMatchesAcrossLengthScales) {
  // Every length of B through several 64-byte fold blocks, and one past
  // 1 MiB, stressing different set-bit patterns of the zero-operator walk.
  const std::vector<uint8_t> a = RandomBytes(77, 21);
  const std::vector<uint8_t> b = RandomBytes((size_t{1} << 20) + 5, 22);
  const uint32_t crc_a = Crc32(a.data(), a.size());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(b.size());
  for (const size_t len_b : lengths) {
    const uint32_t crc_b = Crc32(b.data(), len_b);
    EXPECT_EQ(Crc32Combine(crc_a, crc_b, len_b),
              Crc32(b.data(), len_b, crc_a))
        << "len_b " << len_b;
  }
}

// --- file I/O ---------------------------------------------------------------

TEST(FileIoTest, WriteReadRoundtripWithCrc) {
  ScratchDir dir("fileio");
  const std::string path = dir.path() + "/blob";
  uint32_t write_crc = 0;
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    auto& out = *w.ValueOrDie();
    out.ResetCrc();
    ASSERT_TRUE(out.WriteU32(0xdecafbad).ok());
    ASSERT_TRUE(out.WriteU64(0x0123456789abcdefull).ok());
    std::vector<uint8_t> big(300 * 1024, 0x5a);  // exceeds the buffer
    ASSERT_TRUE(out.Write(big.data(), big.size()).ok());
    write_crc = out.crc();
    ASSERT_TRUE(out.Sync().ok());
    ASSERT_TRUE(out.Close().ok());
  }
  auto r = FileReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto& in = *r.ValueOrDie();
  in.ResetCrc();
  EXPECT_EQ(in.file_size(), 4u + 8u + 300u * 1024u);
  uint32_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(in.ReadU32(&a).ok());
  ASSERT_TRUE(in.ReadU64(&b).ok());
  EXPECT_EQ(a, 0xdecafbadu);
  EXPECT_EQ(b, 0x0123456789abcdefull);
  std::vector<uint8_t> big(300 * 1024);
  ASSERT_TRUE(in.Read(big.data(), big.size()).ok());
  EXPECT_EQ(big.front(), 0x5a);
  EXPECT_EQ(big.back(), 0x5a);
  EXPECT_EQ(in.crc(), write_crc);
  // Exact EOF: further exact reads fail, ReadUpTo reports 0.
  uint8_t extra = 0;
  EXPECT_FALSE(in.Read(&extra, 1).ok());
  auto upto = in.ReadUpTo(&extra, 1);
  ASSERT_TRUE(upto.ok());
  EXPECT_EQ(upto.ValueOrDie(), 0u);
}

TEST(FileIoTest, StreamCrcCountsOnlyBytesAfterArming) {
  // Checkpoints and manifests arm the running CRC after their magic; the
  // trailer must cover exactly the bytes from there on, on both sides. A
  // stream that is never armed (the WAL) reports 0.
  ScratchDir dir("fileiocrc");
  const std::string path = dir.path() + "/blob";
  const std::vector<uint8_t> bytes = RandomBytes(600 * 1024 + 13, 23);
  const size_t head = 13;
  const uint32_t tail_crc =
      ReferenceCrc32(bytes.data() + head, bytes.size() - head);
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    auto& out = *w.ValueOrDie();
    ASSERT_TRUE(out.Write(bytes.data(), head).ok());
    EXPECT_EQ(out.crc(), 0u);
    out.ResetCrc();
    ASSERT_TRUE(out.Write(bytes.data() + head, 100).ok());
    ASSERT_TRUE(
        out.Write(bytes.data() + head + 100, bytes.size() - head - 100).ok());
    EXPECT_EQ(out.crc(), tail_crc);
    ASSERT_TRUE(out.Close().ok());
  }
  {
    auto r = FileReader::Open(path);
    ASSERT_TRUE(r.ok());
    auto& in = *r.ValueOrDie();
    std::vector<uint8_t> got(bytes.size());
    ASSERT_TRUE(in.Read(got.data(), head).ok());
    EXPECT_EQ(in.crc(), 0u);
    in.ResetCrc();
    ASSERT_TRUE(in.Read(got.data() + head, got.size() - head).ok());
    EXPECT_EQ(in.crc(), tail_crc);
    EXPECT_EQ(got, bytes);
  }
}

TEST(FileIoTest, LargeReadsBypassTheBufferWithSameBytesAndEof) {
  // Reads of at least the buffer size from a drained buffer go straight
  // into the destination; contents, CRC, offsets and the short read at EOF
  // must match the buffered path.
  ScratchDir dir("fileiodirect");
  const std::string path = dir.path() + "/blob";
  const size_t buf = FileReader::kDefaultBufferBytes;
  const std::vector<uint8_t> bytes = RandomBytes(4 * buf + 5, 24);
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie()->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(w.ValueOrDie()->Close().ok());
  }
  auto r = FileReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto& in = *r.ValueOrDie();
  in.ResetCrc();
  std::vector<uint8_t> got(bytes.size() + 100);
  size_t at = 0;
  // 8 buffered bytes, the rest of that buffer fill (drained exactly), a
  // direct read of an odd size, then 1 byte that refills the buffer.
  for (const size_t step : {size_t{8}, buf - 8, buf + 3, size_t{1}}) {
    ASSERT_TRUE(in.Read(got.data() + at, step).ok()) << "at " << at;
    at += step;
    EXPECT_EQ(in.offset(), at);
  }
  // The rest of the buffer, then a direct read that runs into EOF: the
  // short count comes back.
  auto upto = in.ReadUpTo(got.data() + at, got.size() - at);
  ASSERT_TRUE(upto.ok());
  EXPECT_EQ(upto.ValueOrDie(), bytes.size() - at);
  at += upto.ValueOrDie();
  EXPECT_EQ(in.offset(), bytes.size());
  got.resize(at);
  EXPECT_EQ(got, bytes);
  EXPECT_EQ(in.crc(), ReferenceCrc32(bytes.data(), bytes.size()));
  std::vector<uint8_t> extra(2 * buf);
  auto eof = in.ReadUpTo(extra.data(), extra.size());
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof.ValueOrDie(), 0u);
  EXPECT_FALSE(in.Read(extra.data(), extra.size()).ok());
}

TEST(FileIoTest, TruncateAndListAndRemove) {
  ScratchDir dir("fileio2");
  const std::string path = dir.path() + "/t";
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> bytes(100, 7);
    ASSERT_TRUE(w.ValueOrDie()->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(w.ValueOrDie()->Close().ok());
  }
  ASSERT_TRUE(TruncateFile(path, 40).ok());
  auto sz = FileSize(path);
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(sz.ValueOrDie(), 40u);
  auto names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie().size(), 1u);
  EXPECT_TRUE(FileExists(path));
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // idempotent
}

// --- PollThread -------------------------------------------------------------

TEST(PollThreadTest, RunsBodyAndStops) {
  std::atomic<int> calls{0};
  PollThread poller(200, [&] { calls.fetch_add(1); });
  EXPECT_FALSE(poller.running());
  poller.Start();
  EXPECT_TRUE(poller.running());
  for (int i = 0; i < 1000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(calls.load(), 0);
  poller.Stop();
  EXPECT_FALSE(poller.running());
  const int after_stop = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(calls.load(), after_stop);
}

TEST(PollThreadTest, PauseSuspendsBodyButKeepsTicking) {
  std::atomic<int> calls{0};
  PollThread poller(100, [&] { calls.fetch_add(1); });
  poller.Pause();
  poller.Start();
  const uint64_t polls_before = poller.polls();
  // Wait (bounded) for the loop to demonstrably tick while paused.
  for (int i = 0; i < 5000 && poller.polls() == polls_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(poller.polls(), polls_before);  // the loop is alive...
  EXPECT_EQ(calls.load(), 0);               // ...but the body never ran
  poller.Resume();
  for (int i = 0; i < 5000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(calls.load(), 0);
  poller.Stop();
}

TEST(PollThreadTest, NudgeShortcutsLongInterval) {
  std::atomic<int> calls{0};
  // 10-second interval: only a working Nudge can make the body run soon.
  PollThread poller(10'000'000, [&] { calls.fetch_add(1); });
  poller.Start();
  poller.Nudge();
  for (int i = 0; i < 2000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(calls.load(), 0);
  poller.Stop();
  // Restartable after Stop.
  poller.Start();
  poller.Nudge();
  for (int i = 0; i < 2000 && calls.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(calls.load(), 2);
  poller.Stop();
}

// --- storage serialization --------------------------------------------------

template <size_t W>
void DictionaryRoundtrip() {
  std::vector<FixedValue<W>> values;
  for (uint64_t k : {3ull, 17ull, 980'555ull, (1ull << 33) + 7}) {
    values.push_back(FixedValue<W>::FromKey(k));
  }
  auto dict = Dictionary<W>::FromUnsorted(values);
  ScratchDir dir("dict");
  const std::string path = dir.path() + "/d";
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(dict.Serialize(*w.ValueOrDie()).ok());
    ASSERT_TRUE(w.ValueOrDie()->Close().ok());
  }
  auto r = FileReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto back = Dictionary<W>::Deserialize(*r.ValueOrDie());
  ASSERT_TRUE(back.ok());
  const auto& d2 = back.ValueOrDie();
  ASSERT_EQ(d2.size(), dict.size());
  for (uint32_t i = 0; i < dict.size(); ++i) {
    EXPECT_EQ(d2.At(i), dict.At(i));
  }
}

TEST(StorageSerializationTest, DictionaryAllWidths) {
  DictionaryRoundtrip<4>();
  DictionaryRoundtrip<8>();
  DictionaryRoundtrip<16>();
}

TEST(StorageSerializationTest, PackedVectorRoundtrip) {
  Rng rng(7);
  for (uint8_t bits : {1, 7, 13, 32}) {
    PackedVector v(777, bits);
    PackedVector::Writer w(v);
    std::vector<uint32_t> expect;
    for (int i = 0; i < 777; ++i) {
      const uint32_t code = static_cast<uint32_t>(
          rng.Below(uint64_t{1} << bits));
      expect.push_back(code);
      w.Append(code);
    }
    ScratchDir dir("pv");
    const std::string path = dir.path() + "/v";
    {
      auto out = FileWriter::Create(path);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE(v.Serialize(*out.ValueOrDie()).ok());
      ASSERT_TRUE(out.ValueOrDie()->Close().ok());
    }
    auto in = FileReader::Open(path);
    ASSERT_TRUE(in.ok());
    auto back = PackedVector::Deserialize(*in.ValueOrDie());
    ASSERT_TRUE(back.ok());
    const PackedVector& v2 = back.ValueOrDie();
    ASSERT_EQ(v2.size(), 777u);
    ASSERT_EQ(v2.bits(), bits);
    for (int i = 0; i < 777; ++i) {
      ASSERT_EQ(v2.Get(static_cast<uint64_t>(i)),
                expect[static_cast<size_t>(i)]);
    }
  }
}

TEST(StorageSerializationTest, MainPartitionRoundtripAndCorruptionCaught) {
  std::vector<FixedValue<8>> values;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(FixedValue<8>::FromKey(rng.Below(500)));
  }
  auto main = MainPartition<8>::FromValues(values);
  ScratchDir dir("mp");
  const std::string path = dir.path() + "/m";
  {
    auto out = FileWriter::Create(path);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(main.Serialize(*out.ValueOrDie()).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }
  {
    auto in = FileReader::Open(path);
    ASSERT_TRUE(in.ok());
    auto back = MainPartition<8>::Deserialize(*in.ValueOrDie());
    ASSERT_TRUE(back.ok());
    const auto& m2 = back.ValueOrDie();
    ASSERT_EQ(m2.size(), main.size());
    ASSERT_EQ(m2.unique_values(), main.unique_values());
    for (uint64_t i = 0; i < main.size(); i += 97) {
      EXPECT_EQ(m2.GetValue(i), main.GetValue(i));
    }
  }
  // A truncated file must fail deserialization, not fabricate a partition.
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, size.ValueOrDie() / 2).ok());
  auto in = FileReader::Open(path);
  ASSERT_TRUE(in.ok());
  EXPECT_FALSE(MainPartition<8>::Deserialize(*in.ValueOrDie()).ok());
}

TEST(StorageSerializationTest, ValidityPrefixRoundtrip) {
  ValidityVector v;
  v.Append(200);
  for (uint64_t row : {0ull, 63ull, 64ull, 65ull, 130ull, 199ull}) {
    v.Invalidate(row);
  }
  for (uint64_t rows : {0ull, 1ull, 64ull, 127ull, 128ull, 200ull}) {
    auto words = v.CopyWordsPrefix(rows);
    const uint64_t valid = v.CountValidPrefix(rows);
    ValidityVector back = ValidityVector::FromWords(std::move(words), rows);
    ASSERT_EQ(back.size(), rows);
    ASSERT_EQ(back.valid_count(), valid);
    for (uint64_t row = 0; row < rows; ++row) {
      ASSERT_EQ(back.IsValid(row), v.IsValid(row)) << "row " << row;
    }
  }
}

// --- WAL --------------------------------------------------------------------

std::vector<uint8_t> Payload(std::initializer_list<uint64_t> words) {
  std::vector<uint8_t> out;
  for (uint64_t w : words) {
    const size_t off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &w, 8);
  }
  return out;
}

TEST(WalTest, AppendReplayRoundtrip) {
  ScratchDir dir("wal");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    EXPECT_EQ(wal.Append(WalRecordType::kInsert, Payload({11, 22})), 1u);
    EXPECT_EQ(wal.Append(WalRecordType::kUpdate, Payload({0, 33, 44})), 2u);
    EXPECT_EQ(wal.Append(WalRecordType::kDelete, Payload({0})), 3u);
    wal.Acknowledge(3);
    EXPECT_GE(wal.durable_lsn(), 3u);
  }
  std::vector<std::pair<WalRecordType, uint64_t>> seen;
  auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) {
    seen.emplace_back(rec.type, rec.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  const auto& result = replay.ValueOrDie();
  EXPECT_EQ(result.applied, 3u);
  EXPECT_EQ(result.last_lsn, 3u);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, WalRecordType::kInsert);
  EXPECT_EQ(seen[1].first, WalRecordType::kUpdate);
  EXPECT_EQ(seen[2].first, WalRecordType::kDelete);
}

TEST(WalTest, BatchRecordRoundtripWithPrecomputedCrc) {
  // A kInsertBatch frame appended with the payload CRC precomputed
  // (Crc32Combine path) must replay byte-identically to one framed the
  // ordinary way — same frame CRC, same payload.
  ScratchDir dir("walbatch");
  const std::vector<uint8_t> payload =
      Payload({3, 2, 11, 22, 33, 44, 55, 66});  // 3 rows x 2 cols + header
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    EXPECT_EQ(wal.Append(WalRecordType::kInsert, Payload({7, 8})), 1u);
    const uint32_t payload_crc = Crc32(payload.data(), payload.size());
    EXPECT_EQ(wal.Append(WalRecordType::kInsertBatch, payload, payload_crc),
              2u);
    wal.Acknowledge(2);
  }
  uint64_t batch_records = 0;
  auto replay =
      ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) -> Status {
        if (rec.lsn == 2) {
          EXPECT_EQ(rec.type, WalRecordType::kInsertBatch);
          EXPECT_EQ(rec.payload.size(), payload.size());
          if (rec.payload.size() == payload.size()) {
            EXPECT_EQ(std::memcmp(rec.payload.data(), payload.data(),
                                  payload.size()),
                      0);
          }
          ++batch_records;
        }
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().applied, 2u);  // CRC validated both frames
  EXPECT_EQ(batch_records, 1u);
  EXPECT_FALSE(replay.ValueOrDie().torn_tail);
}

TEST(WalTest, TornTailIsToleratedAndCutAtEveryByte) {
  // Write 4 records, then truncate the segment at every possible byte
  // length: replay must recover exactly the records whose frames survived
  // intact and flag the torn tail, never error or fabricate.
  ScratchDir dir("waltorn");
  std::vector<uint64_t> frame_ends;  // cumulative byte offsets
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    for (uint64_t i = 0; i < 4; ++i) {
      wal.Append(WalRecordType::kInsert, Payload({i, i * 7}));
      wal.Acknowledge(i + 1);
      auto segs = ListWalSegments(dir.path());
      ASSERT_TRUE(segs.ok());
      auto sz = FileSize(dir.path() + "/" + segs.ValueOrDie()[0].second);
      ASSERT_TRUE(sz.ok());
      frame_ends.push_back(sz.ValueOrDie());
    }
  }
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.ValueOrDie().size(), 1u);
  const std::string seg = dir.path() + "/" + segs.ValueOrDie()[0].second;
  const uint64_t full = frame_ends.back();

  // Walk the cut point from just-before-the-end down to an empty file;
  // truncation is monotone, so each iteration only shaves further.
  for (uint64_t cut = full; cut-- > 0;) {
    ASSERT_TRUE(TruncateFile(seg, cut).ok());
    uint64_t applied = 0;
    auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView&) {
      ++applied;
      return Status::OK();
    });
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    uint64_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) {
      ++expect;
    }
    EXPECT_EQ(applied, expect) << "cut at " << cut;
    // A cut exactly on a frame boundary (or the empty file) reads as a
    // clean end; anywhere else is a torn tail.
    const bool boundary =
        cut == 0 || std::find(frame_ends.begin(), frame_ends.end(), cut) !=
                        frame_ends.end();
    EXPECT_EQ(replay.ValueOrDie().torn_tail, !boundary) << "cut at " << cut;
  }
}

TEST(WalTest, RotationPartitionsAndDropReclaims) {
  ScratchDir dir("walrot");
  auto w =
      WalWriter::Open(dir.path(), 1, {WalSyncPolicy::kEveryCommit, 1000});
  ASSERT_TRUE(w.ok());
  auto& wal = *w.ValueOrDie();
  wal.Append(WalRecordType::kInsert, Payload({1}));
  wal.Append(WalRecordType::kInsert, Payload({2}));
  const uint64_t replay_lsn = wal.RotateSegment();
  EXPECT_EQ(replay_lsn, 3u);
  wal.Append(WalRecordType::kInsert, Payload({3}));
  // Rotation defers the outgoing segment's fdatasync; the next group
  // commit must cover records in BOTH segments before claiming lsn 3.
  wal.Acknowledge(3);
  EXPECT_GE(wal.durable_lsn(), 3u);
  {
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 2u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 1u);
    EXPECT_EQ(segs.ValueOrDie()[1].first, 3u);
  }
  // Checkpoint durable at replay_lsn: the pre-rotation segment dies.
  ASSERT_TRUE(wal.DropSegmentsBefore(replay_lsn).ok());
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.ValueOrDie().size(), 1u);
  EXPECT_EQ(segs.ValueOrDie()[0].first, 3u);
  // The surviving record replays; nothing below replay_lsn remains.
  wal.Acknowledge(3);
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), replay_lsn, [&](const WalRecordView& rec) {
    EXPECT_EQ(rec.lsn, 3u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 1u);
}

TEST(WalTest, LsnDiscontinuityStopsReplayAtExactPrefix) {
  // A later segment whose records do not continue the LSN sequence means
  // an earlier tail was lost (e.g. a rotated-away segment whose deferred
  // fdatasync never hit the disk while the newer segment's pages did).
  // Replaying past the jump would land every record on shifted row ids,
  // so replay must stop at the discontinuity and report it.
  ScratchDir dir("walgap");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 1; i <= 3; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  {
    // Simulates the lost tail: records 4..9 are missing entirely.
    auto w = WalWriter::Open(dir.path(), 10,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({10}));
  }
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) {
    EXPECT_LE(rec.lsn, 3u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(replay.ValueOrDie().last_lsn, 3u);
  EXPECT_TRUE(replay.ValueOrDie().lsn_gap);
}

TEST(WalTest, HoleBelowMinLsnDoesNotAbortTheTail) {
  // A hole among records the checkpoint already covers (e.g. a partially
  // failed segment cleanup left wal-1 but deleted wal-4) is harmless: the
  // continuity requirement starts at min_lsn, so the acknowledged tail
  // must replay in full rather than being misread as a dead timeline.
  ScratchDir dir("walhole");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 1; i <= 3; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  {
    // Records 4..9 are gone — but min_lsn = 10 never needs them.
    auto w = WalWriter::Open(dir.path(), 10,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 10; i <= 12; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), 10, [&](const WalRecordView& rec) {
    EXPECT_GE(rec.lsn, 10u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(replay.ValueOrDie().skipped, 3u);  // 1..3, checkpoint-covered
  EXPECT_FALSE(replay.ValueOrDie().lsn_gap);
  EXPECT_EQ(replay.ValueOrDie().last_lsn, 12u);
}

TEST(WalTest, IntervalPolicySyncsInBackground) {
  ScratchDir dir("walint");
  auto w =
      WalWriter::Open(dir.path(), 1, {WalSyncPolicy::kInterval, 200});
  ASSERT_TRUE(w.ok());
  auto& wal = *w.ValueOrDie();
  const uint64_t lsn = wal.Append(WalRecordType::kInsert, Payload({9}));
  wal.Acknowledge(lsn);  // returns immediately under kInterval
  for (int i = 0; i < 2000 && wal.durable_lsn() < lsn; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(wal.durable_lsn(), lsn);
  EXPECT_GE(wal.sync_count(), 1u);
}

// --- DurableTable -----------------------------------------------------------

Schema TestSchema() {
  Schema schema;
  schema.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  return schema;
}

TEST(DurableTableTest, EmptyOpenWriteReopen) {
  ScratchDir dir("dt");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t rows = 0, valid = 0, sum0 = 0, sum1 = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& t = opened.ValueOrDie()->table();
    const uint64_t r0 = t.InsertRow({5, 6, 7});
    t.InsertRow({8, 9, 10});
    t.UpdateRow(r0, {50, 60, 70});
    ASSERT_TRUE(t.DeleteRow(1).ok());
    rows = t.num_rows();
    valid = t.valid_rows();
    sum0 = t.SumColumn(0);
    sum1 = t.SumColumn(1);
    EXPECT_FALSE(opened.ValueOrDie()->recovery().checkpoint_loaded);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 4u);
  EXPECT_FALSE(dt.recovery().checkpoint_loaded);
  EXPECT_FALSE(dt.recovery().torn_tail);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum0);
  EXPECT_EQ(t.SumColumn(1), sum1);
  EXPECT_FALSE(t.IsRowValid(0));  // superseded by the update
  EXPECT_FALSE(t.IsRowValid(1));  // deleted
  EXPECT_TRUE(t.IsRowValid(2));
}

TEST(DurableTableTest, MergeWritesCheckpointAndTruncatesWal) {
  ScratchDir dir("dtckpt");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t sum = 0, rows = 0, valid = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 500; ++i) t.InsertRow({i, i * 3, i * 7});
    ASSERT_TRUE(t.DeleteRow(13).ok());

    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
    EXPECT_EQ(dt.durability().checkpoints_written(), 1u);
    EXPECT_EQ(dt.durability().checkpoint_failures(), 0u);

    // The WAL truncated to the freeze point: exactly one segment remains
    // and it starts at the checkpoint's replay LSN (501 inserts+delete).
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 1u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 502u);

    // Post-checkpoint traffic -> the replay tail.
    for (uint64_t i = 0; i < 50; ++i) t.InsertRow({1000 + i, i, i});
    t.UpdateRow(2, {7, 7, 7});
    ASSERT_TRUE(t.DeleteRow(3).ok());
    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_TRUE(dt.recovery().checkpoint_loaded);
  EXPECT_EQ(dt.recovery().checkpoint_rows, 500u);
  EXPECT_EQ(dt.recovery().wal_records_applied, 52u);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
  EXPECT_FALSE(t.IsRowValid(13));  // tombstone from before the checkpoint
  EXPECT_FALSE(t.IsRowValid(2));   // superseded after the checkpoint
  EXPECT_FALSE(t.IsRowValid(3));   // deleted after the checkpoint
  // The recovered main partition is the checkpointed one.
  EXPECT_EQ(t.column(0).main_size(), 500u);
}

std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  auto r = FileReader::Open(path);
  if (!r.ok()) return bytes;
  bytes.resize(r.ValueOrDie()->file_size());
  if (!r.ValueOrDie()->Read(bytes.data(), bytes.size()).ok()) bytes.clear();
  return bytes;
}

// Trailer of a checkpoint or manifest: CRC-32 of everything after the
// 8-byte magic, checked against the bitwise reference.
void ExpectTrailerCoversBodyAfterMagic(const std::vector<uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), 12u);
  uint32_t trailer = 0;
  std::memcpy(&trailer, bytes.data() + bytes.size() - 4, 4);
  EXPECT_EQ(trailer, ReferenceCrc32(bytes.data() + 8, bytes.size() - 12));
}

TEST(DurableTableTest, CheckpointAndManifestTrailersCoverBodyAfterMagic) {
  // The writers arm the stream CRC after the magic is already written, and
  // the readers after it is already read; the trailer values (and so the
  // files) must be exactly the format's: CRC-32 of the bytes in between.
  ScratchDir dir("dttrailer");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kNone;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    Table& t = opened.ValueOrDie()->table();
    // 40,000 rows: the checkpoint spans several 256 KiB stream buffers.
    for (uint64_t i = 0; i < 40'000; ++i) t.InsertRow({i, i % 977, i * 7});
    ASSERT_TRUE(t.DeleteRow(13).ok());
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
  }
  auto ckpts = persist::ListCheckpoints(dir.path());
  ASSERT_TRUE(ckpts.ok());
  ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
  const std::string ckpt = dir.path() + "/" + ckpts.ValueOrDie()[0].second;
  const std::vector<uint8_t> ckpt_bytes = ReadWholeFile(ckpt);
  EXPECT_GT(ckpt_bytes.size(), 2 * FileWriter::kDefaultBufferBytes);
  ExpectTrailerCoversBodyAfterMagic(ckpt_bytes);
  auto loaded = persist::ReadCheckpoint(ckpt);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().main_rows, 40'000u);

  persist::ManifestContents manifest;
  manifest.version = 3;
  manifest.segment_capacity = uint64_t{1} << 16;
  manifest.column_widths = {8, 4};
  manifest.column_names = {"a", "bb"};
  manifest.segments = {{0, true}, {uint64_t{1} << 16, false}};
  ASSERT_TRUE(persist::WriteManifest(dir.path(), manifest).ok());
  const std::string path = dir.path() + "/" + persist::ManifestFileName(3);
  ExpectTrailerCoversBodyAfterMagic(ReadWholeFile(path));
  auto read = persist::ReadManifest(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie().column_names, manifest.column_names);
  EXPECT_EQ(read.ValueOrDie().segments.size(), 2u);
}

TEST(DurableTableTest, SchemaMismatchRefused) {
  ScratchDir dir("dtschema");
  DurableTableOptions options;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 16; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());  // persist a checkpoint with widths
  }
  Schema wrong = TestSchema();
  wrong.columns[1].value_width = 8;  // was 4
  auto reopened = DurableTable::Open(dir.path(), wrong, options);
  EXPECT_FALSE(reopened.ok());

  Schema fewer = TestSchema();
  fewer.columns.pop_back();
  EXPECT_FALSE(DurableTable::Open(dir.path(), fewer, options).ok());

  // Same shape but different column names: silently reinterpreting another
  // schema's bytes is exactly what recovery must refuse.
  Schema renamed = TestSchema();
  renamed.columns[0].name = "not_a";
  EXPECT_FALSE(DurableTable::Open(dir.path(), renamed, options).ok());

  // The original schema still opens.
  EXPECT_TRUE(DurableTable::Open(dir.path(), TestSchema(), options).ok());
}

TEST(DurableTableTest, CorruptCheckpointWithoutHistoryIsAnError) {
  ScratchDir dir("dtcorrupt");
  DurableTableOptions options;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
  }
  // Flip a byte inside the (only) checkpoint. Its WAL segments are gone, so
  // recovery must fail loudly rather than silently dropping 64 rows.
  auto ckpts = persist::ListCheckpoints(dir.path());
  ASSERT_TRUE(ckpts.ok());
  ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
  const std::string path =
      dir.path() + "/" + ckpts.ValueOrDie()[0].second;
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, size.ValueOrDie() - 5).ok());
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  EXPECT_FALSE(reopened.ok());
}

TEST(DurableTableTest, MidMergeTombstoneBelongsToReplayTailNotCheckpoint) {
  // A delete that lands while the merge body runs has an LSN >= the
  // checkpoint's replay LSN — so its effect must live in the WAL tail,
  // NOT in the checkpoint's validity bits. If the record then never
  // becomes durable (crash before its fsync), recovery must surface the
  // row as still valid; a checkpoint that baked the tombstone in would
  // resurrect an operation the log never recorded.
  ScratchDir dir("dtmidmerge");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t delete_lsn = 0;
  uint64_t replay_lsn = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 2000; ++i) t.InsertRow({i, i, i});

    TableMergeOptions merge;
    merge.inter_column_delay_us = 30'000;  // stretch the merge body
    std::thread merger([&] { (void)t.Merge(merge); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(t.DeleteRow(5).ok());  // lands inside (or after) the body
    delete_lsn = dt.wal().next_lsn() - 1;
    merger.join();

    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    replay_lsn = segs.ValueOrDie().back().first;
    EXPECT_GE(dt.durability().checkpoints_written(), 1u);
    EXPECT_FALSE(t.IsRowValid(5));
  }
  if (delete_lsn < replay_lsn) {
    GTEST_SKIP() << "delete landed before the freeze on this run";
  }
  // Crash simulation in which the delete record never became durable:
  // wipe the replay tail entirely.
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_TRUE(
      TruncateFile(dir.path() + "/" + segs.ValueOrDie().back().second, 0)
          .ok());
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Table& t = reopened.ValueOrDie()->table();
  EXPECT_EQ(t.num_rows(), 2000u);
  EXPECT_TRUE(t.IsRowValid(5))
      << "checkpoint resurrected a tombstone whose record was never durable";
}

TEST(DurableTableTest, UnopenableWalSegmentIsAnErrorNotACrash) {
  // A directory already occupies the first segment's name, so the WAL
  // cannot open it; Open must surface the Status (and the half-built
  // writer's destructor must cope with having no segment).
  ScratchDir dir("dtnoseg");
  ASSERT_TRUE(
      EnsureDir(dir.path() + "/wal-00000000000000000001.log").ok());
  auto opened = DurableTable::Open(dir.path(), TestSchema(), {});
  EXPECT_FALSE(opened.ok());
  ::remove((dir.path() + "/wal-00000000000000000001.log").c_str());
}

TEST(DurableTableTest, OutOfRangeUpdateRecoversWithLiveSemantics) {
  // The live write path accepts UpdateRow targets beyond the current row
  // count (append, no invalidate) and acknowledges them — replay must
  // accept the same records, or recovery bricks on a valid log.
  ScratchDir dir("dtoor");
  DurableTableOptions options;
  uint64_t rows = 0, valid = 0, sum = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 4; ++i) t.InsertRow({i, i, i});
    t.UpdateRow(1000, {77, 77, 77});  // far beyond the 4 live rows
    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
    EXPECT_EQ(rows, 5u);
    EXPECT_EQ(valid, 5u);  // nothing was invalidated
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Table& t = reopened.ValueOrDie()->table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
}

TEST(DurableTableTest, BatchInsertSurvivesReopenAsOneRecord) {
  // InsertRows on a durable table logs ONE kInsertBatch record; recovery
  // decodes it back through the same column-parallel path and reports the
  // per-record row-delta in wal_ops_applied.
  ScratchDir dir("dtbatch");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  std::vector<uint64_t> keys;
  for (uint64_t r = 0; r < 100; ++r) {
    for (uint64_t c = 0; c < 3; ++c) keys.push_back(r * 10 + c);
  }
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    TaskQueue queue(2);
    EXPECT_EQ(dt.table().InsertRows(keys, 100, &queue), 0u);
    EXPECT_EQ(dt.table().InsertRow({1, 2, 3}), 100u);
    // One batch record + one row record were framed: LSNs 1 and 2.
    EXPECT_EQ(dt.wal().next_lsn(), 3u);
    EXPECT_GE(dt.wal().durable_lsn(), 2u);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 2u);
  EXPECT_EQ(dt.recovery().wal_ops_applied, 101u);
  const Table& t = dt.table();
  ASSERT_EQ(t.num_rows(), 101u);
  for (uint64_t r = 0; r < 100; ++r) {
    EXPECT_EQ(t.GetKey(0, r), r * 10);
    EXPECT_EQ(t.GetKey(1, r), r * 10 + 1);
    EXPECT_EQ(t.GetKey(2, r), r * 10 + 2);
  }
  EXPECT_EQ(t.GetKey(0, 100), 1u);
}

TEST(DurableTableTest, OversizedBatchIsChunkedIntoMultipleRecords) {
  // A batch whose keys exceed the journal's per-record bound must be split
  // into several records (none may outgrow the WAL frame-length field or
  // replay's cap), and the chunk sequence must recover like any record
  // prefix. A tiny bound forces the path without gigabyte payloads.
  class TinyBatchJournal final : public TableJournal {
   public:
    explicit TinyBatchJournal(TableJournal* inner) : inner_(inner) {}
    uint64_t LogInsert(std::span<const uint64_t> keys) override {
      return inner_->LogInsert(keys);
    }
    uint64_t LogUpdate(uint64_t old_row,
                       std::span<const uint64_t> keys) override {
      return inner_->LogUpdate(old_row, keys);
    }
    uint64_t LogDelete(uint64_t row) override {
      return inner_->LogDelete(row);
    }
    PreparedBatch PrepareInsertBatch(std::span<const uint64_t> keys,
                                     uint64_t num_rows,
                                     uint64_t num_columns) const override {
      return inner_->PrepareInsertBatch(keys, num_rows, num_columns);
    }
    uint64_t LogInsertBatch(const PreparedBatch& batch) override {
      return inner_->LogInsertBatch(batch);
    }
    void Acknowledge(uint64_t lsn) override { inner_->Acknowledge(lsn); }
    uint64_t OnMergeFreezeLocked() override {
      return inner_->OnMergeFreezeLocked();
    }
    void OnMergeCommitted(CheckpointCapture capture) override {
      inner_->OnMergeCommitted(std::move(capture));
    }
    uint64_t MaxBatchKeys() const override { return 9; }  // 3 rows x 3 cols

   private:
    TableJournal* inner_;
  };

  ScratchDir dir("dtchunk");
  std::vector<uint64_t> keys;
  for (uint64_t r = 0; r < 10; ++r) {
    for (uint64_t c = 0; c < 3; ++c) keys.push_back(r * 100 + c);
  }
  {
    auto wal = WalWriter::Open(dir.path(), 1,
                               {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(wal.ok());
    persist::DurabilityManager manager(dir.path(), wal.ValueOrDie().get());
    TinyBatchJournal tiny(&manager);
    Table table(TestSchema());
    table.AttachJournal(&tiny);
    EXPECT_EQ(table.InsertRows(keys, 10), 0u);
    // 10 rows at 3 rows per chunk -> 4 records (3+3+3+1), one ack.
    EXPECT_EQ(wal.ValueOrDie()->next_lsn(), 5u);
    EXPECT_GE(wal.ValueOrDie()->durable_lsn(), 4u);
    table.AttachJournal(nullptr);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 4u);
  EXPECT_EQ(dt.recovery().wal_ops_applied, 10u);
  ASSERT_EQ(dt.table().num_rows(), 10u);
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_EQ(dt.table().GetKey(0, r), r * 100);
    EXPECT_EQ(dt.table().GetKey(2, r), r * 100 + 2);
  }
}

TEST(DurableTableTest, RowAndBatchLoggingRecoverIdenticalTables) {
  // The differential at the heart of PR 4: the same logical schedule run
  // with per-row records and with insert runs coalesced into kInsertBatch
  // records must recover, after checkpoints and a clean close, into tables
  // that are identical to each other and to the reference model.
  const uint64_t kOps = 400;
  const std::vector<WriteOp> ops = GenerateWriteOps(
      3, kOps, testref::kTortureKeyDomain, /*seed=*/0xd1ff);
  const std::vector<WriteOp> batched = CoalesceInsertBatches(ops, 32);

  auto run = [&](const std::vector<WriteOp>& schedule,
                 const std::string& tag) {
    auto dir = std::make_unique<ScratchDir>(tag);
    DurableTableOptions options;
    options.wal.policy = WalSyncPolicy::kEveryCommit;
    {
      auto opened = DurableTable::Open(dir->path(), TestSchema(), options);
      EXPECT_TRUE(opened.ok());
      WriteScheduleOptions sched_options;
      sched_options.merge_every = 90;
      RunWriteSchedule(&opened.ValueOrDie()->table(), schedule,
                       sched_options);
    }
    auto reopened = DurableTable::Open(dir->path(), TestSchema(), options);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    return std::make_pair(std::move(dir),
                          std::move(reopened).ValueOrDie());
  };

  auto [row_dir, row_dt] = run(ops, "dtdiffrow");
  auto [batch_dir, batch_dt] = run(batched, "dtdiffbatch");

  // Both recover the complete schedule (clean close)...
  const testref::ReferenceModel model = testref::ModelPrefix(ops, kOps);
  testref::ExpectTableMatchesModel(row_dt->table(), model, 0xd1ff);
  testref::ExpectTableMatchesModel(batch_dt->table(), model, 0xd1ff);

  // ...and are cell-for-cell identical to each other.
  const Table& a = row_dt->table();
  const Table& b = batch_dt->table();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.valid_rows(), b.valid_rows());
  for (uint64_t row = 0; row < a.num_rows(); ++row) {
    ASSERT_EQ(a.IsRowValid(row), b.IsRowValid(row)) << "row " << row;
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(a.GetKey(c, row), b.GetKey(c, row))
          << "row " << row << " col " << c;
    }
  }
  // Both runs exercised real checkpoints, so recovery spliced a batch tail
  // onto checkpointed state rather than replaying from scratch.
  EXPECT_TRUE(row_dt->recovery().checkpoint_loaded);
  EXPECT_TRUE(batch_dt->recovery().checkpoint_loaded);
}

TEST(DurableTableTest, DaemonMergesProduceCheckpoints) {
  // The autonomous path: a MergeDaemon on a durable table checkpoints on
  // every commit without any explicit persistence calls.
  ScratchDir dir("dtdaemon");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kNone;  // speed; durability not probed
  auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(opened.ok());
  auto& dt = *opened.ValueOrDie();

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 256;
  policy.poll_interval_us = 200;
  MergeDaemon daemon(&dt.table(), policy, TableMergeOptions{});
  daemon.Start();
  for (uint64_t i = 0; i < 5000; ++i) {
    dt.table().InsertRow({i, i, i});
  }
  daemon.Nudge();
  for (int i = 0; i < 5000 && dt.durability().checkpoints_written() == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  EXPECT_GE(dt.durability().checkpoints_written(), 1u);
  EXPECT_EQ(dt.durability().checkpoint_failures(), 0u);
}

TEST(DurableTableTest, CompactionCheckpointTruncatesTombstoneTail) {
  // The sealed-segment aging scenario: after the final merge only
  // tombstone records land in the WAL, and before PR 7 they replayed on
  // every reopen, forever. A validity-only compaction checkpoint must
  // re-anchor the durable image at the current frontier: one checkpoint,
  // one (empty) WAL segment, zero records to replay.
  ScratchDir dir("dtcompact");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  const uint64_t kDeletes = 40;
  uint64_t rows = 0, valid = 0, sum = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 500; ++i) t.InsertRow({i, i * 3, i * 7});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
    EXPECT_EQ(dt.durability_stats().uncheckpointed_records, 0u);

    // Tombstone-only traffic grows the un-checkpointed backlog 1:1.
    for (uint64_t i = 0; i < kDeletes; ++i) {
      ASSERT_TRUE(t.DeleteRow(i * 3).ok());
    }
    EXPECT_EQ(dt.durability_stats().uncheckpointed_records, kDeletes);

    // Inserts took LSNs 1..500, the merge froze at 501, deletes took
    // 501..540 — the compaction rotates at the frontier, 541.
    auto compacted = t.CompactCheckpoint();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    EXPECT_EQ(compacted.ValueOrDie(), 501u + kDeletes);

    const persist::DurabilityStats stats = dt.durability_stats();
    EXPECT_EQ(stats.compaction_checkpoints, 1u);
    EXPECT_EQ(stats.checkpoints_written, 2u);  // merge + compaction
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    EXPECT_EQ(stats.cleanup_failures, 0u);
    EXPECT_EQ(stats.installed_replay_lsn, 501u + kDeletes);
    EXPECT_EQ(stats.uncheckpointed_records, 0u);

    // The superseded checkpoint and WAL history are gone: exactly one of
    // each remains, both anchored at the compaction's replay LSN.
    auto ckpts = persist::ListCheckpoints(dir.path());
    ASSERT_TRUE(ckpts.ok());
    ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
    EXPECT_EQ(ckpts.ValueOrDie()[0].first, 501u + kDeletes);
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 1u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 501u + kDeletes);

    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  // Bounded replay: the tombstones are baked into the checkpoint's
  // validity bits, so recovery replays NOTHING.
  EXPECT_TRUE(dt.recovery().checkpoint_loaded);
  EXPECT_EQ(dt.recovery().checkpoint_rows, 500u);
  EXPECT_EQ(dt.recovery().wal_records_applied, 0u);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
  EXPECT_FALSE(t.IsRowValid(0));   // deleted (i * 3 for i = 0)
  EXPECT_TRUE(t.IsRowValid(1));
  const persist::DurabilityStats stats = dt.durability_stats();
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(stats.cleanup_failures, 0u);
  EXPECT_EQ(stats.uncheckpointed_records, 0u);
  // The recovered manager keeps counting from the compaction's LSN, so
  // the trigger arithmetic stays exact across reopens.
  EXPECT_EQ(stats.installed_replay_lsn, 501u + kDeletes);
}

TEST(DurableTableTest, CompactionCheckpointRequiresEmptyDelta) {
  // The checkpoint format persists the main partition only; compacting
  // with live delta rows would drop them below the rotated replay LSN.
  // The precondition must refuse — and a journal-less table has no
  // checkpoint stream to compact at all.
  ScratchDir dir("dtcompactpre");
  auto opened = DurableTable::Open(dir.path(), TestSchema(), {});
  ASSERT_TRUE(opened.ok());
  Table& t = opened.ValueOrDie()->table();
  t.InsertRow({1, 2, 3});
  EXPECT_FALSE(t.CompactCheckpoint().ok());  // unmerged delta row
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  EXPECT_TRUE(t.CompactCheckpoint().ok());  // delta drained: fine now

  Table plain(TestSchema());
  EXPECT_FALSE(plain.CompactCheckpoint().ok());  // no journal attached
}

TEST(DurableTableTest, CorruptNewerCheckpointIsSweptAfterFallback) {
  // A torn rename or bit rot can leave a junk checkpoint that sorts
  // newer than the good one while the WAL history behind it is intact.
  // Recovery falls back — and must delete the corpse, or every future
  // open pays the same fallback (and a later compaction's
  // DropCheckpointsBefore could make the junk file newest-and-only).
  ScratchDir dir("dtsweep");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
    for (uint64_t i = 0; i < 5; ++i) t.InsertRow({100 + i, i, i});
  }
  const std::string junk =
      dir.path() + "/" + persist::CheckpointFileName(uint64_t{1} << 20);
  {
    auto out = FileWriter::Create(junk);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie()->Write("not a checkpoint", 16).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }

  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->recovery().invalid_checkpoints, 1u);
  EXPECT_EQ(reopened.ValueOrDie()->table().num_rows(), 69u);
  EXPECT_FALSE(FileExists(junk));  // dead file cannot shadow later opens

  auto again = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie()->recovery().invalid_checkpoints, 0u);
  EXPECT_EQ(again.ValueOrDie()->table().num_rows(), 69u);
}

TEST(DurableTableTest, OutOfRangeDeleteInWalFailsRecovery) {
  // Unlike out-of-range updates (which the live path accepts with append
  // semantics), the live path never acknowledges a delete of a
  // nonexistent row — such a record can only mean corruption, and replay
  // must refuse it WITHOUT having counted it as applied.
  ScratchDir dir("dtbaddel");
  {
    auto wal = WalWriter::Open(dir.path(), 1,
                               {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(wal.ok());
    wal.ValueOrDie()->Append(WalRecordType::kInsert, Payload({1, 2, 3}));
    wal.ValueOrDie()->Append(WalRecordType::kDelete, Payload({99}));
  }
  EXPECT_FALSE(DurableTable::Open(dir.path(), TestSchema(), {}).ok());
}

}  // namespace
}  // namespace deltamerge
