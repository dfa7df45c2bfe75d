// Copyright (c) 2026 The DeltaMerge Authors.
// CRC-32 (IEEE 802.3 polynomial, reflected) for framing durable records.
//
// Every write-ahead-log record, checkpoint and manifest carries a CRC so
// that recovery can distinguish "the tail of the log was torn mid-write by
// the crash" (expected; recover everything before it) from "this record is
// intact" (replay it).
//
// The checksum is on the critical path of every durable byte: each merge
// rewrites its segment's main as a checkpoint, and a reopen streams every
// checkpoint back through the CRC before it trusts a row. A byte-at-a-time
// table runs at ~0.3 GB/s, slower than reading the file from the page
// cache, so reopen would be checksum-bound. Crc32 therefore picks, once per
// process, a carry-less-multiply (PCLMULQDQ) folding kernel on x86-64 CPUs
// that have it, and a portable slicing-by-8 table walk elsewhere and for
// inputs under 64 bytes (BM_Crc32 in bench_micro_primitives measures both:
// ~16 and ~1.3 GB/s on an AVX-512 server core). Both produce the values of
// the classic zlib crc32, so the on-disk formats do not depend on the host.

#pragma once

#include <cstddef>
#include <cstdint>

namespace deltamerge {

/// CRC-32 of `data[0..n)`, continuing from `seed` (pass the previous call's
/// return value to checksum a logical stream across multiple buffers; pass 0
/// to start a fresh checksum).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// CRC-32 of the concatenation A||B given only crc_a = Crc32(A), crc_b =
/// Crc32(B), and B's length — without touching the bytes again (zlib's
/// crc32_combine, via precomputed GF(2) zero-operators, O(log len_b)).
///
/// This is what lets a bulk-insert batch be checksummed *outside* the table
/// lock: the caller CRCs the payload with no lock held, and the WAL derives
/// the frame CRC (header bytes ++ payload) under the lock in ~a dozen
/// 32x32-bit matrix-vector products instead of rescanning the payload.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

namespace detail {

/// The two kernels Crc32 chooses between, exposed so tests and benchmarks
/// can run each one on any host. Same contract as Crc32.
uint32_t Crc32Slice8(const void* data, size_t n, uint32_t seed);

/// Whether this build and CPU can run Crc32Fold (x86-64 with PCLMULQDQ).
bool Crc32FoldSupported();

/// Requires Crc32FoldSupported(). Inputs under 64 bytes, and the last
/// n % 16 bytes of longer ones, go through the slicing-by-8 path.
uint32_t Crc32Fold(const void* data, size_t n, uint32_t seed);

}  // namespace detail

}  // namespace deltamerge
