#ifndef DECIBEL_STORAGE_STRIPED_HEAP_H_
#define DECIBEL_STORAGE_STRIPED_HEAP_H_

/// \file striped_heap.h
/// The tuple-first engine's shared heap, sharded into one append-only
/// HeapFile per write stripe so branches on different stripes never
/// contend on the same tail page. One *global* record-index space is
/// preserved — the bitmap index and pk indexes keep addressing tuples by
/// a single uint64_t — by handing each stripe contiguous *extents* of
/// the global space on demand:
///
///   extent := {global base, capacity, stripe, stripe-local base}
///
/// A stripe fills its open extent record by record; when a batch
/// outgrows it, a fresh extent of max(extent_records, what's left of the
/// batch) indices is carved off the global counter, so one batch spans at
/// most two extents and AppendBatch reports the assigned indices as a
/// short list of contiguous runs. The unfilled tail of an open extent is
/// simply never handed out — bitmaps keep zeros there and scans skip it.
///
/// Concurrency contract: writers to the SAME stripe must be serialized by
/// the caller (the engine's stripe locks do this); writers to different
/// stripes proceed in parallel, coordinating only on the global counter
/// and the extent table. Readers never block: a RecordMap is an immutable
/// snapshot of the extent table taken at cursor-open time, and the
/// underlying HeapFiles are append-only with snapshot-safe tail reads.
/// RecordMap is also how the hybrid engine addresses a segment (one
/// extent over one file), so the bitmap read core in engine/bitmap_scan.h
/// serves both layouts.
///
/// Persistence: `manifest` (extent table + geometry) is rewritten on
/// Flush, after the stripe files — the same recover-to-last-flush
/// contract as the engine meta it sits next to.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/heap_file.h"

namespace decibel {

/// Where the positions of a bitmap live: an immutable, gap-free list of
/// extents, each mapping a contiguous range of bit positions onto a
/// contiguous range of records in one heap file. The striped heap
/// snapshots its extent table into one (StripedHeap::SnapshotMapping); a
/// single file is OfFile. Taken AFTER materializing the bitmap a scan will
/// follow, a map covers every set bit (positions are assigned before
/// records are appended, and records are appended before bits are set).
class RecordMap {
 public:
  struct Extent {
    uint64_t base = 0;        ///< first bit position
    uint64_t capacity = 0;    ///< positions reserved
    uint32_t stripe = 0;      ///< index of the extent's file
    uint64_t local_base = 0;  ///< first record index in that file
  };

  RecordMap() = default;

  /// One extent starting at 0 over the records \p file holds now.
  static RecordMap OfFile(HeapFile* file);

  /// One past the last position this map covers.
  uint64_t bound() const {
    return extents_.empty() ? 0
                            : extents_.back().base + extents_.back().capacity;
  }

  const std::vector<Extent>& extents() const { return extents_; }
  HeapFile* file(uint32_t stripe) const { return files_[stripe]; }

 private:
  friend class StripedHeap;
  std::vector<Extent> extents_;   // sorted by base, gap-free
  std::vector<HeapFile*> files_;  // indexed by Extent::stripe
};

class StripedHeap {
 public:
  struct Options {
    uint64_t page_size = 1 << 20;
    bool verify_checksums = true;
    uint32_t stripes = 8;
    /// Minimum global indices carved per extent; 0 derives one page's
    /// worth of records (keeps the extent table small without letting
    /// open-extent holes outgrow a page per stripe).
    uint64_t extent_records = 0;
    /// Record layout forwarded to every stripe file — enables zone maps
    /// (and, with compress_pages, adaptive page encoding). Must outlive
    /// the heap; null disables statistics.
    const Schema* schema = nullptr;
    /// Forwarded to every stripe file's HeapFile::Options.
    bool compress_pages = false;
  };

  /// A contiguous range of global indices assigned by one AppendBatch.
  struct Run {
    uint64_t base = 0;
    uint64_t count = 0;
  };

  /// The runs one AppendBatch assigned. A batch spans at most two extents
  /// (the refill extent always covers the whole remainder), so storage is
  /// inline — the per-transaction write path never allocates here.
  /// Adjacent runs coalesce on Add.
  class RunList {
   public:
    void Add(uint64_t base, uint64_t count) {
      if (size_ > 0 && runs_[size_ - 1].base + runs_[size_ - 1].count == base) {
        runs_[size_ - 1].count += count;
        return;
      }
      runs_[size_++] = Run{base, count};
    }
    const Run& operator[](size_t i) const { return runs_[i]; }
    size_t size() const { return size_; }

   private:
    Run runs_[2];
    size_t size_ = 0;
  };

  using Extent = RecordMap::Extent;

  /// Creates a fresh striped heap in \p dir (one `heap.<i>.dbhf` per
  /// stripe plus a `manifest`).
  static Result<std::unique_ptr<StripedHeap>> Create(const std::string& dir,
                                                     uint32_t record_size,
                                                     const Options& options,
                                                     BufferPool* pool);

  /// Reopens a striped heap from its manifest; the stripe count persisted
  /// there wins over options.stripes. A non-empty \p checkpoint_tag loads
  /// the tagged manifest written by Checkpoint(tag) instead and rolls
  /// every stripe file back to that checkpoint's record counts (crash
  /// recovery).
  static Result<std::unique_ptr<StripedHeap>> Open(
      const std::string& dir, const Options& options, BufferPool* pool,
      const std::string& checkpoint_tag = "");

  /// Appends \p count records (packed, count * record_size bytes) to
  /// \p stripe and reports the assigned global indices as contiguous
  /// runs appended to \p runs (at most two). Caller must serialize
  /// writers per stripe.
  Status AppendBatch(uint32_t stripe, Slice records, uint64_t count,
                     RunList* runs);

  /// Single-record append; returns the assigned global index.
  Result<uint64_t> Append(uint32_t stripe, Slice record);

  /// Copies the record at global index \p global into \p out.
  Status Get(uint64_t global, std::string* out);

  /// One past the highest global index any extent covers — the bound the
  /// bitmap index must be able to address.
  uint64_t allocated_bound() const {
    return allocated_bound_.load(std::memory_order_acquire);
  }
  /// Total records appended (excludes open-extent holes).
  uint64_t num_records() const {
    return num_records_.load(std::memory_order_relaxed);
  }

  uint32_t record_size() const { return record_size_; }
  uint32_t stripe_count() const {
    return static_cast<uint32_t>(stripes_.size());
  }
  uint64_t SizeBytes() const;

  /// Flushes every stripe file, then rewrites the manifest.
  Status Flush();

  /// Checkpoints the heap under \p tag: flushes (and, if \p sync, fsyncs)
  /// every stripe file, then atomically writes `heap.manifest.<tag>`
  /// recording the extent table plus each stripe's durable record count
  /// and tail CRC. Open(dir, ..., tag) restores exactly this state.
  /// Writers must be quiesced by the caller.
  Status Checkpoint(const std::string& tag, bool sync);

  /// Deletes the tagged manifest written by Checkpoint(tag).
  Status RemoveCheckpoint(const std::string& tag);

  /// Rebuilds any missing per-page zone maps on every stripe file (see
  /// HeapFile::EnsureStats). Open() calls this after loading the
  /// manifest's persisted stats so skipping never depends on how fresh
  /// the persisted blobs were. No-op with stats disabled.
  Status EnsureStats();

  /// An immutable snapshot of the global->(stripe file, local)
  /// translation (see RecordMap).
  RecordMap SnapshotMapping() const;

 private:
  struct StripeState {
    std::unique_ptr<HeapFile> file;
    uint64_t next_global = 0;  ///< next index of the open extent
    uint64_t remaining = 0;    ///< indices left in the open extent
  };

  StripedHeap(std::string dir, uint32_t record_size, const Options& options,
              BufferPool* pool);

  std::string StripePath(uint32_t stripe) const;
  std::string ManifestPath(const std::string& tag = "") const;
  Status WriteManifest();
  std::string EncodeManifest();
  /// Parses \p input and opens the stripe files. With \p recover, each
  /// file is rolled back to the manifest's per-stripe checkpoint state.
  Status LoadManifest(Slice input, bool recover);
  /// Carves a fresh extent of max(extent_records_, needed) global indices
  /// for \p stripe.
  Status AllocateExtent(uint32_t stripe, uint64_t needed);

  const std::string dir_;
  uint32_t record_size_;
  const Options options_;
  BufferPool* const pool_;
  uint64_t extent_records_ = 0;

  std::vector<StripeState> stripes_;  // fixed size after construction

  /// Guards extent allocation (the global counter handoff).
  std::mutex alloc_mu_;
  /// Guards the extent table's shape; writers append under unique,
  /// Get/SnapshotMapping read under shared.
  mutable std::shared_mutex table_mu_;
  std::vector<Extent> extents_;  // sorted by base

  std::atomic<uint64_t> allocated_bound_{0};
  std::atomic<uint64_t> num_records_{0};
};

}  // namespace decibel

#endif  // DECIBEL_STORAGE_STRIPED_HEAP_H_
