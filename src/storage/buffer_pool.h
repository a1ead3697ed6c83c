#ifndef DECIBEL_STORAGE_BUFFER_POOL_H_
#define DECIBEL_STORAGE_BUFFER_POOL_H_

/// \file buffer_pool.h
/// A read cache of immutable heap-file pages with LRU eviction (the paper
/// runs a "fairly conventional buffer pool architecture (with 4 MB pages)",
/// §2.1). Decibel's storage is no-overwrite: sealed pages never change, so
/// the pool never needs dirty-page writeback — mutation happens only in a
/// heap file's in-memory tail page, which is served by the file itself.
///
/// Pages are handed out as shared_ptr<const string>; a reader holding a
/// page keeps it alive even if the pool evicts it concurrently.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"

namespace decibel {

using PageRef = std::shared_ptr<const std::string>;

/// Callback interface the pool uses to load a page on miss.
class PageSource {
 public:
  virtual ~PageSource() = default;
  /// Reads page \p page_no into \p out (exactly page-size bytes). A source
  /// may instead leave \p out empty to report that the page need not be
  /// materialized (a loader that proved it irrelevant to its caller); the
  /// pool then caches nothing and GetPage returns a null PageRef.
  virtual Status ReadPageFromDisk(uint64_t page_no, std::string* out) = 0;
};

/// Lifetime counters of one pool. A miss is one call into
/// PageSource::ReadPageFromDisk; miss_bytes counts the page bytes those
/// calls produced and miss_load_ns the wall time spent inside them (read,
/// checksum and decode) — so miss_load_ns / miss_bytes is what a page
/// fetch costs per byte.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t miss_bytes = 0;
  uint64_t miss_load_ns = 0;
};

class BufferPool {
 public:
  /// \p capacity_bytes caps resident page bytes (at least one page is
  /// always admitted).
  explicit BufferPool(uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns page \p page_no of file \p file_id, loading it via \p source
  /// on miss (null if the source declined to materialize it).
  Result<PageRef> GetPage(uint64_t file_id, uint64_t page_no,
                          PageSource* source);

  /// Drops every cached page. Benchmarks call this between measured
  /// queries to approximate the paper's cold-cache methodology (§5).
  void EvictAll();

  /// Drops cached pages belonging to \p file_id (called when a file is
  /// destroyed so ids can be recycled safely).
  void EvictFile(uint64_t file_id);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  BufferPoolStats stats() const;
  uint64_t resident_bytes() const;

 private:
  struct Key {
    uint64_t file_id;
    uint64_t page_no;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.file_id * 0x9e3779b97f4a7c15ULL ^
                                 k.page_no);
    }
  };
  struct Entry {
    PageRef page;
    std::list<Key>::iterator lru_pos;
  };

  void TouchLocked(Entry& e, const Key& k);
  void EvictIfNeededLocked();

  const uint64_t capacity_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> pages_;
  std::list<Key> lru_;  // front = most recent
  uint64_t resident_bytes_ = 0;
  // Counters are read without mu_ (stats endpoints), so they are atomics;
  // relaxed ordering suffices for monotonic tallies.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> miss_bytes_{0};
  std::atomic<uint64_t> miss_load_ns_{0};
};

}  // namespace decibel

#endif  // DECIBEL_STORAGE_BUFFER_POOL_H_
