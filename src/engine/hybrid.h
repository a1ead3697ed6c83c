#ifndef DECIBEL_ENGINE_HYBRID_H_
#define DECIBEL_ENGINE_HYBRID_H_

/// \file hybrid.h
/// The hybrid storage engine (§3.4): data lives in version-first style
/// segment heap files (clustering records with common ancestry), while
/// liveness is tracked tuple-first style — one small branch-oriented
/// bitmap index *local to each segment*, plus a global branch x segment
/// bitmap that maps each branch to the segments holding at least one of
/// its live records. Scans consult the global bitmap to skip irrelevant
/// segments entirely (and may scan segments in parallel); diffs and merges
/// run the tuple-first bitmap algorithms per segment.
///
/// Those algorithms are literally tuple-first's: the engine builds one
/// part per segment (its local bitmaps plus RecordMap::OfFile of its
/// file) and hands the parts to the bitmap read core
/// (engine/bitmap_scan.h) — the same scanner, cursor, diff walk and merge
/// walk tuple-first runs over its single part.
///
/// Segments are either *head* segments (the working tail of one branch)
/// or *internal* segments (frozen at the first branch taken from them).
///
/// Concurrency: a branch's writes touch only its own head-segment tail,
/// its own pk index overlay, and its own columns of the per-segment local
/// bitmaps (a column is private to its branch even when the segment is
/// shared with siblings), so writers on disjoint branches proceed in
/// parallel. The lock hierarchy is registry_mu_ (the segments_ vector,
/// head_seg_/branch_segments_/pk_index_/dirty_ map shapes,
/// and the local indexes' column sets; writers take it shared,
/// CreateBranch/Flush take it unique) -> stripe locks (branch %
/// write_stripes; the branch's columns, dirty set, and pk index overlay
/// and chain pointer) -> commit_mu_ (the commit registries, a leaf). A
/// fork shares the parent's frozen pk-index layers with the child
/// (engine/pk_index.h); frozen layers are immutable, so siblings read
/// them under their own stripes only. Scans materialize bitmap copies
/// under the stripe lock, map each segment's file after that, and stream
/// without any lock.

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bitmap/commit_history.h"
#include "common/stripe_lock.h"
#include "engine/bitmap_scan.h"
#include "engine/engine.h"
#include "engine/pk_index.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace decibel {

class HybridEngine : public StorageEngine {
 public:
  static Result<std::unique_ptr<HybridEngine>> Make(
      const Schema& schema, const EngineOptions& options);

  EngineType type() const override { return EngineType::kHybrid; }
  const Schema& schema() const override { return schema_; }

  Status CreateBranch(BranchId child, BranchId parent, CommitId base_commit,
                      bool at_head) override;
  Status Commit(BranchId branch, CommitId commit_id) override;
  Status Checkout(CommitId commit) override;

  Status ApplyBatch(BranchId branch, const WriteBatch& batch) override;

  Result<std::unique_ptr<ScanCursor>> NewScan(const ScanSpec& spec) override;
  Result<Record> Get(BranchId branch, int64_t pk) override;
  Status DiffWalk(BranchId a, BranchId b, const DiffWalkCallback& cb,
                  ScanStats* stats) override;
  Status MergeWalk(CommitId left, CommitId right, CommitId base,
                   const MergeWalkCallback& cb, MergeWalkStats* stats) override;
  Status ReleaseBranch(BranchId branch) override;

  Status Flush() override;
  Status Checkpoint(const std::string& tag, bool sync) override;
  Status RemoveCheckpoint(const std::string& tag) override;
  void DropCaches() override { pool_.EvictAll(); }
  EngineStats Stats() const override;

 private:
  struct Segment {
    uint32_t id = 0;
    /// Branch whose head this is (meaningful while is_head).
    BranchId owner = kInvalidBranch;
    bool is_head = false;
    std::unique_ptr<HeapFile> file;
    /// Local bitmap index: one column per branch with records inherited
    /// from this segment (§3.4).
    BranchOrientedIndex local;
  };

  HybridEngine(const Schema& schema, const EngineOptions& options)
      : schema_(schema),
        options_(options),
        pool_(options.buffer_pool_bytes),
        stripes_(options.write_stripes == 0 ? 1 : options.write_stripes) {}

  Status InitFresh();
  Status LoadExisting();
  std::string MetaPath(const std::string& tag = "") const;
  std::string SegmentPath(uint32_t seg) const;
  std::string HistoryPath(BranchId branch, uint32_t seg) const;
  /// Serializes the engine meta (schema, segments with local indexes and
  /// checkpoint state, heads, branch-segment bitmap, commit and history
  /// registries with history byte sizes). Caller holds the registry
  /// unique.
  std::string EncodeMeta();

  /// Caller holds registry_mu_ unique (grows segments_ and the maps).
  Result<uint32_t> NewHeadSegment(BranchId owner);
  /// The (branch, segment) commit history, creating it on first use.
  /// Takes commit_mu_ internally for the registry maps.
  Result<CommitHistory*> HistoryFor(BranchId branch, uint32_t seg);
  /// Commit body; caller holds registry_mu_ (shared or unique) and the
  /// branch's stripe. Takes commit_mu_ internally.
  Status CommitImpl(BranchId branch, CommitId commit_id);
  /// dirty_ entries are pre-created when the branch is created, so this
  /// only mutates the per-branch set — safe under the branch's stripe.
  void MarkDirty(BranchId branch, uint32_t seg) {
    dirty_[branch].insert(seg);
  }
  /// Segments whose bit is set in branch \p b's row of the global bitmap.
  std::vector<uint32_t> SegmentsOf(BranchId b) const;
  /// Restores the per-segment columns of \p branch as of \p commit.
  Status CommitColumns(CommitId commit,
                       std::vector<std::pair<uint32_t, Bitmap>>* out);
  Status RebuildPkIndex(BranchId b);

  Schema schema_;
  EngineOptions options_;
  BufferPool pool_;

  /// Shape of segments_, the branch maps, and the local indexes' column
  /// sets: writers take it shared, CreateBranch/Flush take it
  /// unique. Ordered before the stripe locks.
  mutable std::shared_mutex registry_mu_;
  /// Per-branch write serialization; see file comment for the hierarchy.
  mutable StripeLocks stripes_;
  /// Leaf lock: histories_/history_segs_/commit_branch_ shape. Never
  /// acquire another engine lock while holding it.
  mutable std::mutex commit_mu_;

  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<BranchId, uint32_t> head_seg_;
  /// The global branch-segment bitmap: row per branch, bit per segment.
  std::unordered_map<BranchId, Bitmap> branch_segments_;
  /// pk -> live (segment, record) at each branch head, packed by
  /// PkIndex::Pack.
  std::unordered_map<BranchId, PkIndex> pk_index_;

  /// Commit storage: one history file per (branch, segment) (§5.3).
  std::unordered_map<uint64_t, std::unique_ptr<CommitHistory>> histories_;
  std::unordered_map<BranchId, std::vector<uint32_t>> history_segs_;
  std::unordered_map<BranchId, std::unordered_set<uint32_t>> dirty_;
  std::unordered_map<CommitId, BranchId> commit_branch_;

  /// Builds one BitmapPart per segment \p spec's view reads, dropping
  /// segments whose file-level zone map rules out the predicate entirely
  /// (each drop adds one to *\p segments_skipped). Sound because the
  /// local bitmaps resolve visibility — a dropped segment's selected rows
  /// could only ever have failed the predicate.
  Result<std::vector<BitmapPart>> BuildScanParts(const ScanSpec& spec,
                                                 uint64_t* segments_skipped);
  Result<std::unique_ptr<ScanCursor>> ParallelScan(
      std::vector<BitmapPart> parts, uint64_t segments_skipped,
      const ScanSpec& spec, int threads);
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_HYBRID_H_
