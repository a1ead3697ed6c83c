#ifndef DECIBEL_ENGINE_BITMAP_SCAN_H_
#define DECIBEL_ENGINE_BITMAP_SCAN_H_

/// \file bitmap_scan.h
/// The read core of the two bitmap engines. Tuple-first and hybrid differ
/// only in where a bitmap position lives — in tuple-first's one striped
/// heap, or in one of hybrid's segment files — and a RecordMap
/// (storage/striped_heap.h) captures exactly that. Everything else is
/// here, once:
///
///   BitmapScanner    walks the records a bitmap selects through a map,
///                    one pinned page at a time, with zone-map skipping;
///   MakeBitmapCursor chains scanners over a list of BitmapParts into the
///                    engines' ScanCursor (tuple-first passes one part,
///                    hybrid one per segment, §3.4);
///   BitmapDiffWalk   the §3.2 XOR diff over parts;
///   BitmapMergeWalk  the §3.2 (L⊕B)|(R⊕B) merge walk over parts.
///
/// The engines decide which bitmaps over which files to read, under their
/// own locks; the core itself takes no lock. Every map must be built after
/// its part's bitmaps are materialized (see RecordMap).

#include <memory>
#include <vector>

#include "bitmap/bitmap.h"
#include "common/status.h"
#include "engine/engine.h"
#include "engine/scan_spec.h"
#include "storage/heap_file.h"
#include "storage/record.h"
#include "storage/striped_heap.h"

namespace decibel {

/// Iterates the records \p bits selects through a RecordMap. Pins one page
/// at a time and resolves a map extent once per page it enters, not once
/// per record; sparse bitmaps touch only the pages they occupy.
class BitmapScanner {
 public:
  /// \p map and \p bits must outlive the scanner.
  BitmapScanner(const RecordMap* map, const Schema* schema, const Bitmap* bits)
      : map_(map), schema_(schema), bits_(bits), bound_(map->bound()) {}
  /// Scans one heap file (its records as of now) — for callers that hold a
  /// file rather than a map.
  BitmapScanner(HeapFile* file, const Schema* schema, const Bitmap* bits)
      : own_(RecordMap::OfFile(file)),
        map_(&own_),
        schema_(schema),
        bits_(bits),
        bound_(own_.bound()) {}
  BitmapScanner(const BitmapScanner&) = delete;
  BitmapScanner& operator=(const BitmapScanner&) = delete;

  /// Turns on zone-map page skipping: pages whose zone maps rule out
  /// \p predicate (or whose compressed strips prove zero matches) are
  /// stepped over without decoding. Sound because the bitmap already
  /// resolved version visibility — skipped records were only ever going
  /// to be filtered out. \p stats (optional) receives pages_skipped and
  /// bytes_read. Both pointers must outlive the scanner.
  void EnablePruning(const PreparedPredicate* predicate, ScanStats* stats) {
    predicate_ = predicate;
    stats_ = stats;
  }

  /// Advances to the next selected record and its bit position. Returns
  /// false at end or error.
  bool Next(RecordRef* out, uint64_t* index) {
    if (!status_.ok()) return false;
    for (;;) {
      const uint64_t next = bits_->NextSet(pos_);
      if (next == UINT64_MAX || next >= bound_) return false;
      if (next >= hi_ && !EnterPage(next)) {
        if (!status_.ok()) return false;
        continue;  // the page was skipped; pos_ is past it
      }
      pos_ = next + 1;
      *out = RecordRef(schema_, Slice(lo_record_ + (next - lo_) * record_size_,
                                      record_size_));
      if (index != nullptr) *index = next;
      return true;
    }
  }

  const Status& status() const { return status_; }

 private:
  /// Resolves \p next to its (file, page) and pins or skips that page.
  /// True when the page is pinned and [lo_, hi_) covers \p next; false when
  /// the page was skipped (pos_ moved past it) or on error.
  bool EnterPage(uint64_t next);

  RecordMap own_;  // only for the HeapFile constructor
  const RecordMap* map_;
  const Schema* schema_;
  const Bitmap* bits_;
  uint64_t bound_;
  const PreparedPredicate* predicate_ = nullptr;
  ScanStats* stats_ = nullptr;
  uint64_t pos_ = 0;
  size_t extent_ = 0;
  /// Positions [lo_, hi_) lie on the pinned page, one extent, consecutive
  /// records from lo_record_.
  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
  const char* lo_record_ = nullptr;
  uint32_t record_size_ = 0;
  HeapFile::PinnedPage page_;
  HeapFile* pinned_file_ = nullptr;
  uint64_t pinned_page_no_ = UINT64_MAX;
  HeapFile* skip_file_ = nullptr;
  uint64_t skip_page_no_ = UINT64_MAX;
  Status status_;
};

/// One unit of a bitmap scan: the positions `bits` selects, addressed
/// through `map`. Multi-branch views also carry each requested branch's
/// column (`cols`) to annotate emitted rows with.
struct BitmapPart {
  RecordMap map;
  Bitmap bits;
  std::vector<Bitmap> cols;
};

/// Streams \p parts in order as one cursor, owning them. The pushed-down
/// predicate runs on the in-page record bytes before the per-branch
/// membership probes of multi views, and enables zone-map page skipping.
/// \p segments_skipped is what the caller already dropped; the cursor's
/// stats flush into \p counters (if not null) when it dies.
std::unique_ptr<ScanCursor> MakeBitmapCursor(const Schema* schema,
                                             std::vector<BitmapPart> parts,
                                             const ScanSpec& spec,
                                             uint64_t segments_skipped,
                                             ScanCounters* counters);

/// One unit of a head diff: `delta` holds the positions live in exactly one
/// head, `in_a` those live in head a.
struct BitmapDiffPart {
  RecordMap map;
  Bitmap in_a;
  Bitmap delta;
};

/// The §3.2 diff: streams every record of every part's delta once, telling
/// \p cb which head holds it. \p stats (optional) receives bytes_read.
Status BitmapDiffWalk(const Schema* schema,
                      const std::vector<BitmapDiffPart>& parts,
                      const DiffWalkCallback& cb, ScanStats* stats);

/// One unit of a three-way merge walk: the positions live at the left,
/// right and base commits.
struct BitmapMergePart {
  RecordMap map;
  Bitmap left;
  Bitmap right;
  Bitmap base;
};

/// The §3.2 merge walk over \p parts: scans each part's (L⊕B)|(R⊕B) mask,
/// groups the positions by primary key, and emits every key with its
/// three states in ascending pk order (StorageEngine::MergeWalk). Sound
/// when each commit holds at most one live position per key across all
/// parts: a position outside every mask is live in all three commits or
/// in none, so a key with one has the same record in all three.
Status BitmapMergeWalk(const Schema* schema,
                       const std::vector<BitmapMergePart>& parts,
                       const MergeWalkCallback& cb, MergeWalkStats* stats);

}  // namespace decibel

#endif  // DECIBEL_ENGINE_BITMAP_SCAN_H_
