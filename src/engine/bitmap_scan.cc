#include "engine/bitmap_scan.h"

#include <algorithm>
#include <optional>
#include <string>

namespace decibel {

bool BitmapScanner::EnterPage(uint64_t next) {
  const std::vector<RecordMap::Extent>& extents = map_->extents();
  // Positions only grow, so the covering extent is at or after the last.
  while (next >= extents[extent_].base + extents[extent_].capacity) ++extent_;
  const RecordMap::Extent& e = extents[extent_];
  HeapFile* file = map_->file(e.stripe);
  const uint64_t local = e.local_base + (next - e.base);
  const uint64_t filled = file->num_records();
  if (local >= filled) {
    // A bitmap materialized before its map never selects a record the
    // file has not appended (e.g. an open extent's unfilled tail).
    status_ = Status::Corruption("bitmap scan: set bit beyond its file's end");
    return false;
  }
  const uint64_t rpp = file->records_per_page();
  const uint64_t page_no = local / rpp;
  // The positions of this extent that land on this page.
  const uint64_t first = std::max(page_no * rpp, e.local_base);
  const uint64_t end =
      std::min({(page_no + 1) * rpp, e.local_base + e.capacity, filled});
  const uint64_t lo = e.base + (first - e.local_base);
  const uint64_t hi = e.base + (end - e.local_base);
  if (file != pinned_file_ || page_no != pinned_page_no_) {
    // The bitmap already resolved visibility, so a page the zone map (or
    // its compressed strips) rules out is stepped over whole; it stays
    // remembered as skipped until the scan moves to another page.
    bool skip = file == skip_file_ && page_no == skip_page_no_;
    if (!skip && predicate_ != nullptr &&
        !file->PageMayMatch(page_no, *predicate_)) {
      skip = true;
      if (stats_ != nullptr) ++stats_->pages_skipped;
    }
    if (!skip) {
      bool no_matches = false;
      auto page = file->PinPageCounted(page_no, predicate_, &no_matches);
      if (!page.ok()) {
        status_ = page.status();
        return false;
      }
      if (stats_ != nullptr) stats_->bytes_read += page.value().io_bytes;
      if (no_matches) {
        skip = true;
        if (stats_ != nullptr) ++stats_->pages_skipped;
      } else {
        page_ = std::move(page).MoveValueUnsafe();
        pinned_file_ = file;
        pinned_page_no_ = page_no;
      }
    }
    if (skip) {
      skip_file_ = file;
      skip_page_no_ = page_no;
      pos_ = hi;
      return false;
    }
  }
  lo_ = lo;
  hi_ = hi;
  record_size_ = file->record_size();
  lo_record_ = page_.payload + (first - page_no * rpp) * record_size_;
  return true;
}

namespace {

/// Chains BitmapScanners across parts. Owns the parts (their bitmaps and
/// maps), so it never touches engine state after construction: scans
/// stream lock-free and never observe a half-applied batch.
class BitmapCursor : public ScanCursor {
 public:
  BitmapCursor(const Schema* schema, std::vector<BitmapPart> parts,
               const ScanSpec& spec, uint64_t segments_skipped,
               ScanCounters* counters)
      : schema_(schema),
        parts_(std::move(parts)),
        branch_list_(spec.view == ScanView::kMulti ? spec.branches
                                                   : std::vector<BranchId>()),
        prepared_(spec.predicate, *schema),
        limit_(spec.limit),
        row_bytes_(ProjectedRowBytes(*schema, spec.projection)),
        counters_(counters) {
    stats_.segments_skipped = segments_skipped;
  }
  ~BitmapCursor() override {
    if (counters_ != nullptr) counters_->Add(stats_);
  }

  bool Next(ScanRow* out) override {
    if (limit_ != 0 && stats_.rows_emitted >= limit_) return false;
    for (;;) {
      if (!scanner_.has_value()) {
        if (next_part_ >= parts_.size()) return false;
        const BitmapPart& part = parts_[next_part_];
        scanner_.emplace(&part.map, schema_, &part.bits);
        scanner_->EnablePruning(&prepared_, &stats_);
      }
      RecordRef rec;
      uint64_t idx;
      if (!scanner_->Next(&rec, &idx)) {
        if (!scanner_->status().ok()) {
          status_ = scanner_->status();
          return false;
        }
        scanner_.reset();
        ++next_part_;
        continue;
      }
      ++stats_.rows_scanned;
      stats_.bytes_scanned += row_bytes_;
      if (!prepared_.Matches(rec.data().data())) continue;
      const std::vector<Bitmap>& cols = parts_[next_part_].cols;
      out->branches = nullptr;
      if (!cols.empty()) {
        present_.clear();
        for (uint32_t i = 0; i < cols.size(); ++i) {
          if (cols[i].Test(idx)) present_.push_back(i);
        }
        out->branches = &present_;
      }
      out->record = rec;
      ++stats_.rows_emitted;
      return true;
    }
  }

  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }
  const std::vector<BranchId>& branches() const override {
    return branch_list_;
  }

 private:
  const Schema* schema_;
  std::vector<BitmapPart> parts_;
  std::vector<BranchId> branch_list_;
  PreparedPredicate prepared_;
  uint64_t limit_;
  uint32_t row_bytes_;
  ScanCounters* counters_;
  size_t next_part_ = 0;
  std::optional<BitmapScanner> scanner_;
  std::vector<uint32_t> present_;
  ScanStats stats_;
  Status status_;
};

}  // namespace

std::unique_ptr<ScanCursor> MakeBitmapCursor(const Schema* schema,
                                             std::vector<BitmapPart> parts,
                                             const ScanSpec& spec,
                                             uint64_t segments_skipped,
                                             ScanCounters* counters) {
  return std::make_unique<BitmapCursor>(schema, std::move(parts), spec,
                                        segments_skipped, counters);
}

Status BitmapDiffWalk(const Schema* schema,
                      const std::vector<BitmapDiffPart>& parts,
                      const DiffWalkCallback& cb, ScanStats* stats) {
  // "Diff is straightforward to compute in tuple-first: we simply XOR
  // bitmaps together and emit records on the appropriate iterator" (§3.2).
  for (const BitmapDiffPart& part : parts) {
    BitmapScanner scanner(&part.map, schema, &part.delta);
    scanner.EnablePruning(/*predicate=*/nullptr, stats);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) cb(rec, part.in_a.Test(idx));
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }
  return Status::OK();
}

Status BitmapMergeWalk(const Schema* schema,
                       const std::vector<BitmapMergePart>& parts,
                       const MergeWalkCallback& cb, MergeWalkStats* stats) {
  const uint32_t rs = schema->record_size();

  // One pass over each part's mask. Every position a changed key holds at
  // any of the three commits lies in a mask (a position outside every
  // mask is live in all three commits or in none), so each scanned record
  // is copied once into the arena and emitted from there: no second,
  // pk-ordered fetch of pages the scan already read.
  enum : uint8_t { kLeft = 1, kRight = 2, kBase = 4 };
  struct Hit {
    int64_t pk;
    size_t offset;  // the record's bytes in the arena
    uint8_t sides;  // the commits it is live at
  };
  std::vector<Hit> hits;
  std::string arena;
  for (const BitmapMergePart& part : parts) {
    const Bitmap mask = Bitmap::Or(Bitmap::Xor(part.left, part.base),
                                   Bitmap::Xor(part.right, part.base));
    if (!mask.Any()) continue;  // nothing changed here between the commits
    BitmapScanner scanner(&part.map, schema, &mask);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) {
      const uint8_t sides = (part.left.Test(idx) ? kLeft : 0) |
                            (part.right.Test(idx) ? kRight : 0) |
                            (part.base.Test(idx) ? kBase : 0);
      hits.push_back(Hit{rec.pk(), arena.size(), sides});
      arena.append(rec.data().data(), rs);
      // Counted as read and again as emitted, as when the emit re-fetched
      // each position, so bytes ratios stay comparable.
      stats->bytes_processed += 2 * rs;
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }

  // Emit each key's three states in ascending pk order. A commit holds at
  // most one live position per key, so each side takes one hit's record.
  std::sort(hits.begin(), hits.end(),
            [](const Hit& a, const Hit& b) { return a.pk < b.pk; });
  std::vector<RecordRef> refs;
  for (size_t i = 0; i < hits.size();) {
    size_t end = i + 1;
    while (end < hits.size() && hits[end].pk == hits[i].pk) ++end;
    refs.clear();
    for (size_t h = i; h < end; ++h) {
      refs.emplace_back(schema, Slice(arena.data() + hits[h].offset, rs));
    }
    MergeWalkItem item;
    item.pk = hits[i].pk;
    for (size_t h = i; h < end; ++h) {
      const RecordRef* ref = &refs[h - i];
      if (hits[h].sides & kLeft) item.left = ref;
      if (hits[h].sides & kRight) item.right = ref;
      if (hits[h].sides & kBase) item.base = ref;
    }
    ++stats->keys_emitted;
    DECIBEL_RETURN_NOT_OK(cb(item));
    i = end;
  }
  return Status::OK();
}

}  // namespace decibel
