#include "engine/bitmap_scan.h"

#include <algorithm>
#include <map>
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

  // One pass over each part's mask, grouping positions by primary key. The
  // ordered map also gives the ascending-pk emission order.
  struct Pos {
    uint32_t part = UINT32_MAX;  // UINT32_MAX: not live at that commit
    uint64_t idx = 0;
    bool live() const { return part != UINT32_MAX; }
    bool operator==(const Pos& o) const {
      return part == o.part && idx == o.idx;
    }
  };
  struct Positions {
    Pos l, r, b;
  };
  std::map<int64_t, Positions> keys;
  for (uint32_t p = 0; p < parts.size(); ++p) {
    const BitmapMergePart& part = parts[p];
    const Bitmap mask = Bitmap::Or(Bitmap::Xor(part.left, part.base),
                                   Bitmap::Xor(part.right, part.base));
    if (!mask.Any()) continue;  // nothing changed here between the commits
    BitmapScanner scanner(&part.map, schema, &mask);
    RecordRef rec;
    uint64_t idx;
    while (scanner.Next(&rec, &idx)) {
      Positions& k = keys[rec.pk()];
      if (part.left.Test(idx)) k.l = Pos{p, idx};
      if (part.right.Test(idx)) k.r = Pos{p, idx};
      if (part.base.Test(idx)) k.b = Pos{p, idx};
      stats->bytes_processed += rs;
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }

  // Emit each key's three states. A position shared by two commits is
  // fetched once (common case: unchanged-on-one-side keys).
  auto fetch = [&](const Pos& pos, std::string* buf,
                   std::optional<RecordRef>* ref) -> Status {
    HeapFile* file = nullptr;
    uint64_t local = 0;
    if (!parts[pos.part].map.Resolve(pos.idx, &file, &local)) {
      return Status::Corruption("bitmap merge walk: position outside its map");
    }
    DECIBEL_RETURN_NOT_OK(file->Get(local, buf));
    stats->bytes_processed += rs;
    ref->emplace(schema, Slice(*buf));
    return Status::OK();
  };
  std::string buf_l, buf_r, buf_b;
  for (const auto& [pk, pos] : keys) {
    MergeWalkItem item;
    item.pk = pk;
    std::optional<RecordRef> ref_l, ref_r, ref_b;
    if (pos.l.live()) {
      DECIBEL_RETURN_NOT_OK(fetch(pos.l, &buf_l, &ref_l));
      item.left = &*ref_l;
    }
    if (pos.r.live()) {
      if (pos.r == pos.l) {
        item.right = item.left;
      } else {
        DECIBEL_RETURN_NOT_OK(fetch(pos.r, &buf_r, &ref_r));
        item.right = &*ref_r;
      }
    }
    if (pos.b.live()) {
      if (pos.b == pos.l) {
        item.base = item.left;
      } else if (pos.b == pos.r) {
        item.base = item.right;
      } else {
        DECIBEL_RETURN_NOT_OK(fetch(pos.b, &buf_b, &ref_b));
        item.base = &*ref_b;
      }
    }
    ++stats->keys_emitted;
    DECIBEL_RETURN_NOT_OK(cb(item));
  }
  return Status::OK();
}

}  // namespace decibel
