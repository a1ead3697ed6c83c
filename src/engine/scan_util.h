#ifndef DECIBEL_ENGINE_SCAN_UTIL_H_
#define DECIBEL_ENGINE_SCAN_UTIL_H_

/// \file scan_util.h
/// Shared ScanCursor building blocks: a buffered cursor for read paths
/// that are naturally producer-driven (diff views, parallel segment
/// scans), and the shared kDiff cursor factory.

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/scan_spec.h"

namespace decibel {

/// Copies a record for buffered cursors. An empty projection copies the
/// whole record; otherwise only the header, the primary key and the
/// projected columns are copied (the rest stays zero) — the copy-out
/// saving a narrow projection buys on materializing read paths.
inline std::string ProjectRecordCopy(const Schema& schema, Slice record,
                                     const std::vector<size_t>& projection) {
  if (projection.empty()) return record.ToString();
  std::string buf(schema.record_size(), '\0');
  buf[0] = record[0];
  auto copy_column = [&](size_t col) {
    memcpy(buf.data() + schema.offset(col),
           record.data() + schema.offset(col), schema.column(col).width);
  };
  copy_column(0);  // identity travels with every row
  for (size_t col : projection) copy_column(col);
  return buf;
}

/// A cursor over rows materialized up front. Producers filter with the
/// pushed-down predicate *before* adding rows, so predicate-failing
/// records are never copied; a non-empty projection narrows each copy to
/// the header, the key and the projected columns.
class BufferedCursor : public ScanCursor {
 public:
  BufferedCursor(const Schema* schema, ScanCounters* counters)
      : schema_(schema), counters_(counters) {}
  ~BufferedCursor() override {
    if (counters_ != nullptr) counters_->Add(stats_);
  }

  /// Copies one record into the buffer (see ProjectRecordCopy).
  void AddRow(Slice record, const std::vector<size_t>& projection) {
    rows_.push_back(ProjectRecordCopy(*schema_, record, projection));
  }

  /// Adopts an already-projected copy produced elsewhere (the parallel
  /// segment-scan workers).
  void AddOwnedRow(std::string record) { rows_.push_back(std::move(record)); }

  /// AddRow plus the multi-branch membership annotation. Callers must
  /// annotate either every buffered row or none.
  void AddAnnotatedRow(std::string record, std::vector<uint32_t> present) {
    rows_.push_back(std::move(record));
    annotations_.push_back(std::move(present));
  }

  size_t buffered() const { return rows_.size(); }
  std::vector<BranchId>* mutable_branch_list() { return &branch_list_; }
  ScanStats* mutable_stats() { return &stats_; }
  void set_status(Status status) { status_ = std::move(status); }

  bool Next(ScanRow* out) override {
    if (!status_.ok() || next_ >= rows_.size()) return false;
    out->record = RecordRef(schema_, Slice(rows_[next_]));
    out->branches = annotations_.empty() ? nullptr : &annotations_[next_];
    ++next_;
    ++stats_.rows_emitted;
    return true;
  }
  const Status& status() const override { return status_; }
  const ScanStats& stats() const override { return stats_; }
  const std::vector<BranchId>& branches() const override {
    return branch_list_;
  }

 private:
  const Schema* schema_;
  ScanCounters* counters_;
  std::vector<std::string> rows_;
  std::vector<std::vector<uint32_t>> annotations_;
  std::vector<BranchId> branch_list_;
  size_t next_ = 0;
  ScanStats stats_;
  Status status_;
};

/// Serves a kDiff ScanSpec through DiffHeads over the engine's DiffWalk:
/// runs the positive diff eagerly, applying the pushed-down predicate
/// before each row is copied into the buffer and stopping the copies at
/// spec.limit. Decibel::NewScan serves its kDiff views here; the work
/// counts in the engine's scan counters.
Result<std::unique_ptr<ScanCursor>> MakeDiffScanCursor(StorageEngine* engine,
                                                       const ScanSpec& spec);

}  // namespace decibel

#endif  // DECIBEL_ENGINE_SCAN_UTIL_H_
