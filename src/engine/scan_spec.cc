#include "engine/scan_spec.h"

#include <cstring>

#include "columnar/simd_filter.h"

namespace decibel {

const std::vector<BranchId>& ScanCursor::branches() const {
  static const std::vector<BranchId> kEmpty;
  return kEmpty;
}

Result<std::vector<size_t>> ResolveProjection(
    const Schema& schema, const std::vector<std::string>& columns) {
  std::vector<size_t> out;
  out.reserve(columns.size());
  for (const std::string& name : columns) {
    const int col = schema.FindColumn(name);
    if (col < 0) {
      return Status::InvalidArgument("projection: no column '" + name + "'");
    }
    out.push_back(static_cast<size_t>(col));
  }
  return out;
}

Status ValidateScanSpec(const ScanSpec& spec, const Schema& schema) {
  if (spec.view == ScanView::kHeads) {
    return Status::InvalidArgument(
        "scan: kHeads must be resolved by Decibel::NewScan (engines need "
        "an explicit branch list)");
  }
  if (spec.view == ScanView::kDiff) {
    return Status::InvalidArgument(
        "scan: kDiff is served by Decibel::NewScan (over the engine's "
        "DiffWalk), not by engines");
  }
  if (spec.view == ScanView::kMulti && spec.branches.empty()) {
    return Status::InvalidArgument("scan: multi-branch view needs branches");
  }
  return ValidateScanColumns(spec, schema);
}

Status ValidateScanColumns(const ScanSpec& spec, const Schema& schema) {
  for (size_t col : spec.projection) {
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("scan: projection column " +
                                     std::to_string(col) + " out of range");
    }
  }
  for (const Comparison& cmp : spec.predicate.comparisons()) {
    if (cmp.column >= schema.num_columns()) {
      return Status::InvalidArgument("scan: predicate column " +
                                     std::to_string(cmp.column) +
                                     " out of range");
    }
  }
  return Status::OK();
}

uint32_t ProjectedRowBytes(const Schema& schema,
                           const std::vector<size_t>& projection) {
  if (projection.empty()) return schema.record_size();
  uint32_t bytes = 1;  // record header
  for (size_t col : projection) bytes += schema.column(col).width;
  return bytes;
}

PreparedPredicate::PreparedPredicate(const Predicate& predicate,
                                     const Schema& schema) {
  raw_ = predicate.comparisons();
  comparisons_.reserve(predicate.comparisons().size());
  for (const Comparison& src : predicate.comparisons()) {
    Cmp cmp;
    cmp.column = static_cast<uint32_t>(src.column);
    cmp.offset = schema.offset(src.column);
    cmp.width = schema.column(src.column).width;
    cmp.type = schema.column(src.column).type;
    cmp.op = src.op;
    cmp.int_value = src.int_value;
    cmp.double_value = src.double_value;
    cmp.string_value = src.string_value;
    comparisons_.push_back(std::move(cmp));
  }
}

bool PreparedPredicate::MatchesOne(const Cmp& cmp, const char* record) {
  const char* p = record + cmp.offset;
  switch (cmp.type) {
    case FieldType::kInt32: {
      int32_t v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<int64_t>(cmp.op, v, cmp.int_value);
    }
    case FieldType::kInt64: {
      int64_t v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<int64_t>(cmp.op, v, cmp.int_value);
    }
    case FieldType::kDouble: {
      double v;
      memcpy(&v, p, sizeof(v));
      return ApplyCompareOp<double>(cmp.op, v, cmp.double_value);
    }
    case FieldType::kString: {
      size_t w = cmp.width;
      while (w > 0 && p[w - 1] == '\0') --w;
      return ApplyCompareOp<std::string_view>(cmp.op, std::string_view(p, w),
                                       std::string_view(cmp.string_value));
    }
  }
  return false;
}

void PreparedPredicate::MatchBatch(const char* base, uint32_t n,
                                   uint32_t stride, uint8_t* mask) const {
  for (const Cmp& cmp : comparisons_) {
    const char* col = base + cmp.offset;
    switch (cmp.type) {
      case FieldType::kInt32: {
        // The scalar path compares in the int64 domain; a literal outside
        // int32 range makes the comparison constant over every stored
        // value, so resolve it here rather than truncate the rhs.
        if (cmp.int_value > INT32_MAX || cmp.int_value < INT32_MIN) {
          const bool rhs_high = cmp.int_value > INT32_MAX;
          bool all = false;
          switch (cmp.op) {
            case CompareOp::kEq:
              all = false;
              break;
            case CompareOp::kNe:
              all = true;
              break;
            case CompareOp::kLt:
            case CompareOp::kLe:
              all = rhs_high;
              break;
            case CompareOp::kGt:
            case CompareOp::kGe:
              all = !rhs_high;
              break;
          }
          if (!all) memset(mask, 0, n);
          break;
        }
        columnar::FilterStridedI32(col, stride, n, cmp.op,
                                   static_cast<int32_t>(cmp.int_value), mask);
        break;
      }
      case FieldType::kInt64:
        columnar::FilterStridedI64(col, stride, n, cmp.op, cmp.int_value,
                                   mask);
        break;
      case FieldType::kDouble:
        columnar::FilterStridedF64(col, stride, n, cmp.op, cmp.double_value,
                                   mask);
        break;
      case FieldType::kString:
        for (uint32_t i = 0; i < n; ++i) {
          if (mask[i] &&
              !MatchesOne(cmp, base + static_cast<size_t>(i) * stride)) {
            mask[i] = 0;
          }
        }
        break;
    }
  }
}

bool PreparedPredicate::MayMatch(const columnar::ZoneMap& zone) const {
  if (!zone.has_live_rows()) return false;
  for (const Cmp& cmp : comparisons_) {
    if (!zone.MayMatch(cmp.column, cmp.type, cmp.op, cmp.int_value,
                       cmp.double_value)) {
      return false;
    }
  }
  return true;
}

}  // namespace decibel
