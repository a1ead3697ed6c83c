#include "query/queries.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace decibel {
namespace query {

namespace {

QueryStats ToQueryStats(const ScanStats& stats) {
  QueryStats out;
  out.rows_emitted = stats.rows_emitted;
  out.rows_scanned = stats.rows_scanned;
  out.bytes_scanned = stats.bytes_scanned;
  out.bytes_read = stats.bytes_read;
  return out;
}

/// Drains a pushed-down scan, forwarding the matching rows. The work
/// counters come straight from the cursor — the engine reports what it
/// scanned; nothing is re-derived here.
Result<QueryStats> RunScan(Decibel* db, ScanSpec spec,
                           const RowCallback& callback) {
  DECIBEL_ASSIGN_OR_RETURN(auto cursor, db->NewScan(std::move(spec)));
  ScanRow row;
  while (cursor->Next(&row)) {
    if (callback) callback(row.record);
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  return ToQueryStats(cursor->stats());
}

}  // namespace

Result<QueryStats> ScanVersion(Decibel* db, BranchId branch,
                               const Predicate& predicate,
                               const RowCallback& callback) {
  return RunScan(db, ScanSpec::Branch(branch).Where(predicate), callback);
}

Result<QueryStats> ScanVersionAt(Decibel* db, CommitId commit,
                                 const Predicate& predicate,
                                 const RowCallback& callback) {
  return RunScan(db, ScanSpec::Commit(commit).Where(predicate), callback);
}

Result<QueryStats> PositiveDiff(Decibel* db, BranchId a, BranchId b,
                                const RowCallback& callback) {
  // Table 1's "id NOT IN" shape is the diff view of the scan API; the
  // engine's bitmap algebra / winner tables run under the cursor.
  return RunScan(db, ScanSpec::Diff(a, b, DiffMode::kByKey), callback);
}

Result<QueryStats> JoinVersions(Decibel* db, BranchId a, BranchId b,
                                const Predicate& predicate,
                                const JoinCallback& callback) {
  QueryStats stats;
  const Schema* schema = &db->schema();

  // Build side: branch a with the predicate pushed into the engine —
  // non-matching rows never cross the cursor boundary.
  std::unordered_map<int64_t, std::string> build;
  int64_t min_pk = INT64_MAX;
  int64_t max_pk = INT64_MIN;
  DECIBEL_ASSIGN_OR_RETURN(auto build_cursor,
                           db->NewScan(ScanSpec::Branch(a).Where(predicate)));
  ScanRow row;
  while (build_cursor->Next(&row)) {
    const int64_t pk = row.record.pk();
    min_pk = std::min(min_pk, pk);
    max_pk = std::max(max_pk, pk);
    build.emplace(pk, row.record.data().ToString());
  }
  DECIBEL_RETURN_NOT_OK(build_cursor->status());
  stats.rows_scanned += build_cursor->stats().rows_scanned;
  stats.bytes_scanned += build_cursor->stats().bytes_scanned;
  if (build.empty()) return stats;  // nothing can join

  // Probe side: branch b, pipelined, restricted to the build side's key
  // range so zone maps can skip the pages no build key can match.
  Predicate key_range;
  Comparison lo;
  lo.column = 0;  // the primary key
  lo.op = CompareOp::kGe;
  lo.int_value = min_pk;
  Comparison hi = lo;
  hi.op = CompareOp::kLe;
  hi.int_value = max_pk;
  key_range.And(lo).And(hi);
  DECIBEL_ASSIGN_OR_RETURN(
      auto probe_cursor, db->NewScan(ScanSpec::Branch(b).Where(key_range)));
  while (probe_cursor->Next(&row)) {
    auto hit = build.find(row.record.pk());
    if (hit != build.end()) {
      ++stats.rows_emitted;
      if (callback) {
        callback(RecordRef(schema, hit->second), row.record);
      }
    }
  }
  DECIBEL_RETURN_NOT_OK(probe_cursor->status());
  stats.rows_scanned += probe_cursor->stats().rows_scanned;
  stats.bytes_scanned += probe_cursor->stats().bytes_scanned;
  return stats;
}

Result<QueryStats> ScanHeads(Decibel* db, const Predicate& predicate,
                             const AnnotatedRowCallback& callback) {
  DECIBEL_ASSIGN_OR_RETURN(auto cursor,
                           db->NewScan(ScanSpec::Heads().Where(predicate)));
  ScanRow row;
  while (cursor->Next(&row)) {
    if (callback) callback(row.record, *row.branches);
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  return ToQueryStats(cursor->stats());
}

namespace {

Result<size_t> ResolveNumericColumn(const Schema& schema,
                                    const std::string& column) {
  const int col = schema.FindColumn(column);
  if (col < 0) {
    return Status::InvalidArgument("aggregate: no column '" + column + "'");
  }
  const FieldType type = schema.column(static_cast<size_t>(col)).type;
  if (type != FieldType::kInt32 && type != FieldType::kInt64) {
    return Status::InvalidArgument("aggregate: column '" + column +
                                   "' is not integer");
  }
  return static_cast<size_t>(col);
}

void Accumulate(AggregateResult* agg, int64_t value) {
  if (agg->count == 0) {
    agg->min = value;
    agg->max = value;
  } else {
    agg->min = std::min(agg->min, value);
    agg->max = std::max(agg->max, value);
  }
  agg->sum += value;
  ++agg->count;
}

void Finalize(AggregateResult* agg) {
  agg->avg = agg->count == 0
                 ? 0
                 : static_cast<double>(agg->sum) /
                       static_cast<double>(agg->count);
}

}  // namespace

Result<AggregateResult> AggregateColumn(Decibel* db, BranchId branch,
                                        const std::string& column,
                                        const Predicate& predicate) {
  DECIBEL_ASSIGN_OR_RETURN(size_t col,
                           ResolveNumericColumn(db->schema(), column));
  // Project to the aggregated column so copy-out paths move only the
  // bytes the aggregate reads.
  AggregateResult agg;
  DECIBEL_RETURN_NOT_OK(
      RunScan(db,
              ScanSpec::Branch(branch).Where(predicate).Project({col}),
              [&](const RecordRef& rec) {
                Accumulate(&agg, rec.GetNumeric(col));
              })
          .status());
  Finalize(&agg);
  return agg;
}

Result<std::vector<AggregateResult>> AggregatePerBranch(
    Decibel* db, const std::vector<BranchId>& branches,
    const std::string& column, const Predicate& predicate) {
  DECIBEL_ASSIGN_OR_RETURN(size_t col,
                           ResolveNumericColumn(db->schema(), column));
  std::vector<AggregateResult> aggs(branches.size());
  // "if a query is calculating an average of some value per branch, the
  // query executor makes a single pass on the heap file, emitting each
  // tuple annotated with the branches it is active in" (§3.2).
  DECIBEL_ASSIGN_OR_RETURN(
      auto cursor, db->NewScan(ScanSpec::Multi(branches)
                                   .Where(predicate)
                                   .Project({col})));
  ScanRow row;
  while (cursor->Next(&row)) {
    const int64_t value = row.record.GetNumeric(col);
    for (uint32_t p : *row.branches) {
      Accumulate(&aggs[p], value);
    }
  }
  DECIBEL_RETURN_NOT_OK(cursor->status());
  for (AggregateResult& agg : aggs) Finalize(&agg);
  return aggs;
}

}  // namespace query
}  // namespace decibel
