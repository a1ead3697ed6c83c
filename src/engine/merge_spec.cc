#include "engine/merge_spec.h"

#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/engine.h"
#include "engine/merge_util.h"

namespace decibel {

namespace {

/// True when the key's state differs between the two sides: present on
/// one and not the other, or present on both with different bytes.
bool StatesDiffer(const Schema& schema, const RecordRef* a,
                  const RecordRef* b) {
  if ((a != nullptr) != (b != nullptr)) return true;
  if (a == nullptr) return false;
  return RecordsDiffer(schema, *a, *b);
}

std::optional<Record> CopyState(const Schema& schema, const RecordRef* ref) {
  if (ref == nullptr) return std::nullopt;
  return Record(&schema, ref->data());
}

/// The write-batch op (if any) that moves the key from \p left to
/// \p final_state, plus the MergeChangeKind the row reports.
MergeChangeKind StageTransition(const Schema& schema, const RecordRef* left,
                                const std::optional<Record>& final_state,
                                int64_t pk, bool stage_ops,
                                WriteBatch* batch) {
  const bool left_present = left != nullptr;
  if (!final_state.has_value()) {
    if (!left_present) return MergeChangeKind::kNone;
    if (stage_ops) batch->Delete(pk);
    return MergeChangeKind::kDelete;
  }
  if (left_present &&
      !RecordsDiffer(schema, final_state->ref(), *left)) {
    return MergeChangeKind::kNone;
  }
  if (stage_ops) {
    if (left_present) {
      batch->Update(*final_state);
    } else {
      batch->Insert(*final_state);
    }
  }
  return left_present ? MergeChangeKind::kUpdate : MergeChangeKind::kAdd;
}

}  // namespace

Status StageMerge(StorageEngine* engine, const Schema& schema,
                  CommitId left, CommitId right, CommitId base,
                  const StageOptions& opts, MergePlan* plan) {
  if (opts.resolution == MergeResolution::kCallback &&
      (opts.on_conflict == nullptr || !*opts.on_conflict)) {
    return Status::InvalidArgument(
        "merge: kCallback resolution needs an on_conflict callback");
  }
  const uint32_t record_size =
      static_cast<uint32_t>(schema.record_size());
  // Precedence for non-callback resolutions; kLatestWins exploits the
  // monotonic commit-id allocation: the larger head committed later.
  bool left_wins = LeftWins(opts.policy);
  switch (opts.resolution) {
    case MergeResolution::kPolicy:
    case MergeResolution::kCallback:
      break;
    case MergeResolution::kOurs:
      left_wins = true;
      break;
    case MergeResolution::kTheirs:
      left_wins = false;
      break;
    case MergeResolution::kLatestWins:
      left_wins = left > right;
      break;
  }

  MergeWalkStats walk_stats;
  auto reconcile = [&](const MergeWalkItem& item) -> Status {
    // Agreement is not a conflict: both sides deleted, or both sides
    // wrote identical bytes (including both inserting the same record).
    if (!StatesDiffer(schema, item.left, item.right)) return Status::OK();

    const bool changed_l = StatesDiffer(schema, item.left, item.base);
    const bool changed_r = StatesDiffer(schema, item.right, item.base);
    plan->result.diff_bytes +=
        (changed_l && item.left != nullptr ? record_size : 0) +
        (changed_r && item.right != nullptr ? record_size : 0);

    MergeRow row;
    row.pk = item.pk;
    std::optional<Record> final_state;

    if (!changed_r) {
      // Only 'into' moved; the merge keeps its state.
      final_state = CopyState(schema, item.left);
    } else if (!changed_l) {
      // Only 'from' moved; adopt it (addition, update or delete).
      final_state = CopyState(schema, item.right);
    } else {
      // Both sides changed the key since the ancestor. Field-level
      // reconciliation needs all three versions; a delete on either side
      // or a double insert (no ancestor) resolves at record granularity.
      const bool field_level = IsThreeWay(opts.policy) &&
                               item.base != nullptr &&
                               item.left != nullptr && item.right != nullptr;
      FieldMergeOutcome outcome;
      if (field_level) {
        outcome = ThreeWayFieldMerge(schema, *item.base, *item.left,
                                     *item.right, left_wins);
        row.conflict_columns = outcome.conflict_columns;
      } else {
        outcome.conflict = true;
      }
      row.conflict = outcome.conflict;
      row.field_merge = outcome.needs_new_record;
      if (outcome.conflict) plan->result.conflicts++;
      if (outcome.needs_new_record) plan->result.field_merges++;

      if (outcome.conflict &&
          opts.resolution == MergeResolution::kCallback) {
        MergeConflict conflict;
        conflict.pk = item.pk;
        conflict.base = CopyState(schema, item.base);
        conflict.left = CopyState(schema, item.left);
        conflict.right = CopyState(schema, item.right);
        conflict.conflict_columns = row.conflict_columns;
        DECIBEL_ASSIGN_OR_RETURN(ConflictResolution verdict,
                                 (*opts.on_conflict)(conflict));
        switch (verdict.action) {
          case ConflictResolution::Action::kTakeLeft:
            final_state = CopyState(schema, item.left);
            break;
          case ConflictResolution::Action::kTakeRight:
            final_state = CopyState(schema, item.right);
            break;
          case ConflictResolution::Action::kDelete:
            final_state = std::nullopt;
            break;
          case ConflictResolution::Action::kCustom:
            if (!verdict.custom.has_value()) {
              return Status::InvalidArgument(
                  "merge: kCustom resolution without a record (pk " +
                  std::to_string(item.pk) + ")");
            }
            if (verdict.custom->ref().pk() != item.pk) {
              return Status::InvalidArgument(
                  "merge: kCustom resolution changes the primary key (pk " +
                  std::to_string(item.pk) + ")");
            }
            final_state = std::move(verdict.custom);
            break;
        }
      } else if (field_level && outcome.needs_new_record) {
        final_state = std::move(outcome.merged);
      } else if (field_level) {
        final_state = CopyState(
            schema, outcome.keep_left ? item.left : item.right);
      } else {
        final_state = CopyState(schema,
                                left_wins ? item.left : item.right);
      }
    }

    row.change = StageTransition(schema, item.left, final_state, item.pk,
                                 opts.stage_ops, &plan->batch);
    if (row.change != MergeChangeKind::kNone) plan->result.merged_records++;
    if (opts.collect_rows) {
      row.base = CopyState(schema, item.base);
      row.left = CopyState(schema, item.left);
      row.right = CopyState(schema, item.right);
      row.resolved = std::move(final_state);
      plan->rows.push_back(std::move(row));
    }
    return Status::OK();
  };

  DECIBEL_RETURN_NOT_OK(
      engine->MergeWalk(left, right, base, reconcile, &walk_stats));
  plan->result.bytes_processed = walk_stats.bytes_processed;
  return Status::OK();
}

Status StageDiff(StorageEngine* engine, const Schema& schema,
                 CommitId a, CommitId b, CommitId base, MergePlan* plan) {
  const uint32_t record_size =
      static_cast<uint32_t>(schema.record_size());
  MergeWalkStats walk_stats;
  auto classify = [&](const MergeWalkItem& item) -> Status {
    if (!StatesDiffer(schema, item.left, item.right)) return Status::OK();
    const bool changed_l = StatesDiffer(schema, item.left, item.base);
    const bool changed_r = StatesDiffer(schema, item.right, item.base);
    plan->result.diff_bytes +=
        (changed_l && item.left != nullptr ? record_size : 0) +
        (changed_r && item.right != nullptr ? record_size : 0);
    MergeRow row;
    row.pk = item.pk;
    row.conflict = changed_l && changed_r;
    if (row.conflict) plan->result.conflicts++;
    if (item.left == nullptr) {
      row.change = MergeChangeKind::kAdd;
    } else if (item.right == nullptr) {
      row.change = MergeChangeKind::kDelete;
    } else {
      row.change = MergeChangeKind::kUpdate;
    }
    plan->result.merged_records++;
    row.base = CopyState(schema, item.base);
    row.left = CopyState(schema, item.left);
    row.right = CopyState(schema, item.right);
    plan->rows.push_back(std::move(row));
    return Status::OK();
  };
  DECIBEL_RETURN_NOT_OK(
      engine->MergeWalk(a, b, base, classify, &walk_stats));
  plan->result.bytes_processed = walk_stats.bytes_processed;
  return Status::OK();
}

Status DiffHeads(StorageEngine* engine, BranchId a, BranchId b,
                 DiffMode mode, const DiffCallback& pos,
                 const DiffCallback& neg, ScanStats* stats) {
  // Either side's keys are known only once the walk ends, so each side is
  // buffered: its rows back to back in one arena (rows are fixed-width)
  // when they are emitted or compared by content, and pk -> arena offset
  // when the other side is emitted and looks its keys up here.
  struct Side {
    const DiffCallback* emit = nullptr;
    bool keep_rows = false;
    std::string arena;
    std::unordered_map<int64_t, size_t> keys;
  } sides[2];
  sides[0].emit = &pos;
  sides[1].emit = &neg;
  const Schema& schema = engine->schema();
  const size_t width = schema.record_size();
  const bool by_content = mode == DiffMode::kByContent;
  for (int s = 0; s < 2; ++s) {
    sides[s].keep_rows = *sides[s].emit || (by_content && *sides[1 - s].emit);
  }
  DECIBEL_RETURN_NOT_OK(engine->DiffWalk(
      a, b,
      [&](const RecordRef& rec, bool in_a) {
        Side& side = sides[in_a ? 0 : 1];
        const size_t offset = side.arena.size();
        if (side.keep_rows) side.arena.append(rec.data().data(), width);
        if (*sides[in_a ? 1 : 0].emit) side.keys.emplace(rec.pk(), offset);
      },
      stats));

  // A walked row's key is live on the other side exactly when the walk
  // also emitted the other side's (differently located) copy of it.
  for (int s = 0; s < 2; ++s) {
    const Side& self = sides[s];
    const Side& other = sides[1 - s];
    if (!*self.emit) continue;
    for (size_t off = 0; off < self.arena.size(); off += width) {
      const char* row = self.arena.data() + off;
      const RecordRef rec(&schema, Slice(row, width));
      auto it = other.keys.find(rec.pk());
      const bool held =
          it != other.keys.end() &&
          (!by_content ||
           memcmp(other.arena.data() + it->second, row, width) == 0);
      if (!held) (*self.emit)(rec);
    }
  }
  return Status::OK();
}

namespace {

class BufferedMergeCursor : public MergeCursor {
 public:
  BufferedMergeCursor(std::vector<MergeRow> rows, MergeResult stats,
                      Status status)
      : rows_(std::move(rows)),
        stats_(stats),
        status_(std::move(status)) {}

  const MergeRow* Next() override {
    if (!status_.ok() || pos_ >= rows_.size()) return nullptr;
    return &rows_[pos_++];
  }
  const Status& status() const override { return status_; }
  const MergeResult& stats() const override { return stats_; }

 private:
  std::vector<MergeRow> rows_;
  size_t pos_ = 0;
  MergeResult stats_;
  Status status_;
};

}  // namespace

std::unique_ptr<MergeCursor> MakeMergeCursor(std::vector<MergeRow> rows,
                                             MergeResult stats) {
  return std::make_unique<BufferedMergeCursor>(std::move(rows), stats,
                                               Status::OK());
}

std::unique_ptr<MergeCursor> MakeFailedMergeCursor(Status status) {
  return std::make_unique<BufferedMergeCursor>(std::vector<MergeRow>{},
                                               MergeResult{},
                                               std::move(status));
}

}  // namespace decibel
