#ifndef DECIBEL_ENGINE_MERGE_SPEC_H_
#define DECIBEL_ENGINE_MERGE_SPEC_H_

/// \file merge_spec.h
/// The unified merge/diff contract, mirroring scan_spec.h for the write
/// side of §2.2.3: a MergeSpec describes *what* to merge (an `into` and a
/// `from` branch) and *how conflicts resolve* (a MergePolicy granularity
/// plus a MergeResolution — ours/theirs/latest-wins/policy precedence or
/// a user callback); the facade turns it into either a dry-run preview
/// cursor (stream the reconciled keys without mutating anything) or an
/// executed merge whose changes travel the ordinary WriteBatch/ApplyBatch
/// path — atomic, stripe-lock-ordered and WAL-framed like every other
/// mutation.
///
/// The engine substrate is one commit-addressed primitive,
/// StorageEngine::MergeWalk(left, right, base): stream every primary key
/// whose record state differs between two commits, with the key's state
/// at both commits and at their common ancestor; head diffs use
/// StorageEngine::DiffWalk. Everything semantic — what is a conflict,
/// which side wins, what gets written, what a diff emits — lives in
/// StageMerge/StageDiff/DiffHeads here, shared by all three engines, so
/// the engines can only diverge on *cost*, never on *answers*.
///
/// Conflict semantics (§2.2.3): two records conflict if they share a
/// primary key and both sides changed it since the lowest common
/// ancestor with different outcomes. Both sides deleting a key is
/// agreement, not a conflict; both sides writing identical bytes is
/// agreement; an update on one side against a delete on the other is a
/// conflict the resolution decides. Three-way policies reconcile
/// field-by-field (merge_util.h); two-way policies at whole-record
/// granularity.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/scan_spec.h"
#include "storage/record.h"
#include "storage/schema.h"
#include "txn/write_batch.h"
#include "version/types.h"

namespace decibel {

class StorageEngine;

/// Conflict granularity for merges (§2.2.3 Merge).
enum class MergePolicy {
  kTwoWayLeft,    ///< tuple-level precedence, 'into' branch wins
  kTwoWayRight,   ///< tuple-level precedence, 'from' branch wins
  kThreeWayLeft,  ///< field-level three-way merge, 'into' wins conflicts
  kThreeWayRight, ///< field-level three-way merge, 'from' wins conflicts
};

inline bool IsThreeWay(MergePolicy p) {
  return p == MergePolicy::kThreeWayLeft || p == MergePolicy::kThreeWayRight;
}
inline bool LeftWins(MergePolicy p) {
  return p == MergePolicy::kTwoWayLeft || p == MergePolicy::kThreeWayLeft;
}

/// How conflicting keys resolve, layered on the MergePolicy (which only
/// fixes the granularity and a default precedence direction).
enum class MergeResolution : uint8_t {
  kPolicy,      ///< precedence from the policy (LeftWins)
  kOurs,        ///< every conflict resolves to the 'into' side
  kTheirs,      ///< every conflict resolves to the 'from' side
  /// The side whose head commit is newer wins (commit ids are allocated
  /// monotonically, so the larger head committed later). Coarse — whole
  /// merge-side recency, not per-record timestamps.
  kLatestWins,
  kCallback,    ///< MergeSpec::on_conflict decides each conflicting key
};

struct MergeResult {
  uint64_t conflicts = 0;        ///< records needing precedence resolution
  uint64_t merged_records = 0;   ///< records whose state changed in 'into'
  uint64_t field_merges = 0;     ///< records merged field-by-field (3-way)
  /// Bytes examined to perform the merge; Table 3 reports throughput as
  /// diff bytes / merge seconds. Engine-dependent (this is the cost the
  /// physical layouts compete on).
  uint64_t bytes_processed = 0;
  /// Size of the two-sided content diff against the ancestor: one record
  /// width per changed live version. Engine-independent by construction.
  uint64_t diff_bytes = 0;
};

/// One conflicting key handed to a resolution callback: the record state
/// at the ancestor and on both sides (absent optional = not live there).
struct MergeConflict {
  int64_t pk = 0;
  std::optional<Record> base;
  std::optional<Record> left;   ///< the 'into' side
  std::optional<Record> right;  ///< the 'from' side
  /// Columns both sides changed differently (three-way merges only).
  std::vector<size_t> conflict_columns;
};

/// A callback's verdict for one conflicting key.
struct ConflictResolution {
  enum class Action : uint8_t { kTakeLeft, kTakeRight, kDelete, kCustom };
  Action action = Action::kTakeLeft;
  std::optional<Record> custom;  ///< the merged record for kCustom

  static ConflictResolution TakeLeft() { return {}; }
  static ConflictResolution TakeRight() {
    return {Action::kTakeRight, std::nullopt};
  }
  static ConflictResolution Drop() { return {Action::kDelete, std::nullopt}; }
  static ConflictResolution Custom(Record r) {
    return {Action::kCustom, std::move(r)};
  }
};

/// Decides one conflicting key. Returning an error status aborts the
/// whole merge before anything is mutated (staging is a pure phase).
using ConflictCallback =
    std::function<Result<ConflictResolution>(const MergeConflict&)>;

/// A declarative description of one merge. Build with Branches, then
/// chain WithPolicy/Resolve/OnConflict:
///
///   db->Merge(MergeSpec::Branches(master, dev)
///                 .WithPolicy(MergePolicy::kThreeWayLeft)
///                 .Resolve(MergeResolution::kTheirs));
///
/// The same spec drives Decibel::PreviewMerge (dry run, nothing written)
/// and Decibel::Merge (atomic execution).
struct MergeSpec {
  BranchId into = kMasterBranch;
  BranchId from = kInvalidBranch;
  MergePolicy policy = MergePolicy::kThreeWayLeft;
  MergeResolution resolution = MergeResolution::kPolicy;
  ConflictCallback on_conflict;

  static MergeSpec Branches(BranchId into, BranchId from) {
    MergeSpec spec;
    spec.into = into;
    spec.from = from;
    return spec;
  }

  MergeSpec& WithPolicy(MergePolicy p) {
    policy = p;
    return *this;
  }
  MergeSpec& Resolve(MergeResolution r) {
    resolution = r;
    return *this;
  }
  MergeSpec& OnConflict(ConflictCallback cb) {
    on_conflict = std::move(cb);
    resolution = MergeResolution::kCallback;
    return *this;
  }
};

/// What executing a merge (or, for a diff, moving from the left commit to
/// the right one) does to the key.
enum class MergeChangeKind : uint8_t {
  kNone,    ///< 'into' keeps its state (left side won, or only left changed)
  kAdd,     ///< key becomes live (absent on the left, adopted from right)
  kUpdate,  ///< key's record bytes change
  kDelete,  ///< key stops being live
};

/// One reconciled key of a preview or diff cursor.
struct MergeRow {
  int64_t pk = 0;
  MergeChangeKind change = MergeChangeKind::kNone;
  /// The key needed precedence/callback resolution (for diffs: both
  /// commits changed it since their common ancestor).
  bool conflict = false;
  bool field_merge = false;  ///< reconciled record takes fields from both
  std::optional<Record> base;
  std::optional<Record> left;
  std::optional<Record> right;
  /// The state the key ends in if the merge executes; absent = the key
  /// ends deleted/absent. Unset for pure diffs (nothing executes).
  std::optional<Record> resolved;
  /// Columns both sides changed differently (three-way merges only).
  std::vector<size_t> conflict_columns;
};

/// Pull cursor over reconciled keys, in ascending pk order. Buffered:
/// the walk runs up front (a dry run needs the total conflict counts in
/// stats() anyway), Next() just streams.
class MergeCursor {
 public:
  virtual ~MergeCursor() = default;
  /// The next row, or nullptr at end or error (check status()). The row
  /// stays valid until the next call.
  virtual const MergeRow* Next() = 0;
  virtual const Status& status() const = 0;
  /// Totals over the whole walk (complete from the first call).
  virtual const MergeResult& stats() const = 0;
};

// ------------------------------------------------- engine walk substrate

/// One changed primary key streamed by StorageEngine::MergeWalk: the
/// key's record state at the left commit, the right commit and their
/// common ancestor. A null side means the key is not live at that commit
/// (never inserted, or deleted). Refs are valid only during the callback.
struct MergeWalkItem {
  int64_t pk = 0;
  const RecordRef* left = nullptr;
  const RecordRef* right = nullptr;
  const RecordRef* base = nullptr;
};

struct MergeWalkStats {
  uint64_t bytes_processed = 0;  ///< bytes the engine examined to walk
  uint64_t keys_emitted = 0;
};

/// Returning an error aborts the walk and surfaces the status.
using MergeWalkCallback = std::function<Status(const MergeWalkItem&)>;

// ------------------------------------------------------- shared staging

/// Everything a staged — not yet executed — merge produces: the ops that
/// transform the 'into' head into the merged state, the result counters,
/// and (when asked) the per-key rows a preview cursor streams. Staging is
/// pure: every data-dependent failure (callback error, walk error)
/// happens here, before anything is written anywhere.
struct MergePlan {
  explicit MergePlan(const Schema* schema) : batch(schema) {}

  MergeResult result;
  WriteBatch batch;
  std::vector<MergeRow> rows;
};

struct StageOptions {
  MergePolicy policy = MergePolicy::kThreeWayLeft;
  MergeResolution resolution = MergeResolution::kPolicy;
  const ConflictCallback* on_conflict = nullptr;  ///< for kCallback
  bool collect_rows = false;  ///< populate MergePlan::rows (previews)
  bool stage_ops = true;      ///< stage MergePlan::batch (execution)
};

/// Runs \p engine's MergeWalk over (\p left, \p right, \p base) and
/// reconciles every changed key under \p opts. \p left must be the
/// current committed head state of the branch the plan's batch will
/// apply to, so the staged deletes are valid by construction.
Status StageMerge(StorageEngine* engine, const Schema& schema,
                  CommitId left, CommitId right, CommitId base,
                  const StageOptions& opts, MergePlan* plan);

/// Three-way structured diff between two arbitrary commits: every key
/// whose state differs between \p a (left) and \p b (right), classified
/// added/removed/modified from a's point of view, with conflict marking
/// keys both commits changed since ancestor \p base. Rows only — nothing
/// is staged.
Status StageDiff(StorageEngine* engine, const Schema& schema,
                 CommitId a, CommitId b, CommitId base, MergePlan* plan);

/// Record-at-a-time sink for head diffs.
using DiffCallback = std::function<void(const RecordRef&)>;

/// Two-sided diff of the heads of \p a and \p b over one DiffWalk: rows
/// of a go to \p pos and rows of b to \p neg (either may be null) unless
/// the other head holds their key (kByKey) or the same bytes (kByContent).
/// Positive rows come first, then negative, each in walk order. \p stats
/// (optional) receives the walk's bytes_read.
Status DiffHeads(StorageEngine* engine, BranchId a, BranchId b,
                 DiffMode mode, const DiffCallback& pos,
                 const DiffCallback& neg, ScanStats* stats);

/// Wraps a finished plan's rows into a cursor.
std::unique_ptr<MergeCursor> MakeMergeCursor(std::vector<MergeRow> rows,
                                             MergeResult stats);
/// An immediately-exhausted cursor carrying an error.
std::unique_ptr<MergeCursor> MakeFailedMergeCursor(Status status);

}  // namespace decibel

#endif  // DECIBEL_ENGINE_MERGE_SPEC_H_
