#include "engine/hybrid.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "engine/scan_util.h"

namespace decibel {

namespace {

uint64_t HistoryKey(BranchId branch, uint32_t seg) {
  return (static_cast<uint64_t>(branch) << 32) | seg;
}

}  // namespace

// ------------------------------------------------------------ construction

Result<std::unique_ptr<HybridEngine>> HybridEngine::Make(
    const Schema& schema, const EngineOptions& options) {
  std::unique_ptr<HybridEngine> engine(new HybridEngine(schema, options));
  DECIBEL_RETURN_NOT_OK(CreateDir(options.directory));
  DECIBEL_RETURN_NOT_OK(CreateDir(JoinPath(options.directory, "commits")));
  if (!options.checkpoint_tag.empty() || FileExists(engine->MetaPath())) {
    DECIBEL_RETURN_NOT_OK(engine->LoadExisting());
  } else {
    DECIBEL_RETURN_NOT_OK(engine->InitFresh());
  }
  return engine;
}

std::string HybridEngine::MetaPath(const std::string& tag) const {
  const std::string base = JoinPath(options_.directory, "engine.meta");
  return tag.empty() ? base : base + "." + tag;
}

std::string HybridEngine::SegmentPath(uint32_t seg) const {
  return JoinPath(options_.directory, "seg_" + std::to_string(seg) + ".dbhf");
}

std::string HybridEngine::HistoryPath(BranchId branch, uint32_t seg) const {
  return JoinPath(options_.directory,
                  "commits/b" + std::to_string(branch) + "_s" +
                      std::to_string(seg) + ".hist");
}

Result<uint32_t> HybridEngine::NewHeadSegment(BranchId owner) {
  if (segments_.size() > PkIndex::kMaxSegment) {
    return Status::InvalidArgument("hybrid: too many segments");
  }
  auto segment = std::make_unique<Segment>();
  segment->id = static_cast<uint32_t>(segments_.size());
  segment->owner = owner;
  segment->is_head = true;
  HeapFile::Options hopts;
  hopts.page_size = options_.page_size;
  hopts.verify_checksums = options_.verify_checksums;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(
      segment->file, HeapFile::Create(SegmentPath(segment->id),
                                      schema_.record_size(), hopts, &pool_));
  segment->local.AddBranch(owner);
  const uint32_t id = segment->id;
  segments_.push_back(std::move(segment));
  head_seg_[owner] = id;
  branch_segments_[owner].Set(id);
  MarkDirty(owner, id);
  return id;
}

Status HybridEngine::InitFresh() {
  pk_index_.try_emplace(kMasterBranch);
  branch_segments_.try_emplace(kMasterBranch);
  dirty_.try_emplace(kMasterBranch);
  return NewHeadSegment(kMasterBranch).status();
}

Status HybridEngine::LoadExisting() {
  const std::string& tag = options_.checkpoint_tag;
  DECIBEL_ASSIGN_OR_RETURN(std::string meta, ReadFileToString(MetaPath(tag)));
  Slice input(meta);
  DECIBEL_RETURN_NOT_OK(CheckEngineMetaHeader(&input, "hybrid"));
  Slice schema_blob;
  if (!GetLengthPrefixed(&input, &schema_blob)) {
    return Status::Corruption("hybrid: truncated meta");
  }
  Slice schema_slice = schema_blob;
  DECIBEL_ASSIGN_OR_RETURN(Schema stored, Schema::DecodeFrom(&schema_slice));
  if (!(stored == schema_)) {
    return Status::InvalidArgument("hybrid: schema mismatch on reopen");
  }
  uint64_t num_segments;
  if (!GetVarint64(&input, &num_segments)) {
    return Status::Corruption("hybrid: truncated meta");
  }
  HeapFile::Options hopts;
  hopts.verify_checksums = options_.verify_checksums;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  for (uint64_t i = 0; i < num_segments; ++i) {
    auto segment = std::make_unique<Segment>();
    if (!GetVarint32(&input, &segment->id) ||
        !GetVarint32(&input, &segment->owner) || input.empty()) {
      return Status::Corruption("hybrid: truncated segment meta");
    }
    if (segment->id != segments_.size()) {
      return Status::Corruption("hybrid: segment ids not dense");
    }
    segment->is_head = input[0] != 0;
    input.RemovePrefix(1);
    DECIBEL_ASSIGN_OR_RETURN(
        auto local_index, BitmapIndex::DecodeFrom(&input));
    auto* branch_oriented =
        dynamic_cast<BranchOrientedIndex*>(local_index.get());
    if (branch_oriented == nullptr) {
      return Status::Corruption("hybrid: local index wrong orientation");
    }
    segment->local = std::move(*branch_oriented);
    HeapFile::CheckpointState cs;
    uint32_t tail_crc;
    if (!GetVarint64(&input, &cs.num_records) ||
        !GetVarint32(&input, &tail_crc)) {
      return Status::Corruption("hybrid: truncated segment state");
    }
    cs.tail_crc = tail_crc;
    Slice stats_blob;
    if (!GetLengthPrefixed(&input, &stats_blob)) {
      return Status::Corruption("hybrid: truncated segment stats blob");
    }
    if (!tag.empty()) {
      DECIBEL_ASSIGN_OR_RETURN(
          segment->file,
          HeapFile::OpenAtCheckpoint(SegmentPath(segment->id), hopts, &pool_,
                                     cs));
    } else {
      DECIBEL_ASSIGN_OR_RETURN(
          segment->file,
          HeapFile::Open(SegmentPath(segment->id), hopts, &pool_));
    }
    DECIBEL_RETURN_NOT_OK(segment->file->LoadStats(stats_blob));
    DECIBEL_RETURN_NOT_OK(segment->file->EnsureStats());
    segments_.push_back(std::move(segment));
  }
  uint64_t num_heads;
  if (!GetVarint64(&input, &num_heads)) {
    return Status::Corruption("hybrid: truncated head map");
  }
  for (uint64_t i = 0; i < num_heads; ++i) {
    uint32_t branch, seg;
    if (!GetVarint32(&input, &branch) || !GetVarint32(&input, &seg)) {
      return Status::Corruption("hybrid: truncated head entry");
    }
    if (seg >= segments_.size()) {
      return Status::Corruption("hybrid: head points past segments");
    }
    head_seg_[branch] = seg;
  }
  uint64_t num_rows;
  if (!GetVarint64(&input, &num_rows)) {
    return Status::Corruption("hybrid: truncated branch-segment bitmap");
  }
  for (uint64_t i = 0; i < num_rows; ++i) {
    uint32_t branch;
    Bitmap row;
    if (!GetVarint32(&input, &branch) || !Bitmap::DecodeFrom(&input, &row)) {
      return Status::Corruption("hybrid: truncated bitmap row");
    }
    if (row.size() > segments_.size()) {
      return Status::Corruption("hybrid: bitmap row points past segments");
    }
    branch_segments_[branch] = std::move(row);
    pk_index_.try_emplace(branch);
    dirty_.try_emplace(branch);
  }
  uint64_t num_commits;
  if (!GetVarint64(&input, &num_commits)) {
    return Status::Corruption("hybrid: truncated commit registry");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    uint64_t commit;
    uint32_t branch;
    if (!GetVarint64(&input, &commit) || !GetVarint32(&input, &branch)) {
      return Status::Corruption("hybrid: truncated commit entry");
    }
    commit_branch_[commit] = branch;
  }
  uint64_t num_hist;
  if (!GetVarint64(&input, &num_hist)) {
    return Status::Corruption("hybrid: truncated history registry");
  }
  for (uint64_t i = 0; i < num_hist; ++i) {
    uint32_t branch, seg;
    uint64_t bytes;
    if (!GetVarint32(&input, &branch) || !GetVarint32(&input, &seg) ||
        !GetVarint64(&input, &bytes)) {
      return Status::Corruption("hybrid: truncated history entry");
    }
    if (seg >= segments_.size()) {
      return Status::Corruption("hybrid: history points past segments");
    }
    history_segs_[branch].push_back(seg);
    // History files open lazily (HistoryFor); cut post-checkpoint records
    // away now so whoever opens one first parses the checkpointed state.
    if (!tag.empty()) {
      DECIBEL_RETURN_NOT_OK(TruncateFile(HistoryPath(branch, seg), bytes));
    }
  }
  // The pk indexes are memory-only; rebuild them from the local bitmaps.
  for (const auto& [branch, row] : branch_segments_) {
    DECIBEL_RETURN_NOT_OK(RebuildPkIndex(branch));
  }
  return Status::OK();
}

std::string HybridEngine::EncodeMeta() {
  std::string meta;
  PutEngineMetaHeader(&meta);
  std::string schema_blob;
  schema_.EncodeTo(&schema_blob);
  PutLengthPrefixed(&meta, schema_blob);
  PutVarint64(&meta, segments_.size());
  for (const auto& segment : segments_) {
    PutVarint32(&meta, segment->id);
    PutVarint32(&meta, segment->owner);
    meta.push_back(segment->is_head ? 1 : 0);
    segment->local.EncodeTo(&meta);
    const HeapFile::CheckpointState cs = segment->file->GetCheckpointState();
    PutVarint64(&meta, cs.num_records);
    PutVarint32(&meta, cs.tail_crc);
    std::string stats_blob;
    segment->file->EncodeStats(&stats_blob);
    PutLengthPrefixed(&meta, stats_blob);
  }
  PutVarint64(&meta, head_seg_.size());
  for (const auto& [branch, seg] : head_seg_) {
    PutVarint32(&meta, branch);
    PutVarint32(&meta, seg);
  }
  PutVarint64(&meta, branch_segments_.size());
  for (const auto& [branch, row] : branch_segments_) {
    PutVarint32(&meta, branch);
    row.EncodeTo(&meta);
  }
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    PutVarint64(&meta, commit_branch_.size());
    for (const auto& [commit, branch] : commit_branch_) {
      PutVarint64(&meta, commit);
      PutVarint32(&meta, branch);
    }
    uint64_t hist_entries = 0;
    for (const auto& [branch, segs] : history_segs_) {
      hist_entries += segs.size();
    }
    PutVarint64(&meta, hist_entries);
    for (const auto& [branch, segs] : history_segs_) {
      for (uint32_t seg : segs) {
        PutVarint32(&meta, branch);
        PutVarint32(&meta, seg);
        // Lazily-opened histories may not be in histories_; their on-disk
        // size is still the truth (records are flushed as written).
        auto it = histories_.find(HistoryKey(branch, seg));
        uint64_t bytes = 0;
        if (it != histories_.end()) {
          bytes = it->second->SizeBytes();
        } else {
          Result<uint64_t> sz = FileSize(HistoryPath(branch, seg));
          if (sz.ok()) bytes = sz.value();
        }
        PutVarint64(&meta, bytes);
      }
    }
  }
  return meta;
}

Status HybridEngine::ReleaseBranch(BranchId branch) {
  // A retired branch's head segment never appends again and its history
  // files never grow past their final commit, so close their descriptors.
  // Registry entries stay: the data remains readable (handles reopen
  // lazily) and the meta encoding is unchanged.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    if (segment->owner != branch) continue;
    DECIBEL_RETURN_NOT_OK(segment->file->ReleaseFileHandles());
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  for (auto& [key, history] : histories_) {
    if (static_cast<BranchId>(key >> 32) != branch) continue;
    DECIBEL_RETURN_NOT_OK(history->ReleaseFileHandles());
  }
  return Status::OK();
}

Status HybridEngine::Flush() {
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    DECIBEL_RETURN_NOT_OK(segment->file->Flush());
  }
  return WriteStringToFile(MetaPath(), EncodeMeta());
}

Status HybridEngine::Checkpoint(const std::string& tag, bool sync) {
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  for (auto& segment : segments_) {
    DECIBEL_RETURN_NOT_OK(sync ? segment->file->Sync()
                               : segment->file->Flush());
  }
  if (sync) {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    for (auto& [key, history] : histories_) {
      DECIBEL_RETURN_NOT_OK(history->Sync());
    }
  }
  return AtomicWriteFile(MetaPath(tag), EncodeMeta(), sync);
}

Status HybridEngine::RemoveCheckpoint(const std::string& tag) {
  return RemoveFile(MetaPath(tag));
}

// --------------------------------------------------------- version control

std::vector<uint32_t> HybridEngine::SegmentsOf(BranchId b) const {
  std::vector<uint32_t> out;
  auto it = branch_segments_.find(b);
  if (it == branch_segments_.end()) return out;
  it->second.ForEachSet(
      [&](uint64_t seg) { out.push_back(static_cast<uint32_t>(seg)); });
  return out;
}

Result<CommitHistory*> HybridEngine::HistoryFor(BranchId branch,
                                                uint32_t seg) {
  // Held across the (rare) first open of a history file: concurrent
  // readers of the same commit would otherwise race to create one.
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  const uint64_t key = HistoryKey(branch, seg);
  auto it = histories_.find(key);
  if (it != histories_.end()) return it->second.get();
  const std::string path = HistoryPath(branch, seg);
  // The registry (restored from the meta on reopen) is authoritative: a
  // history file on disk for a (branch, seg) the registry does not know
  // is stale post-checkpoint debris from a crash, and Create truncates
  // it away (WAL replay re-appends its commits).
  auto segs_it = history_segs_.find(branch);
  const bool known =
      segs_it != history_segs_.end() &&
      std::find(segs_it->second.begin(), segs_it->second.end(), seg) !=
          segs_it->second.end();
  Result<std::unique_ptr<CommitHistory>> h =
      known ? CommitHistory::Open(
                  path, {.composite_every = options_.composite_every})
            : CommitHistory::Create(
                  path, {.composite_every = options_.composite_every});
  if (!h.ok()) return h.status();
  CommitHistory* raw = h.value().get();
  histories_.emplace(key, std::move(h).MoveValueUnsafe());
  if (!known) history_segs_[branch].push_back(seg);
  return raw;
}

Status HybridEngine::CreateBranch(BranchId child, BranchId parent,
                                  CommitId base_commit, bool at_head) {
  // Grows segments_, the branch maps, and local-index column sets.
  std::unique_lock<std::shared_mutex> registry_lock(registry_mu_);
  pk_index_.try_emplace(child);
  branch_segments_.try_emplace(child);
  dirty_.try_emplace(child);
  if (at_head) {
    // §3.4 Branch: the parent's head freezes into an internal segment
    // whose bitmap gains a column for the child; both branches get fresh
    // head segments. The clone touches only segments in the direct
    // ancestry, not a global bitmap.
    const uint32_t old_head = head_seg_[parent];
    segments_[old_head]->is_head = false;
    DECIBEL_RETURN_NOT_OK(segments_[old_head]->file->Seal());
    for (uint32_t seg : SegmentsOf(parent)) {
      segments_[seg]->local.CloneBranch(parent, child);
      branch_segments_[child].Set(seg);
      MarkDirty(child, seg);
    }
    pk_index_[child] = pk_index_[parent].Fork();
    DECIBEL_RETURN_NOT_OK(NewHeadSegment(parent).status());
    DECIBEL_RETURN_NOT_OK(NewHeadSegment(child).status());
    // Only a branch's current head is ever dirtied, so the parent's
    // history for the old head will never be appended again (the facade
    // auto-committed any dirty state before branching). Close its
    // descriptors — under fork churn one held writer per rolled head
    // otherwise accumulates without bound. Reads (and any append, should
    // the assumption ever break) lazily reopen.
    {
      std::lock_guard<std::mutex> commit_lock(commit_mu_);
      auto hist_it = histories_.find(HistoryKey(parent, old_head));
      if (hist_it != histories_.end()) {
        DECIBEL_RETURN_NOT_OK(hist_it->second->ReleaseFileHandles());
      }
    }
    return Status::OK();
  }
  // Branch from a historical commit: restore the parent's per-segment
  // columns as of that commit into the child's columns.
  std::vector<std::pair<uint32_t, Bitmap>> columns;
  DECIBEL_RETURN_NOT_OK(CommitColumns(base_commit, &columns));
  for (auto& [seg, bits] : columns) {
    if (!bits.Any()) continue;
    segments_[seg]->local.AddBranch(child);
    segments_[seg]->local.RestoreBranch(child, bits);
    branch_segments_[child].Set(seg);
    MarkDirty(child, seg);
  }
  DECIBEL_RETURN_NOT_OK(NewHeadSegment(child).status());
  return RebuildPkIndex(child);
}

Status HybridEngine::Commit(BranchId branch, CommitId commit_id) {
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  // The stripe pins the branch's columns and dirty set while they are
  // snapshotted into the history files.
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  return CommitImpl(branch, commit_id);
}

Status HybridEngine::CommitImpl(BranchId branch, CommitId commit_id) {
  auto dirty_it = dirty_.find(branch);
  if (dirty_it != dirty_.end()) {
    // Deterministic order keeps history files reproducible.
    std::vector<uint32_t> segs(dirty_it->second.begin(),
                               dirty_it->second.end());
    std::sort(segs.begin(), segs.end());
    const auto head_it = head_seg_.find(branch);
    for (uint32_t seg : segs) {
      DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history,
                               HistoryFor(branch, seg));
      const Bitmap* view = segments_[seg]->local.BranchView(branch);
      Bitmap empty;
      DECIBEL_RETURN_NOT_OK(
          history->AppendCommit(commit_id, view ? *view : empty));
      // A segment that is no longer this branch's head can never be
      // dirtied by it again, so this append was the history's last:
      // close its descriptors rather than pinning one writer per rolled
      // head forever (reads reopen transiently).
      if (head_it == head_seg_.end() || seg != head_it->second) {
        DECIBEL_RETURN_NOT_OK(history->ReleaseFileHandles());
      }
    }
    dirty_it->second.clear();
  }
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  commit_branch_[commit_id] = branch;
  return Status::OK();
}

Status HybridEngine::CommitColumns(
    CommitId commit, std::vector<std::pair<uint32_t, Bitmap>>* out) {
  // Snapshot the registry entries under the leaf lock, then replay the
  // history files outside it (each file has its own internal lock).
  BranchId branch;
  std::vector<uint32_t> segs;
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    auto it = commit_branch_.find(commit);
    if (it == commit_branch_.end()) {
      return Status::NotFound("hybrid: unknown commit " +
                              std::to_string(commit));
    }
    branch = it->second;
    auto segs_it = history_segs_.find(branch);
    if (segs_it == history_segs_.end()) return Status::OK();
    segs = segs_it->second;
  }
  for (uint32_t seg : segs) {
    DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history, HistoryFor(branch, seg));
    if (!history->HasCommitAtOrBefore(commit)) continue;  // not yet member
    DECIBEL_ASSIGN_OR_RETURN(Bitmap bits, history->Checkout(commit));
    out->emplace_back(seg, std::move(bits));
  }
  return Status::OK();
}

Status HybridEngine::Checkout(CommitId commit) {
  std::vector<std::pair<uint32_t, Bitmap>> columns;
  return CommitColumns(commit, &columns);
}

Status HybridEngine::RebuildPkIndex(BranchId b) {
  PkIndex& idx = pk_index_[b];
  idx.Clear();
  for (uint32_t seg : SegmentsOf(b)) {
    const Bitmap* view = segments_[seg]->local.BranchView(b);
    if (view == nullptr) continue;
    BitmapScanner scanner(segments_[seg]->file.get(), &schema_, view);
    RecordRef rec;
    uint64_t pos;
    while (scanner.Next(&rec, &pos)) {
      idx.Set(rec.pk(), PkIndex::Pack(seg, pos));
    }
    DECIBEL_RETURN_NOT_OK(scanner.status());
  }
  return Status::OK();
}

// ----------------------------------------------------------------- mutation

Status HybridEngine::ApplyBatch(BranchId branch, const WriteBatch& batch) {
  // Registry shared (CreateBranch/Merge may not reshape segments_ or the
  // local indexes' column sets under us) + the branch's stripe. Updates
  // and deletes of records inherited from shared ancestor segments flip
  // bits only in *this branch's* column of those segments' local
  // bitmaps, so sibling writers never touch the same bitmap.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
  auto head_it = head_seg_.find(branch);
  if (head_it == head_seg_.end()) {
    return Status::NotFound("hybrid: unknown branch " +
                            std::to_string(branch));
  }
  Segment& head = *segments_[head_it->second];
  PkIndex& pks = pk_index_[branch];
  DECIBEL_RETURN_NOT_OK(ValidateBatchDeletes(
      batch, [&pks](int64_t pk) { return pks.Contains(pk); }));

  // One pass over the batch: the record payloads go to the head segment
  // in page-sized chunks, its local bitmap universe grows once, the pk
  // index is pre-sized, and the head segment is marked dirty once rather
  // than per record.
  uint64_t next_idx = 0;
  if (batch.num_appends() > 0) {
    DECIBEL_ASSIGN_OR_RETURN(
        next_idx,
        head.file->AppendBatch(batch.arena(), batch.num_appends()));
  }
  head.local.AppendTuples(batch.num_appends());
  pks.Reserve(batch.num_appends());
  PkIndex::Position old = 0;
  // Unsets \p branch's bit of a replaced or deleted version.
  auto unset = [&](PkIndex::Position pos) {
    const uint32_t seg = PkIndex::SegmentOf(pos);
    segments_[seg]->local.Set(PkIndex::IndexOf(pos), branch, false);
    MarkDirty(branch, seg);
  };
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kDelete) {
      if (pks.Erase(op.pk, &old)) unset(old);
      continue;
    }
    const uint64_t idx = next_idx++;
    if (pks.Put(batch.RecordAt(op).pk(), PkIndex::Pack(head.id, idx), &old)) {
      unset(old);
    }
    head.local.Set(idx, branch, true);
  }
  if (batch.num_appends() > 0) MarkDirty(branch, head.id);
  return Status::OK();
}

// ------------------------------------------------------------------ queries

Result<std::vector<BitmapPart>> HybridEngine::BuildScanParts(
    const ScanSpec& spec, uint64_t* segments_skipped) {
  // Live-branch views materialize their bitmap copies under the branch's
  // stripe lock, so a snapshot always lands on a batch boundary; every
  // part also maps its segment's file, so the cursor streams without
  // re-reading segments_.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  // Whole-segment skipping off the file-level zone (§3.4's segment index
  // extended with statistics): a segment whose zone rules the predicate
  // out cannot contribute a matching row, whatever the bitmaps selected.
  // File zones only grow, and the part's bitmaps are already
  // materialized, so the test is sound here.
  const PreparedPredicate prepared(spec.predicate, schema_);
  std::vector<BitmapPart> parts;
  auto add = [&](uint64_t seg, Bitmap bits, std::vector<Bitmap> cols) {
    HeapFile* file = segments_[seg]->file.get();
    if (!prepared.empty() && !file->FileMayMatch(prepared)) {
      ++*segments_skipped;
      return;
    }
    parts.push_back(
        {RecordMap::OfFile(file), std::move(bits), std::move(cols)});
  };
  switch (spec.view) {
    case ScanView::kBranch: {
      if (head_seg_.count(spec.branch) == 0) {
        return Status::NotFound("hybrid: unknown branch " +
                                std::to_string(spec.branch));
      }
      // "Single branch scans check the branch-segment index to identify
      // the segments that need to be read" (§3.4); order is irrelevant.
      std::lock_guard<std::mutex> stripe_lock(
          stripes_.ForBranch(spec.branch));
      for (uint32_t seg : SegmentsOf(spec.branch)) {
        add(seg, segments_[seg]->local.MaterializeBranch(spec.branch), {});
      }
      break;
    }
    case ScanView::kCommit: {
      std::vector<std::pair<uint32_t, Bitmap>> columns;
      DECIBEL_RETURN_NOT_OK(CommitColumns(spec.commit, &columns));
      for (auto& [seg, bits] : columns) add(seg, std::move(bits), {});
      break;
    }
    case ScanView::kMulti: {
      // Segments relevant to any requested branch: a logical OR of rows
      // of the branch-segment bitmap (§3.4).
      StripeLocks::MultiGuard stripe_locks(stripes_, spec.branches);
      Bitmap segs;
      for (BranchId b : spec.branches) {
        auto it = branch_segments_.find(b);
        if (it != branch_segments_.end()) segs.OrWith(it->second);
      }
      segs.ForEachSet([&](uint64_t seg) {
        Bitmap bits;
        std::vector<Bitmap> cols;
        cols.reserve(spec.branches.size());
        for (BranchId b : spec.branches) {
          cols.push_back(segments_[seg]->local.MaterializeBranch(b));
          bits.OrWith(cols.back());
        }
        add(seg, std::move(bits), std::move(cols));
      });
      break;
    }
    default:
      return Status::InvalidArgument("hybrid: unsupported scan view");
  }
  return parts;
}

Result<std::unique_ptr<ScanCursor>> HybridEngine::ParallelScan(
    std::vector<BitmapPart> parts, uint64_t segments_skipped,
    const ScanSpec& spec, int threads) {
  // §3.4: the branch-segment bitmap "allows for parallelization of
  // segment scanning". Workers filter and project inside the scan, so
  // only matching rows are copied out of the pages; the cursor then
  // drains the materialized result. The whole filtered result set is
  // held in memory — the price of lock-free workers; callers scanning
  // huge low-selectivity views without a limit should prefer the
  // streaming sequential path (parallelism <= 1).
  struct PartResult {
    std::vector<std::string> rows;
    std::vector<std::vector<uint32_t>> annotations;
    ScanStats stats;
    Status status;
  };
  std::vector<PartResult> results(parts.size());
  {
    ThreadPool pool(static_cast<size_t>(threads));
    for (size_t p = 0; p < parts.size(); ++p) {
      pool.Submit([&, p] {
        // Each worker runs the one bitmap cursor over its part, stopping
        // at the global limit: the merge below takes at most spec.limit
        // rows in total, so copies past it in any one part can never be
        // emitted. Its stats reach the counters through the merged cursor.
        std::vector<BitmapPart> one;
        one.push_back(std::move(parts[p]));
        const std::unique_ptr<ScanCursor> scan = MakeBitmapCursor(
            &schema_, std::move(one), spec, 0, /*counters=*/nullptr);
        PartResult& result = results[p];
        ScanRow row;
        while (scan->Next(&row)) {
          result.rows.push_back(
              ProjectRecordCopy(schema_, row.record.data(), spec.projection));
          if (row.branches != nullptr) {
            result.annotations.push_back(*row.branches);
          }
        }
        result.stats = scan->stats();
        result.status = scan->status();
      });
    }
    pool.Wait();
  }
  auto cursor = std::make_unique<BufferedCursor>(&schema_, scan_counters());
  *cursor->mutable_branch_list() = spec.branches;
  ScanStats* stats = cursor->mutable_stats();
  stats->segments_skipped = segments_skipped;
  for (PartResult& result : results) {
    if (!result.status.ok()) {
      cursor->set_status(result.status);
      break;
    }
    stats->rows_scanned += result.stats.rows_scanned;
    stats->bytes_scanned += result.stats.bytes_scanned;
    stats->bytes_read += result.stats.bytes_read;
    stats->pages_skipped += result.stats.pages_skipped;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      if (spec.limit != 0 && cursor->buffered() >= spec.limit) break;
      if (result.annotations.empty()) {
        cursor->AddOwnedRow(std::move(result.rows[i]));
      } else {
        cursor->AddAnnotatedRow(std::move(result.rows[i]),
                                std::move(result.annotations[i]));
      }
    }
  }
  return std::unique_ptr<ScanCursor>(std::move(cursor));
}

Result<std::unique_ptr<ScanCursor>> HybridEngine::NewScan(
    const ScanSpec& spec) {
  DECIBEL_RETURN_NOT_OK(ValidateScanSpec(spec, schema_));
  uint64_t segments_skipped = 0;
  DECIBEL_ASSIGN_OR_RETURN(std::vector<BitmapPart> parts,
                           BuildScanParts(spec, &segments_skipped));
  const int threads =
      spec.parallelism != 0 ? spec.parallelism : options_.scan_threads;
  if (threads > 1 && parts.size() > 1) {
    return ParallelScan(std::move(parts), segments_skipped, spec, threads);
  }
  return MakeBitmapCursor(&schema_, std::move(parts), spec, segments_skipped,
                          scan_counters());
}

Result<Record> HybridEngine::Get(BranchId branch, int64_t pk) {
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  PkIndex::Position pos = 0;
  {
    // The pk index is per-branch state guarded by the branch's stripe.
    std::lock_guard<std::mutex> stripe_lock(stripes_.ForBranch(branch));
    auto branch_it = pk_index_.find(branch);
    if (branch_it == pk_index_.end()) {
      return Status::NotFound("hybrid: unknown branch " +
                              std::to_string(branch));
    }
    if (!branch_it->second.Find(pk, &pos)) {
      return Status::NotFound("hybrid: no record with pk " +
                              std::to_string(pk));
    }
  }
  std::string buf;
  DECIBEL_RETURN_NOT_OK(segments_[PkIndex::SegmentOf(pos)]->file->Get(
      PkIndex::IndexOf(pos), &buf));
  return Record(&schema_, Slice(buf));
}

Status HybridEngine::DiffWalk(BranchId a, BranchId b,
                              const DiffWalkCallback& cb, ScanStats* stats) {
  // The tuple-first XOR per segment: materialize both sides' per-segment
  // deltas under the two branches' stripes (ascending order via
  // MultiGuard), then scan the snapshot once with the stripes released.
  // Segments whose delta is empty are dropped.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  std::vector<BitmapDiffPart> parts;
  {
    StripeLocks::MultiGuard stripe_locks(stripes_, {a, b});
    Bitmap segs;
    for (BranchId x : {a, b}) {
      auto it = branch_segments_.find(x);
      if (it != branch_segments_.end()) segs.OrWith(it->second);
    }
    segs.ForEachSet([&](uint64_t seg) {
      BitmapDiffPart part;
      part.in_a = segments_[seg]->local.MaterializeBranch(a);
      part.delta =
          Bitmap::Xor(part.in_a, segments_[seg]->local.MaterializeBranch(b));
      if (!part.delta.Any()) return;
      part.map = RecordMap::OfFile(segments_[seg]->file.get());
      parts.push_back(std::move(part));
    });
  }
  return BitmapDiffWalk(&schema_, parts, cb, stats);
}

// -------------------------------------------------------------------- merge

Status HybridEngine::MergeWalk(CommitId left, CommitId right, CommitId base,
                               const MergeWalkCallback& cb,
                               MergeWalkStats* stats) {
  // The tuple-first mask algebra run per segment (§3.4): one part per
  // segment any of the three commits has columns in. A commit carries
  // one live location per key *globally* (the pk index invariant), which
  // is what BitmapMergeWalk needs across parts. Columns come from the
  // (branch, segment) commit histories; the history files and record
  // pages are internally synchronized and commit snapshots are immutable,
  // so the walk holds the registry shared only to address segments_.
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  const std::pair<CommitId, Bitmap BitmapMergePart::*> sides[] = {
      {left, &BitmapMergePart::left},
      {right, &BitmapMergePart::right},
      {base, &BitmapMergePart::base}};
  std::map<uint32_t, BitmapMergePart> by_seg;
  for (const auto& [commit, side] : sides) {
    std::vector<std::pair<uint32_t, Bitmap>> cols;
    DECIBEL_RETURN_NOT_OK(CommitColumns(commit, &cols));
    for (auto& [seg, bits] : cols) by_seg[seg].*side = std::move(bits);
  }
  std::vector<BitmapMergePart> parts;
  parts.reserve(by_seg.size());
  for (auto& [seg, part] : by_seg) {
    part.map = RecordMap::OfFile(segments_[seg]->file.get());
    parts.push_back(std::move(part));
  }
  return BitmapMergeWalk(&schema_, parts, cb, stats);
}

// -------------------------------------------------------------------- stats

EngineStats HybridEngine::Stats() const {
  EngineStats stats;
  std::shared_lock<std::shared_mutex> registry_lock(registry_mu_);
  {
    // Every stripe: the walk reads all branches' columns and pk indexes.
    StripeLocks::AllGuard stripe_locks(stripes_);
    for (const auto& segment : segments_) {
      stats.data_bytes += segment->file->SizeBytes();
      stats.num_records += segment->file->num_records();
      stats.index_memory_bytes += segment->local.MemoryBytes();
    }
    for (const auto& [branch, row] : branch_segments_) {
      stats.index_memory_bytes += row.MemoryBytes();
    }
    std::vector<const PkIndex*> pk_indexes;
    for (const auto& [branch, pks] : pk_index_) pk_indexes.push_back(&pks);
    stats.index_memory_bytes += PkIndex::MemoryBytes(pk_indexes);
  }
  {
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    for (const auto& [key, history] : histories_) {
      stats.commit_store_bytes += history->SizeBytes();
    }
  }
  stats.num_segments = segments_.size();
  CopyScanCounters(&stats);
  stats.pool = pool_.stats();
  return stats;
}

}  // namespace decibel
