#include "engine/tuple_first.h"

#include "common/coding.h"
#include "engine/bitmap_scan.h"

namespace decibel {

Result<std::unique_ptr<TupleFirstEngine>> TupleFirstEngine::Make(
    const Schema& schema, const EngineOptions& options) {
  std::unique_ptr<TupleFirstEngine> engine(
      new TupleFirstEngine(schema, options));
  DECIBEL_RETURN_NOT_OK(CreateDir(options.directory));
  DECIBEL_RETURN_NOT_OK(
      CreateDir(JoinPath(options.directory, "commits")));
  if (!options.checkpoint_tag.empty() || FileExists(engine->MetaPath())) {
    DECIBEL_RETURN_NOT_OK(engine->LoadExisting());
  } else {
    DECIBEL_RETURN_NOT_OK(engine->InitFresh());
  }
  return engine;
}

std::string TupleFirstEngine::MetaPath(const std::string& tag) const {
  const std::string base = JoinPath(options_.directory, "engine.meta");
  return tag.empty() ? base : base + "." + tag;
}

std::string TupleFirstEngine::HistoryPath(BranchId branch) const {
  return JoinPath(options_.directory,
                  "commits/branch_" + std::to_string(branch) + ".hist");
}

Status TupleFirstEngine::InitFresh() {
  StripedHeap::Options hopts;
  hopts.page_size = options_.page_size;
  hopts.verify_checksums = options_.verify_checksums;
  hopts.stripes = static_cast<uint32_t>(stripes_.count());
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(
      heap_, StripedHeap::Create(options_.directory, schema_.record_size(),
                                 hopts, &pool_));
  index_ = BitmapIndex::Make(options_.orientation);
  // The master branch exists from the start.
  index_->AddBranch(kMasterBranch);
  pk_index_.try_emplace(kMasterBranch);
  return Status::OK();
}

Status TupleFirstEngine::LoadExisting() {
  const std::string& tag = options_.checkpoint_tag;
  StripedHeap::Options hopts;
  hopts.verify_checksums = options_.verify_checksums;
  hopts.schema = &schema_;
  hopts.compress_pages = options_.compress_pages;
  DECIBEL_ASSIGN_OR_RETURN(heap_,
                           StripedHeap::Open(options_.directory, hopts,
                                             &pool_, tag));
  DECIBEL_ASSIGN_OR_RETURN(std::string meta, ReadFileToString(MetaPath(tag)));
  Slice input(meta);
  DECIBEL_RETURN_NOT_OK(CheckEngineMetaHeader(&input, "tuple-first"));
  Slice schema_blob;
  if (!GetLengthPrefixed(&input, &schema_blob)) {
    return Status::Corruption("tuple-first: truncated meta");
  }
  Slice schema_slice = schema_blob;
  DECIBEL_ASSIGN_OR_RETURN(Schema stored, Schema::DecodeFrom(&schema_slice));
  if (!(stored == schema_)) {
    return Status::InvalidArgument("tuple-first: schema mismatch on reopen");
  }
  DECIBEL_ASSIGN_OR_RETURN(index_, BitmapIndex::DecodeFrom(&input));
  uint64_t num_commits;
  if (!GetVarint64(&input, &num_commits)) {
    return Status::Corruption("tuple-first: truncated commit registry");
  }
  for (uint64_t i = 0; i < num_commits; ++i) {
    uint64_t commit;
    uint32_t branch;
    if (!GetVarint64(&input, &commit) || !GetVarint32(&input, &branch)) {
      return Status::Corruption("tuple-first: truncated commit entry");
    }
    commit_branch_[commit] = branch;
  }
  uint64_t num_branches;
  if (!GetVarint64(&input, &num_branches)) {
    return Status::Corruption("tuple-first: truncated branch list");
  }
  std::vector<BranchId> branches(num_branches);
  for (uint64_t i = 0; i < num_branches; ++i) {
    if (!GetVarint32(&input, &branches[i])) {
      return Status::Corruption("tuple-first: truncated branch entry");
    }
  }
  uint64_t num_histories;
  if (!GetVarint64(&input, &num_histories)) {
    return Status::Corruption("tuple-first: truncated history registry");
  }
  for (uint64_t i = 0; i < num_histories; ++i) {
    uint32_t branch;
    uint64_t bytes;
    if (!GetVarint32(&input, &branch) || !GetVarint64(&input, &bytes)) {
      return Status::Corruption("tuple-first: truncated history entry");
    }
    // When recovering to a checkpoint, records appended to the history
    // after the checkpoint (and any torn tail record) are cut away first
    // so Open parses exactly the checkpointed state and WAL replay can
    // re-append from there.
    if (!tag.empty()) {
      DECIBEL_RETURN_NOT_OK(TruncateFile(HistoryPath(branch), bytes));
    }
    DECIBEL_ASSIGN_OR_RETURN(
        histories_[branch],
        CommitHistory::Open(HistoryPath(branch),
                            {.composite_every = options_.composite_every}));
  }
  for (BranchId branch : branches) {
    // The pk index is memory-only; rebuild it from the branch's bitmap.
    DECIBEL_RETURN_NOT_OK(RebuildPkIndex(branch));
  }
  return Status::OK();
}

std::string TupleFirstEngine::EncodeMeta() {
  std::string meta;
  PutEngineMetaHeader(&meta);
  std::string schema_blob;
  schema_.EncodeTo(&schema_blob);
  PutLengthPrefixed(&meta, schema_blob);
  index_->EncodeTo(&meta);
  PutVarint64(&meta, commit_branch_.size());
  for (const auto& [commit, branch] : commit_branch_) {
    PutVarint64(&meta, commit);
    PutVarint32(&meta, branch);
  }
  PutVarint64(&meta, pk_index_.size());
  for (const auto& [branch, pks] : pk_index_) {
    PutVarint32(&meta, branch);
  }
  {
    std::lock_guard<std::mutex> commits(commit_mu_);
    PutVarint64(&meta, histories_.size());
    for (const auto& [branch, history] : histories_) {
      PutVarint32(&meta, branch);
      PutVarint64(&meta, history->SizeBytes());
    }
  }
  return meta;
}

Status TupleFirstEngine::ReleaseBranch(BranchId branch) {
  // The heap is shared across branches and stays open; only the retired
  // branch's commit-history descriptors are released. The histories_
  // entry stays (it is the authority over the on-disk file — a map miss
  // would truncate on the next HistoryFor) and reopens lazily if read.
  std::lock_guard<std::mutex> commits(commit_mu_);
  auto it = histories_.find(branch);
  if (it == histories_.end()) return Status::OK();
  return it->second->ReleaseFileHandles();
}

Status TupleFirstEngine::Flush() {
  // Unique registry: no writer holds its shared mode, so every stripe is
  // quiesced and the index/commit registries are stable.
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  DECIBEL_RETURN_NOT_OK(heap_->Flush());
  return WriteStringToFile(MetaPath(), EncodeMeta());
}

Status TupleFirstEngine::Checkpoint(const std::string& tag, bool sync) {
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  DECIBEL_RETURN_NOT_OK(heap_->Checkpoint(tag, sync));
  if (sync) {
    std::lock_guard<std::mutex> commits(commit_mu_);
    for (auto& [branch, history] : histories_) {
      DECIBEL_RETURN_NOT_OK(history->Sync());
    }
  }
  return AtomicWriteFile(MetaPath(tag), EncodeMeta(), sync);
}

Status TupleFirstEngine::RemoveCheckpoint(const std::string& tag) {
  DECIBEL_RETURN_NOT_OK(heap_->RemoveCheckpoint(tag));
  return RemoveFile(MetaPath(tag));
}

Result<CommitHistory*> TupleFirstEngine::HistoryFor(BranchId branch) {
  std::lock_guard<std::mutex> commits(commit_mu_);
  auto it = histories_.find(branch);
  if (it != histories_.end()) return it->second.get();
  const std::string path = HistoryPath(branch);
  // histories_ (restored from the meta on reopen) is authoritative: a
  // miss means any on-disk history file for this branch is stale
  // post-checkpoint debris from a crash, and Create truncates it away
  // (WAL replay re-appends its commits).
  Result<std::unique_ptr<CommitHistory>> h = CommitHistory::Create(
      path, {.composite_every = options_.composite_every});
  if (!h.ok()) return h.status();
  CommitHistory* raw = h.value().get();
  histories_.emplace(branch, std::move(h).MoveValueUnsafe());
  return raw;
}

Status TupleFirstEngine::RebuildPkIndex(BranchId b) {
  PkIndex& idx = pk_index_[b];
  idx.Clear();
  const Bitmap view = index_->MaterializeBranch(b);
  const RecordMap map = heap_->SnapshotMapping();
  BitmapScanner scanner(&map, &schema_, &view);
  RecordRef rec;
  uint64_t pos;
  while (scanner.Next(&rec, &pos)) idx.Set(rec.pk(), pos);
  return scanner.status();
}

// --------------------------------------------------------- version control

Status TupleFirstEngine::CreateBranch(BranchId child, BranchId parent,
                                      CommitId base_commit, bool at_head) {
  // Branch creation changes registry shape (new bitmap column, new pk
  // map), so it is the one writer that excludes everything engine-wide.
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  if (at_head) {
    // "A branch operation clones the state of the parent branch's bitmap"
    // (§3.2); the child's pk index shares the parent's frozen layers.
    index_->CloneBranch(parent, child);
    pk_index_[child] = pk_index_[parent].Fork();
    return Status::OK();
  }
  DECIBEL_ASSIGN_OR_RETURN(Bitmap bits, CommitBitmap(base_commit));
  index_->AddBranch(child);
  index_->RestoreBranch(child, bits);
  return RebuildPkIndex(child);
}

Status TupleFirstEngine::Commit(BranchId branch, CommitId commit_id) {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  StripeGuard stripe(this, {branch});
  return CommitImpl(branch, commit_id);
}

Status TupleFirstEngine::CommitImpl(BranchId branch, CommitId commit_id) {
  DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history, HistoryFor(branch));
  const Bitmap* view = index_->BranchView(branch);
  Bitmap owned;
  if (view == nullptr) {
    owned = index_->MaterializeBranch(branch);
    view = &owned;
  }
  DECIBEL_RETURN_NOT_OK(history->AppendCommit(commit_id, *view));
  std::lock_guard<std::mutex> commits(commit_mu_);
  commit_branch_[commit_id] = branch;
  return Status::OK();
}

Result<Bitmap> TupleFirstEngine::CommitBitmap(CommitId commit) {
  BranchId branch;
  {
    std::lock_guard<std::mutex> commits(commit_mu_);
    auto it = commit_branch_.find(commit);
    if (it == commit_branch_.end()) {
      return Status::NotFound("tuple-first: unknown commit " +
                              std::to_string(commit));
    }
    branch = it->second;
  }
  DECIBEL_ASSIGN_OR_RETURN(CommitHistory * history, HistoryFor(branch));
  // The CommitHistory's own lock makes the checkout safe against the
  // owning branch appending a newer commit concurrently.
  return history->Checkout(commit);
}

Status TupleFirstEngine::Checkout(CommitId commit) {
  return CommitBitmap(commit).status();
}

// ----------------------------------------------------------------- mutation

Status TupleFirstEngine::ApplyBatch(BranchId branch, const WriteBatch& batch) {
  // Writers on the same stripe serialize here; disjoint stripes commit in
  // parallel. Writers on the same *branch* are already serialized above
  // us by the facade's branch lock.
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  StripeGuard stripe(this, {branch});
  auto pk_it = pk_index_.find(branch);
  if (pk_it == pk_index_.end()) {
    return Status::NotFound("tuple-first: unknown branch " +
                            std::to_string(branch));
  }
  PkIndex& pks = pk_it->second;
  DECIBEL_RETURN_NOT_OK(ValidateBatchDeletes(
      batch, [&pks](int64_t pk) { return pks.Contains(pk); }));

  // One pass: the record payloads go to this branch's heap stripe in
  // page-sized chunks (the stripe allocator hands back the assigned
  // global indices as at most two contiguous runs), the bitmap universe
  // grows once to the heap's allocated bound, and the pk index is
  // pre-sized — instead of paying each per record.
  StripedHeap::RunList runs;
  if (batch.num_appends() > 0) {
    DECIBEL_RETURN_NOT_OK(heap_->AppendBatch(
        StripeOf(branch), batch.arena(), batch.num_appends(), &runs));
    index_->EnsureTuples(heap_->allocated_bound());
  }
  pks.Reserve(batch.num_appends());
  size_t run_pos = 0;
  uint64_t run_off = 0;
  uint64_t old = 0;
  for (const WriteBatch::Op& op : batch.ops()) {
    if (op.kind == WriteBatch::OpKind::kDelete) {
      if (pks.Erase(op.pk, &old)) index_->Set(old, branch, false);
      continue;
    }
    while (run_off == runs[run_pos].count) {
      ++run_pos;
      run_off = 0;
    }
    const uint64_t idx = runs[run_pos].base + run_off++;
    if (pks.Put(batch.RecordAt(op).pk(), idx, &old)) {
      // "the index bit of the previous version of the record is unset"
      // §3.2
      index_->Set(old, branch, false);
    }
    index_->Set(idx, branch, true);
  }
  return Status::OK();
}

// ------------------------------------------------------------------ queries

Result<std::unique_ptr<ScanCursor>> TupleFirstEngine::NewScan(
    const ScanSpec& spec) {
  DECIBEL_RETURN_NOT_OK(ValidateScanSpec(spec, schema_));
  // One part over the whole heap. For multi views `cols` holds the
  // requested branches' columns and `bits` their union. The extent map is
  // snapshotted after the bitmaps, so it covers every set bit.
  BitmapPart part;
  switch (spec.view) {
    case ScanView::kBranch: {
      std::shared_lock<std::shared_mutex> registry(registry_mu_);
      if (pk_index_.count(spec.branch) == 0) {
        return Status::NotFound("tuple-first: unknown branch " +
                                std::to_string(spec.branch));
      }
      // Materialize the snapshot under the branch's stripe (for the
      // tuple-oriented layout this walks the whole matrix — the
      // single-branch scan penalty of §3.2), then stream lock-free.
      StripeGuard stripe(this, {spec.branch});
      part.bits = index_->MaterializeBranch(spec.branch);
      break;
    }
    case ScanView::kCommit: {
      DECIBEL_ASSIGN_OR_RETURN(part.bits, CommitBitmap(spec.commit));
      break;
    }
    case ScanView::kMulti: {
      // One pass over the heap, each tuple annotated with the branches it
      // is live in (§3.2 Multi-branch Scan). All requested stripes are
      // held together so the cross-branch snapshot is consistent.
      std::shared_lock<std::shared_mutex> registry(registry_mu_);
      StripeGuard stripes(this, spec.branches);
      part.cols.reserve(spec.branches.size());
      for (BranchId b : spec.branches) {
        part.cols.push_back(index_->MaterializeBranch(b));
        part.bits.OrWith(part.cols.back());
      }
      break;
    }
    default:
      return Status::InvalidArgument("tuple-first: unsupported scan view");
  }
  part.map = heap_->SnapshotMapping();
  std::vector<BitmapPart> parts;
  parts.push_back(std::move(part));
  return MakeBitmapCursor(&schema_, std::move(parts), spec,
                          /*segments_skipped=*/0, scan_counters());
}

Result<Record> TupleFirstEngine::Get(BranchId branch, int64_t pk) {
  uint64_t idx = 0;
  {
    std::shared_lock<std::shared_mutex> registry(registry_mu_);
    StripeGuard stripe(this, {branch});
    auto branch_it = pk_index_.find(branch);
    if (branch_it == pk_index_.end()) {
      return Status::NotFound("tuple-first: unknown branch " +
                              std::to_string(branch));
    }
    if (!branch_it->second.Find(pk, &idx)) {
      return Status::NotFound("tuple-first: no record with pk " +
                              std::to_string(pk));
    }
  }
  // Appended records are immutable; the read needs no lock.
  std::string buf;
  DECIBEL_RETURN_NOT_OK(heap_->Get(idx, &buf));
  return Record(&schema_, Slice(buf));
}

Status TupleFirstEngine::DiffWalk(BranchId a, BranchId b,
                                  const DiffWalkCallback& cb,
                                  ScanStats* stats) {
  // Both stripes are taken together (ascending order) so the two columns
  // form one consistent snapshot; the record pass then runs lock-free.
  std::vector<BitmapDiffPart> parts(1);
  {
    std::shared_lock<std::shared_mutex> registry(registry_mu_);
    StripeGuard stripes(this, {a, b});
    parts[0].in_a = index_->MaterializeBranch(a);
    parts[0].delta =
        Bitmap::Xor(parts[0].in_a, index_->MaterializeBranch(b));
  }
  parts[0].map = heap_->SnapshotMapping();
  return BitmapDiffWalk(&schema_, parts, cb, stats);
}

// -------------------------------------------------------------------- merge

Status TupleFirstEngine::MergeWalk(CommitId left, CommitId right,
                                   CommitId base, const MergeWalkCallback& cb,
                                   MergeWalkStats* stats) {
  // Pure bitmap algebra over three committed snapshots (§3.2); each commit
  // carries at most one live position per pk (update unsets the prior
  // version's bit). Commit checkouts are internally locked and heap
  // records are immutable once appended, so the walk needs no engine
  // locks.
  std::vector<BitmapMergePart> parts(1);
  DECIBEL_ASSIGN_OR_RETURN(parts[0].left, CommitBitmap(left));
  DECIBEL_ASSIGN_OR_RETURN(parts[0].right, CommitBitmap(right));
  DECIBEL_ASSIGN_OR_RETURN(parts[0].base, CommitBitmap(base));
  parts[0].map = heap_->SnapshotMapping();
  return BitmapMergeWalk(&schema_, parts, cb, stats);
}

// -------------------------------------------------------------------- stats

EngineStats TupleFirstEngine::Stats() const {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  StripeLocks::AllGuard stripes(stripes_);
  EngineStats stats;
  stats.data_bytes = heap_->SizeBytes();
  std::vector<const PkIndex*> pk_indexes;
  for (const auto& [branch, pks] : pk_index_) pk_indexes.push_back(&pks);
  stats.index_memory_bytes =
      index_->MemoryBytes() + PkIndex::MemoryBytes(pk_indexes);
  {
    std::lock_guard<std::mutex> commits(commit_mu_);
    for (const auto& [branch, history] : histories_) {
      stats.commit_store_bytes += history->SizeBytes();
    }
  }
  stats.num_segments = heap_->stripe_count();
  stats.num_records = heap_->num_records();
  CopyScanCounters(&stats);
  stats.pool = pool_.stats();
  return stats;
}

}  // namespace decibel
