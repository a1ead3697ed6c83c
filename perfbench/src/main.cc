/// Decibel end-to-end benchmark: three closed-loop workloads against the
/// public API, every answer checked against a reference model computed
/// apart from the program, and a traced mode that turns spans around the
/// benchmark's calls into per-layer metrics.
///
///   perfbench --workload agentic|curation_load|version_reads --seed N
///             --seconds S --trace 0|1 --data-root DIR
///             [--size full|small] [--fault none|row|drop]
///             [--trace-out FILE]
///
/// A run repeats whole rounds for about S seconds: each round
/// opens a fresh database under DIR, loads its starting data (set-up),
/// runs the workload's fixed operations (timed), checks every answer,
/// measures the data directory and deletes it. The last line of standard
/// output is one JSON object with correct/attempted/failed/metrics. A
/// failed check prints correct=false and exits 1.
///
/// --fault feeds the checker a deliberately wrong answer (one returned row
/// corrupted, or dropped) to prove that the checks catch it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/decibel.h"
#include "inputs.h"
#include "query/queries.h"
#include "query/vquel.h"
#include "trace.h"

namespace perfbench {
namespace {

using decibel::BranchId;
using decibel::Decibel;
using decibel::DecibelOptions;
using decibel::Result;
using decibel::ScanRow;
using decibel::ScanSpec;
using decibel::Status;
namespace vquel = decibel::vquel;

// ------------------------------------------------------------- arguments

enum class Fault { kNone, kRow, kDrop };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  Fault fault = Fault::kNone;
  std::string data_root;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "small") return false;
      args->small = val == "small";
    } else if (key == "--fault") {
      if (val == "row") {
        args->fault = Fault::kRow;
      } else if (val == "drop") {
        args->fault = Fault::kDrop;
      } else if (val != "none") {
        return false;
      }
    } else if (key == "--data-root") {
      args->data_root = val;
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->data_root.empty() &&
         (args->workload == "agentic" || args->workload == "curation_load" ||
          args->workload == "version_reads");
}

// ----------------------------------------------------------- run state

/// The timed part of one round.
struct RoundTimes {
  double seconds = 0;
  std::vector<double> step_ms;
  double point_p50_us = 0;
  double point_tail_us = 0;
};

/// Point-operation tail percentile, taken per round: every round times
/// thousands of point operations.
constexpr double kPointTailPct = 99;

/// Rounds whose figures are left out of the metrics when the run has more:
/// the first round of a process runs on a cold allocator, page cache and
/// file system (on curation_load its timed part took 10-40% longer than
/// the rounds after it). Its operations are still checked and counted.
constexpr size_t kWarmupRounds = 1;

/// Everything a run accumulates across its rounds.
struct Run {
  Args args;
  Sizes sizes;
  Schema schema = BenchSchema();

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> lock_retries{0};
  std::mutex mu;  // guards the fields below
  bool correct = true;
  int reported = 0;

  std::vector<double> setup_s;
  std::vector<RoundTimes> timed;
  std::vector<double> disk_bytes;
  std::vector<double> disk_files;

  // Traced run only.
  std::vector<Span> spans;
  std::map<std::string, std::vector<double>> samples;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;

  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    correct = false;
    if (reported++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// Counts one attempted operation; a non-OK status counts as failed.
  bool Count(const Status& st, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (st.ok()) return true;
    failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (reported++ < 10) {
      std::fprintf(stderr, "FAILED %s: %s\n", what, st.ToString().c_str());
    }
    return false;
  }
  void Sample(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu);
    samples[name].push_back(v);
  }
  /// Records a round's timed part: its wall seconds, its step times and
  /// its point-operation times.
  void Timed(double seconds, std::vector<double> step_ms,
             const std::vector<double>& point_us) {
    RoundTimes t;
    t.seconds = seconds;
    t.step_ms = std::move(step_ms);
    t.point_p50_us = Median(point_us);
    t.point_tail_us = Percentile(point_us, kPointTailPct);
    timed.push_back(std::move(t));
  }
};

// ------------------------------------------------------------- checking

std::atomic<bool> g_fault_fired{false};

/// Every returned row passes through here on its way to the checks. With
/// --fault, the first row of the run is corrupted (one bit of val) or
/// dropped, so a correct program's answer reaches the checker wrong.
bool FaultHook(Fault fault, RecordRef* row, std::optional<Record>* scratch) {
  if (fault == Fault::kNone || g_fault_fired.exchange(true)) return true;
  if (fault == Fault::kDrop) return false;
  scratch->emplace(row->schema(), row->data());
  (*scratch)->SetInt64(kVal, row->GetInt64(kVal) ^ 1);
  *row = (*scratch)->ref();
  return true;
}

/// Aggregates the rows of one answer and checks each row on arrival.
struct RowCheck {
  Fault fault = Fault::kNone;
  int32_t grp_lo = INT32_MIN;
  int32_t grp_hi = INT32_MAX;
  SetAgg agg;
  uint64_t bad = 0;
  std::optional<Record> scratch;

  explicit RowCheck(Fault f) : fault(f) {}
  void Observe(RecordRef row) {
    if (!FaultHook(fault, &row, &scratch)) return;
    const int32_t grp = row.GetInt32(kGrp);
    if (!RowIsConsistent(row) || grp < grp_lo || grp >= grp_hi) ++bad;
    agg.Add(row.pk(), static_cast<uint32_t>(row.GetInt32(kVer)));
  }
  void Expect(Run* run, const SetAgg& want, const std::string& what) {
    if (bad != 0) {
      run->Mismatch(what + ": " + std::to_string(bad) +
                    " rows fail their checksum or predicate");
    }
    if (agg != want) {
      run->Mismatch(what + ": got " + agg.ToString() + ", want " +
                    want.ToString());
    }
  }
};

// --------------------------------------------------------------- helpers

DecibelOptions Options(const std::string& dir) {
  DecibelOptions opts;  // hybrid, 1 MiB pages, 64 MiB pool, WAL kFlush
  opts.data_dir = dir;
  return opts;
}

void DiskUsage(const std::string& dir, double* bytes, double* files) {
  namespace fs = std::filesystem;
  uint64_t b = 0;
  uint64_t f = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      ++f;
      b += it->file_size(ec);
    }
  }
  *bytes = static_cast<double>(b);
  *files = static_cast<double>(f);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

double CpuSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

/// Measures CPU time of the timed part of a round (all threads).
class CpuTimer {
 public:
  CpuTimer() { getrusage(RUSAGE_SELF, &start_); }
  void AddTo(Run* run) const {
    rusage end;
    getrusage(RUSAGE_SELF, &end);
    run->cpu_user_s += CpuSeconds(end.ru_utime) - CpuSeconds(start_.ru_utime);
    run->cpu_sys_s += CpuSeconds(end.ru_stime) - CpuSeconds(start_.ru_stime);
  }

 private:
  rusage start_;
};

/// Retries the retryable Status::Aborted (a branch-lock timeout: nothing
/// was applied) with exponential backoff, as the 2PL discipline asks.
template <typename F>
auto WithRetry(Run* run, F&& f) -> decltype(f()) {
  for (int attempt = 0;; ++attempt) {
    auto r = f();
    if (r.ok() || !r.status().IsAborted() || attempt == 50) return r;
    run->lock_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 << std::min(attempt, 5)));
  }
}

/// Wraps a Status-returning call so WithRetry can treat it like a Result.
struct StatusBox {
  Status st;
  bool ok() const { return st.ok(); }
  const Status& status() const { return st; }
};

Status Retry(Run* run, const std::function<Status()>& f) {
  return WithRetry(run, [&] { return StatusBox{f()}; }).st;
}

/// Opens a fresh durable database at \p dir.
std::unique_ptr<Decibel> OpenFresh(Run* run, const std::string& dir) {
  RemoveDir(dir);
  auto db = Decibel::Open(dir, run->schema, Options(dir));
  if (!db.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 db.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*db);
}

/// Applies plan ops untimed, batching consecutive writes to one branch.
void ApplyOps(Run* run, Decibel* db, const std::vector<Op>& ops,
              std::vector<BranchId>* ids, const Model& model) {
  decibel::WriteBatch batch(&run->schema);
  int batch_branch = -1;
  auto flush = [&] {
    if (batch_branch >= 0 && !batch.empty()) {
      run->Count(db->ApplyBatch((*ids)[batch_branch], batch), "setup batch");
    }
    batch.Clear();
    batch_branch = -1;
  };
  for (const Op& op : ops) {
    const bool write = op.kind == OpKind::kInsert ||
                       op.kind == OpKind::kUpdate || op.kind == OpKind::kDelete;
    if (!write || op.branch != batch_branch || batch.size() >= 4096) flush();
    switch (op.kind) {
      case OpKind::kInsert:
        batch.Insert(MakeRow(&run->schema, op.pk, op.ver));
        batch_branch = op.branch;
        break;
      case OpKind::kUpdate:
        batch.Update(MakeRow(&run->schema, op.pk, op.ver));
        batch_branch = op.branch;
        break;
      case OpKind::kDelete:
        batch.Delete(op.pk);
        batch_branch = op.branch;
        break;
      case OpKind::kBranch: {
        decibel::Session s = db->NewSession();
        run->Count(db->Use(&s, (*ids)[op.other]), "use");
        auto child = db->Branch(model.branch(op.branch).name, &s);
        if (run->Count(child.status(), "setup branch")) {
          if (ids->size() <= static_cast<size_t>(op.branch)) {
            ids->resize(op.branch + 1);
          }
          (*ids)[op.branch] = *child;
        }
        break;
      }
      case OpKind::kCommit:
        run->Count(db->CommitBranch((*ids)[op.branch]).status(), "setup commit");
        break;
      default:
        break;  // setups neither merge nor retire
    }
  }
  flush();
}

/// Full scan of every live branch of \p model, compared with the model.
void CheckHeads(Run* run, Decibel* db, const Model& model,
                const std::vector<BranchId>& ids, const std::string& what) {
  for (size_t b = 0; b < model.size(); ++b) {
    if (!model.branch(static_cast<int>(b)).live) continue;
    RowCheck check(run->args.fault);
    auto cursor = db->NewScan(ScanSpec::Branch(ids[b]));
    if (!run->Count(cursor.status(), "check scan")) continue;
    ScanRow row;
    while ((*cursor)->Next(&row)) check.Observe(row.record);
    run->Count((*cursor)->status(), "check scan");
    check.Expect(run, model.All(static_cast<int>(b)),
                 what + " branch " + model.branch(static_cast<int>(b)).name);
  }
}

// ------------------------------------------------------------ the reads

decibel::Predicate GrpRange(const Schema& schema, int32_t lo, int32_t hi) {
  decibel::Predicate p =
      *decibel::Predicate::Compare(schema, "grp", decibel::CompareOp::kGe, lo);
  p.And(decibel::Predicate::Compare(schema, "grp", decibel::CompareOp::kLt, hi)
            ->comparisons()[0]);
  return p;
}

/// Per-query work counts, for the traced run.
struct ReadStats {
  decibel::ScanStats scan;
  uint64_t join_scanned = 0;
  uint64_t join_emitted = 0;
};

/// Drives one cursor: scan_open covers NewScan and the first Next, scan_
/// stream the rest.
Status DriveScan(Decibel* db, ScanSpec spec, SpanLog* log,
                 const std::function<void(const ScanRow&,
                                          const decibel::ScanCursor&)>& sink,
                 decibel::ScanStats* stats) {
  ScopedSpan open(log, "engine.scan_open");
  auto cursor = db->NewScan(std::move(spec));
  if (!cursor.ok()) return cursor.status();
  ScanRow row;
  bool more = (*cursor)->Next(&row);
  open.End();
  ScopedSpan stream(log, "engine.scan_stream");
  while (more) {
    sink(row, **cursor);
    more = (*cursor)->Next(&row);
  }
  stream.End();
  if (stats != nullptr) *stats = (*cursor)->stats();
  return (*cursor)->status();
}

const char* kReadSpan[kNumReadKinds] = {"query.q1_full", "query.q1_filter",
                                        "query.q2_diff", "query.q3_join",
                                        "query.q4_heads", "query.gets"};

/// Traced run: the work counts of one read. Joins report no page
/// statistics (\p scan is null).
void SampleRead(Run* run, ReadKind kind, uint64_t scanned, uint64_t emitted,
                const decibel::ScanStats* scan) {
  const std::string q = ReadKindName(kind);
  run->Sample("engine.rows_scanned_per_row_emitted." + q,
              static_cast<double>(scanned) /
                  static_cast<double>(std::max<uint64_t>(emitted, 1)));
  if (scan == nullptr) return;
  run->Sample("storage.bytes_read." + q, static_cast<double>(scan->bytes_read));
  if (kind == ReadKind::kScanFilter) {
    run->Sample("columnar.pages_skipped", static_cast<double>(scan->pages_skipped));
    run->Sample("columnar.segments_skipped",
                static_cast<double>(scan->segments_skipped));
  }
}

/// Executes one read of the version_reads sequence and checks its answer.
void DoRead(Run* run, Decibel* db, const ReadOp& op, const Model& model,
            const std::vector<BranchId>& ids, SpanLog* log,
            std::vector<double>* get_us) {
  const std::string what = ReadKindName(op.kind);
  ScopedSpan span(log, kReadSpan[static_cast<int>(op.kind)]);
  ReadStats rs;
  switch (op.kind) {
    case ReadKind::kScanFull:
    case ReadKind::kScanFilter:
    case ReadKind::kDiff: {
      RowCheck check(run->args.fault);
      ScanSpec spec = op.kind == ReadKind::kDiff
                          ? ScanSpec::Diff(ids[op.a], ids[op.b])
                          : ScanSpec::Branch(ids[op.a]);
      if (op.kind == ReadKind::kScanFilter) {
        spec.Where(GrpRange(run->schema, op.grp_lo, op.grp_hi));
        check.grp_lo = op.grp_lo;
        check.grp_hi = op.grp_hi;
      }
      const Status st = DriveScan(
          db, std::move(spec), log,
          [&](const ScanRow& row, const decibel::ScanCursor&) {
            check.Observe(row.record);
          },
          &rs.scan);
      span.End();
      if (run->Count(st, what.c_str())) check.Expect(run, op.expect, what);
      break;
    }
    case ReadKind::kJoin: {
      RowCheck left(run->args.fault);
      RowCheck right(run->args.fault);
      left.grp_lo = right.grp_lo = op.grp_lo;
      left.grp_hi = right.grp_hi = op.grp_hi;
      auto st = decibel::query::JoinVersions(
          db, ids[op.a], ids[op.b], GrpRange(run->schema, op.grp_lo, op.grp_hi),
          [&](const RecordRef& l, const RecordRef& r) {
            left.Observe(l);
            right.Observe(r);
          });
      span.End();
      if (run->Count(st.status(), what.c_str())) {
        rs.join_scanned = st->rows_scanned;
        rs.join_emitted = st->rows_emitted;
        left.Expect(run, op.expect, what + " left");
        right.Expect(run, op.expect_right, what + " right");
      }
      break;
    }
    case ReadKind::kHeads: {
      std::vector<RowCheck> per(model.size(), RowCheck(run->args.fault));
      std::unordered_map<BranchId, size_t> index;
      for (size_t b = 0; b < ids.size(); ++b) index[ids[b]] = b;
      const Status st = DriveScan(
          db, ScanSpec::Heads(), log,
          [&](const ScanRow& row, const decibel::ScanCursor& cursor) {
            if (row.branches == nullptr) return;
            for (uint32_t pos : *row.branches) {
              auto it = index.find(cursor.branches()[pos]);
              if (it != index.end()) per[it->second].Observe(row.record);
            }
          },
          &rs.scan);
      span.End();
      if (run->Count(st, what.c_str())) {
        for (size_t b = 0; b < model.size(); ++b) {
          const int bi = static_cast<int>(b);
          if (!model.branch(bi).live) continue;
          per[b].Expect(run, op.expect_heads[b],
                        what + " branch " + model.branch(bi).name);
        }
      }
      break;
    }
    case ReadKind::kGets: {
      uint64_t wrong = 0;
      std::optional<Record> scratch;
      for (size_t i = 0; i < op.keys.size(); ++i) {
        const int64_t g0 = NowNs();
        Result<Record> got = [&] {
          ScopedSpan s(log, "core.get");
          return db->Get(ids[op.a], op.keys[i]);
        }();
        get_us->push_back(static_cast<double>(NowNs() - g0) / 1e3);
        if (log->on()) {
          ScopedSpan s(log, "engine.get");
          const Status est = db->engine()->Get(ids[op.a], op.keys[i]).status();
          run->Count(est.IsNotFound() ? Status::OK() : est, "engine get");
        }
        if (got.ok()) {
          run->attempted.fetch_add(1, std::memory_order_relaxed);
          RecordRef row = got->ref();
          if (!FaultHook(run->args.fault, &row, &scratch)) {
            ++wrong;  // a dropped row reads as not found
            continue;
          }
          if (!RowIsConsistent(row) ||
              static_cast<uint32_t>(row.GetInt32(kVer)) != op.key_vers[i]) {
            ++wrong;
          }
        } else if (got.status().IsNotFound()) {
          run->attempted.fetch_add(1, std::memory_order_relaxed);
          if (op.key_vers[i] != 0) ++wrong;
        } else {
          run->Count(got.status(), "get");
        }
      }
      span.End();
      if (wrong != 0) {
        run->Mismatch("get: " + std::to_string(wrong) + " of " +
                      std::to_string(op.keys.size()) +
                      " lookups disagree with the model");
      }
      break;
    }
  }
  if (log->on() && op.kind != ReadKind::kGets) {
    const bool join = op.kind == ReadKind::kJoin;
    SampleRead(run, op.kind, join ? rs.join_scanned : rs.scan.rows_scanned,
               join ? rs.join_emitted : rs.scan.rows_emitted,
               join ? nullptr : &rs.scan);
  }
}

// -------------------------------------------------------------- agentic

/// One agent's statements for one cycle, built before the clock starts.
struct CycleStatements {
  std::string branch, select, commit, merge, retire;
  std::vector<std::string> writes;
};

std::string RowValues(const Schema* schema, int64_t pk, uint32_t ver) {
  const Record r = MakeRow(schema, pk, ver);
  std::string out = std::to_string(pk);
  for (size_t c = 1; c < schema->num_columns(); ++c) {
    out += " ";
    out += schema->column(c).type == decibel::FieldType::kInt64
               ? std::to_string(r.ref().GetInt64(c))
               : std::to_string(r.ref().GetInt32(c));
  }
  return out;
}

CycleStatements Statements(const Schema* schema, const AgenticCycle& c,
                           int32_t select_grps) {
  CycleStatements s;
  s.branch = "BRANCH " + c.name + " FROM master";
  s.select = "SELECT * FROM " + c.name + " WHERE grp < " +
             std::to_string(select_grps);
  for (const auto& [pk, ver] : c.inserts) {
    s.writes.push_back("INSERT " + c.name + " " + RowValues(schema, pk, ver));
  }
  for (const auto& [pk, ver] : c.updates) {
    s.writes.push_back("UPDATE " + c.name + " " + RowValues(schema, pk, ver));
  }
  s.commit = "COMMIT " + c.name;
  s.merge = "MERGE master " + c.name + " THREEWAY LEFT";
  s.retire = "RETIRE " + c.name;
  return s;
}

/// Checks one SELECT answer: exactly the base keys with grp below the
/// bound, this agent's rows at the versions it merged, every row intact.
void CheckSelect(Run* run, const vquel::ExecResult& res, const AgenticPlan& plan,
                 const AgenticCycle& cycle, int agent) {
  const Schema* schema = &run->schema;
  SetAgg keys;
  SetAgg own;
  uint64_t bad = 0;
  std::optional<Record> scratch;
  for (const auto& typed : res.typed_rows) {
    if (typed.size() != schema->num_columns()) {
      ++bad;
      continue;
    }
    Record rec(schema);
    for (size_t c = 0; c < typed.size(); ++c) {
      if (schema->column(c).type == decibel::FieldType::kInt64) {
        rec.SetInt64(c, typed[c].i);
      } else {
        rec.SetInt32(c, static_cast<int32_t>(typed[c].i));
      }
    }
    RecordRef row = rec.ref();
    if (!FaultHook(run->args.fault, &row, &scratch)) continue;
    if (!RowIsConsistent(row) || row.GetInt32(kGrp) >= plan.select_grps) ++bad;
    keys.Add(row.pk(), 0);
    if (row.pk() % run->sizes.agents == agent) {
      own.Add(row.pk(), static_cast<uint32_t>(row.GetInt32(kVer)));
    }
  }
  if (bad != 0 || keys != plan.select_keys || own != cycle.select_own) {
    run->Mismatch("agentic select on " + cycle.name + ": keys " +
                  keys.ToString() + " want " + plan.select_keys.ToString() +
                  ", own " + own.ToString() + " want " +
                  cycle.select_own.ToString() + ", bad rows " +
                  std::to_string(bad));
  }
}

const char* VerbSpan(const std::string& statement) {
  static const std::pair<const char*, const char*> kVerbs[] = {
      {"BRANCH", "query.branch"}, {"SELECT", "query.select"},
      {"INSERT", "query.insert"}, {"UPDATE", "query.update"},
      {"COMMIT", "query.commit"}, {"MERGE", "query.merge"},
      {"RETIRE", "query.retire"}};
  for (const auto& [verb, span] : kVerbs) {
    if (statement.compare(0, std::strlen(verb), verb) == 0) return span;
  }
  return "query.other";
}

/// One agent's cycles through vquel::Interpreter: the timed workload.
void RunInterpAgent(Run* run, Decibel* db, const AgenticPlan& plan, int agent,
                    const std::vector<CycleStatements>& stmts,
                    std::vector<double>* cycle_ms, std::vector<double>* write_us,
                    SpanLog* log) {
  vquel::Interpreter interp(db);
  const auto& cycles = plan.agents[agent];
  for (size_t c = 0; c < cycles.size(); ++c) {
    const CycleStatements& s = stmts[c];
    log->NewRequest();
    vquel::ExecResult select;
    const int64_t t0 = NowNs();
    {
      ScopedSpan cycle_span(log, "agentic.interp_cycle");
      auto exec = [&](const std::string& statement) -> Result<vquel::ExecResult> {
        ScopedSpan verb(log, VerbSpan(statement));
        auto r = WithRetry(run, [&] { return interp.Execute(statement); });
        run->Count(r.status(), VerbSpan(statement));
        return r;
      };
      (void)exec(s.branch);
      auto sel = exec(s.select);
      if (sel.ok()) select = std::move(*sel);
      for (const auto& w : s.writes) {
        const int64_t w0 = NowNs();
        (void)exec(w);
        write_us->push_back(static_cast<double>(NowNs() - w0) / 1e3);
      }
      (void)exec(s.commit);
      if (cycles[c].merge) (void)exec(s.merge);
      (void)exec(s.retire);
    }
    cycle_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
    CheckSelect(run, select, plan, cycles[c], agent);
  }
}

/// The same cycle shape through direct facade calls (traced run only):
/// the difference to the interpreter's cycle is the query layer's share.
void RunFacadeAgent(Run* run, Decibel* db, const AgenticPlan& plan, int agent,
                    SpanLog* log) {
  const Schema* schema = &run->schema;
  for (const AgenticCycle& c : plan.agents[agent]) {
    log->NewRequest();
    ScopedSpan cycle_span(log, "agentic.facade_cycle");
    decibel::Session s = db->NewSession();
    Result<BranchId> b = [&] {
      ScopedSpan span(log, "core.branch");
      return WithRetry(run, [&] { return db->Branch(c.name, &s); });
    }();
    if (!run->Count(b.status(), "facade branch")) continue;
    {
      RowCheck check(Fault::kNone);
      check.grp_hi = plan.select_grps;
      ScanSpec spec = ScanSpec::Branch(*b);
      spec.Where(GrpRange(*schema, INT32_MIN, plan.select_grps));
      run->Count(DriveScan(db, std::move(spec), log,
                           [&](const ScanRow& row, const decibel::ScanCursor&) {
                             check.Observe(row.record);
                           },
                           nullptr),
                 "facade select");
      if (check.bad != 0) run->Mismatch("facade select: inconsistent rows");
    }
    for (const auto& [pk, ver] : c.inserts) {
      ScopedSpan span(log, "core.txn_commit");
      run->Count(Retry(run, [&] {
                   return db->InsertInto(*b, MakeRow(schema, pk, ver));
                 }),
                 "facade insert");
    }
    for (const auto& [pk, ver] : c.updates) {
      ScopedSpan span(log, "core.txn_commit");
      run->Count(Retry(run, [&] {
                   return db->UpdateIn(*b, MakeRow(schema, pk, ver));
                 }),
                 "facade update");
    }
    {
      ScopedSpan span(log, "core.commit");
      run->Count(WithRetry(run, [&] { return db->CommitBranch(*b); }).status(),
                 "facade commit");
    }
    if (c.merge) {
      ScopedSpan span(log, "core.merge");
      auto info = WithRetry(run, [&] {
        return db->Merge(decibel::kMasterBranch, *b,
                         decibel::MergePolicy::kThreeWayLeft);
      });
      span.End();
      if (run->Count(info.status(), "facade merge") &&
          info->result.diff_bytes > 0) {
        run->Sample("engine.merge_bytes_per_diff_byte",
                    static_cast<double>(info->result.bytes_processed) /
                        static_cast<double>(info->result.diff_bytes));
      }
    }
    ScopedSpan span(log, "core.retire");
    run->Count(Retry(run, [&] { return db->RetireBranch(*b); }), "facade retire");
  }
}

/// Runs every agent of \p plan on its own thread; returns wall seconds.
double RunAgents(Run* run, Decibel* db, const AgenticPlan& plan, bool facade,
                 std::vector<double>* cycle_ms, std::vector<double>* write_us) {
  const int agents = static_cast<int>(plan.agents.size());
  std::vector<std::vector<CycleStatements>> stmts(agents);
  for (int a = 0; a < agents; ++a) {
    for (const auto& c : plan.agents[a]) {
      stmts[a].push_back(Statements(&run->schema, c, plan.select_grps));
    }
  }
  std::vector<std::vector<double>> ms(agents);
  std::vector<std::vector<double>> us(agents);
  std::vector<SpanLog> logs(agents, SpanLog(run->args.trace));
  std::vector<std::thread> threads;
  const int64_t t0 = NowNs();
  for (int a = 0; a < agents; ++a) {
    threads.emplace_back([&, a] {
      if (facade) {
        RunFacadeAgent(run, db, plan, a, &logs[a]);
      } else {
        RunInterpAgent(run, db, plan, a, stmts[a], &ms[a], &us[a], &logs[a]);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;
  for (int a = 0; a < agents; ++a) {
    cycle_ms->insert(cycle_ms->end(), ms[a].begin(), ms[a].end());
    write_us->insert(write_us->end(), us[a].begin(), us[a].end());
    std::lock_guard<std::mutex> lock(run->mu);
    logs[a].MoveInto(&run->spans);
  }
  return wall;
}

// ------------------------------------------------------------ the probe

/// Traced run only, after a round's checks: one agent cycle through the
/// interpreter and the same cycle through facade calls, one read of each
/// kind over master and a fresh fork, and point lookups through the facade,
/// the engine, and after DropCaches (cold, then warm), so every per-layer
/// metric has samples on every workload.
void Probe(Run* run, Decibel* db, int round, SpanLog* log) {
  const Schema* schema = &run->schema;
  const int64_t pk = (int64_t{1} << 40) + round * 4;
  const uint32_t ver = 0x7fff0000u + static_cast<uint32_t>(round) * 4;
  const std::string name = "probe" + std::to_string(round);
  {
    vquel::Interpreter interp(db);
    const std::string values = RowValues(schema, pk, ver);
    const std::string updated = RowValues(schema, pk, ver + 1);
    ScopedSpan cycle(log, "agentic.interp_cycle");
    for (const std::string& st :
         {"BRANCH " + name + "i FROM master",
          "SELECT * FROM " + name + "i WHERE grp < 2",
          "INSERT " + name + "i " + values, "UPDATE " + name + "i " + updated,
          "COMMIT " + name + "i", "MERGE master " + name + "i THREEWAY LEFT",
          "RETIRE " + name + "i"}) {
      ScopedSpan span(log, VerbSpan(st));
      run->Count(interp.Execute(st).status(), "probe statement");
    }
  }
  AgenticPlan one;
  one.select_grps = 2;
  one.agents.resize(1);
  AgenticCycle cycle;
  cycle.name = name + "f";
  cycle.inserts = {{pk + 1, ver + 2}};
  cycle.updates = {{pk + 1, ver + 3}};
  cycle.merge = true;
  one.agents[0].push_back(cycle);
  RunFacadeAgent(run, db, one, 0, log);

  // Reads over master and a fork holding one new row; answers are checked
  // for consistency only (the model does not track the probe's writes).
  decibel::Session s = db->NewSession();
  Result<BranchId> b = db->Branch(name + "r", &s);
  if (!run->Count(b.status(), "probe branch")) return;
  run->Count(db->InsertInto(*b, MakeRow(schema, pk + 2, ver + 2)),
             "probe insert");
  run->Count(db->CommitBranch(*b).status(), "probe commit");
  const BranchId m = decibel::kMasterBranch;
  auto scan = [&](const char* span_name, ReadKind kind, ScanSpec spec) {
    ScopedSpan span(log, span_name);
    RowCheck check(Fault::kNone);
    decibel::ScanStats stats;
    run->Count(DriveScan(db, std::move(spec), log,
                         [&](const ScanRow& row, const decibel::ScanCursor&) {
                           check.Observe(row.record);
                         },
                         &stats),
               span_name);
    span.End();
    if (check.bad != 0) run->Mismatch(std::string(span_name) + ": bad rows");
    SampleRead(run, kind, stats.rows_scanned, stats.rows_emitted, &stats);
  };
  scan("query.q1_full", ReadKind::kScanFull, ScanSpec::Branch(m));
  scan("query.q1_filter", ReadKind::kScanFilter,
       ScanSpec::Branch(m).Where(GrpRange(*schema, 0, 8)));
  scan("query.q2_diff", ReadKind::kDiff, ScanSpec::Diff(*b, m));
  {
    ScopedSpan span(log, "query.q3_join");
    auto st = decibel::query::JoinVersions(db, *b, m, GrpRange(*schema, 0, 64),
                                           [](const RecordRef&, const RecordRef&) {});
    span.End();
    if (run->Count(st.status(), "probe join")) {
      SampleRead(run, ReadKind::kJoin, st->rows_scanned, st->rows_emitted,
                 nullptr);
    }
  }
  scan("query.q4_heads", ReadKind::kHeads, ScanSpec::Heads());
  // Point lookups of keys every workload's master holds, through the
  // facade and straight into the engine, then cold (after DropCaches) and
  // warm again: the buffer pool's effect seen from outside.
  constexpr int kKeys = 64;
  auto gets = [&](const char* span_name, bool engine) {
    for (int i = 0; i < kKeys; ++i) {
      const int64_t key = static_cast<int64_t>(i) * 97;
      ScopedSpan span(log, span_name);
      Status st = engine ? db->engine()->Get(m, key).status()
                         : db->Get(m, key).status();
      run->Count(st.IsNotFound() ? Status::OK() : st, span_name);
    }
  };
  gets("core.get", false);
  gets("engine.get", true);
  db->engine()->DropCaches();
  gets("storage.cold_get", false);
  gets("storage.warm_get", false);
  run->Count(db->RetireBranch(*b), "probe retire");
}

// ------------------------------------------------------------- workloads

struct RoundContext {
  Run* run;
  int round;
  std::string dir;
  SpanLog* log;
};

/// Stats of the round's database that the traced run reports.
void SampleDbStats(Run* run, Decibel* db, uint64_t user_bytes) {
  const decibel::DecibelStats st = db->Stats();
  run->Sample("wal.bytes_per_user_byte",
              user_bytes > 0 ? static_cast<double>(st.wal_bytes_appended) /
                                   static_cast<double>(user_bytes)
                             : 0);
  run->Sample("wal.checkpoints", static_cast<double>(st.checkpoint_generation));
  run->Sample("version.commits", static_cast<double>(st.commits));
  run->Sample("version.branches", static_cast<double>(st.branches));
  run->Sample("engine.segments", static_cast<double>(st.engine.num_segments));
  run->Sample("storage.data_bytes", static_cast<double>(st.engine.data_bytes));
  run->Sample("bitmap.commit_store_bytes",
              static_cast<double>(st.engine.commit_store_bytes));
  run->Sample("bitmap.index_memory_bytes",
              static_cast<double>(st.engine.index_memory_bytes));
}

void FinishRound(const RoundContext& ctx, std::unique_ptr<Decibel> db,
                 uint64_t user_bytes) {
  Run* run = ctx.run;
  if (run->args.trace) {
    Probe(run, db.get(), ctx.round, ctx.log);
    SampleDbStats(run, db.get(), user_bytes);
  }
  db.reset();  // close: the WAL and engine files reach their final size
  double bytes = 0;
  double files = 0;
  DiskUsage(ctx.dir, &bytes, &files);
  {
    std::lock_guard<std::mutex> lock(run->mu);
    run->disk_bytes.push_back(bytes);
    run->disk_files.push_back(files);
    ctx.log->MoveInto(&run->spans);
  }
  if (run->args.trace) run->Sample("storage.files", files);
  RemoveDir(ctx.dir);
}

void AgenticRound(const RoundContext& ctx, const AgenticPlan& plan,
                  const AgenticPlan& facade_plan) {
  Run* run = ctx.run;
  const int64_t t0 = NowNs();
  std::unique_ptr<Decibel> db = OpenFresh(run, ctx.dir);
  {
    auto txn = db->Begin(decibel::kMasterBranch);
    for (int64_t pk = 0; pk < plan.base_rows; ++pk) {
      txn->Insert(MakeRow(&run->schema, pk, static_cast<uint32_t>(pk + 1)));
    }
    run->Count(txn->Commit(), "base load");
    run->Count(db->CommitBranch(decibel::kMasterBranch).status(), "base commit");
  }
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  std::vector<double> cycle_ms;
  std::vector<double> write_us;
  CpuTimer cpu;
  const double wall = RunAgents(run, db.get(), plan, false, &cycle_ms, &write_us);
  cpu.AddTo(run);
  run->Timed(wall, std::move(cycle_ms), write_us);

  // Checks: every fork retired, master exactly as the model says.
  const decibel::DecibelStats st = db->Stats();
  if (st.active_branches != 1) {
    run->Mismatch("agentic: " + std::to_string(st.active_branches) +
                  " active branches after the round, want 1");
  }
  RowCheck master(run->args.fault);
  auto cursor = db->NewScan(ScanSpec::Branch(decibel::kMasterBranch));
  if (run->Count(cursor.status(), "check scan")) {
    ScanRow row;
    while ((*cursor)->Next(&row)) master.Observe(row.record);
    run->Count((*cursor)->status(), "check scan");
    master.Expect(run, plan.final_master, "agentic master");
  }

  uint64_t user_bytes = 0;
  if (run->args.trace) {
    std::vector<double> unused_ms, unused_us;
    RunAgents(run, db.get(), facade_plan, true, &unused_ms, &unused_us);
    uint64_t writes = static_cast<uint64_t>(plan.base_rows);
    for (const auto* p : {&plan, &facade_plan}) {
      for (const auto& cycles : p->agents) {
        for (const auto& c : cycles) writes += c.inserts.size() + c.updates.size();
      }
    }
    user_bytes = writes * run->schema.record_size();
  }
  FinishRound(ctx, std::move(db), user_bytes);
}

void CurationRound(const RoundContext& ctx, const BranchedPlan& plan) {
  Run* run = ctx.run;
  SpanLog* log = ctx.log;
  const int64_t t0 = NowNs();
  std::unique_ptr<Decibel> db = OpenFresh(run, ctx.dir);
  std::vector<BranchId> ids = {decibel::kMasterBranch};
  ApplyOps(run, db.get(), plan.setup, &ids, plan.model);
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  // Timed: one single-op ApplyBatch per write, commits and three-way
  // merges where the plan puts them. A step is curation_step_ops writes
  // with the commits and merges that fall among them.
  ids.resize(plan.model.size(), decibel::kInvalidBranch);
  std::vector<double> steps;
  std::vector<double> points;
  points.reserve(plan.timed_writes);
  uint64_t merge_bytes = 0;
  uint64_t diff_bytes = 0;
  decibel::WriteBatch batch(&run->schema);
  CpuTimer cpu;
  const int64_t start = NowNs();
  int64_t step_start = start;
  log->NewRequest();
  for (const Op& op : plan.timed) {
    switch (op.kind) {
      case OpKind::kInsert:
      case OpKind::kUpdate:
      case OpKind::kDelete:
        batch.Clear();
        if (op.kind == OpKind::kDelete) {
          batch.Delete(op.pk);
        } else if (op.kind == OpKind::kInsert) {
          batch.Insert(MakeRow(&run->schema, op.pk, op.ver));
        } else {
          batch.Update(MakeRow(&run->schema, op.pk, op.ver));
        }
        {
          const int64_t a0 = NowNs();
          run->Count(db->ApplyBatch(ids[op.branch], batch), "apply");
          points.push_back(static_cast<double>(NowNs() - a0) / 1e3);
        }
        break;
      case OpKind::kBranch: {
        ScopedSpan span(log, "core.branch");
        decibel::Session s = db->NewSession();
        run->Count(db->Use(&s, ids[op.other]), "use");
        auto child = db->Branch(plan.model.branch(op.branch).name, &s);
        if (run->Count(child.status(), "branch")) ids[op.branch] = *child;
        break;
      }
      case OpKind::kCommit: {
        ScopedSpan span(log, "core.commit");
        run->Count(db->CommitBranch(ids[op.branch]).status(), "commit");
        break;
      }
      case OpKind::kMerge: {
        ScopedSpan span(log, "core.merge");
        auto info = db->Merge(ids[op.branch], ids[op.other],
                              decibel::MergePolicy::kThreeWayLeft);
        if (run->Count(info.status(), "merge")) {
          merge_bytes += info->result.bytes_processed;
          diff_bytes += info->result.diff_bytes;
        }
        break;
      }
      case OpKind::kRetire: {
        ScopedSpan span(log, "core.retire");
        run->Count(db->RetireBranch(ids[op.branch]), "retire");
        break;
      }
      case OpKind::kStepEnd: {
        const int64_t now = NowNs();
        steps.push_back(static_cast<double>(now - step_start) / 1e6);
        step_start = now;
        log->NewRequest();
        break;
      }
    }
  }
  const double timed_s = static_cast<double>(NowNs() - start) / 1e9;
  cpu.AddTo(run);
  run->Timed(timed_s, std::move(steps), points);
  if (run->args.trace && diff_bytes > 0) {
    run->Sample("engine.merge_bytes_per_diff_byte",
                static_cast<double>(merge_bytes) / static_cast<double>(diff_bytes));
  }

  CheckHeads(run, db.get(), plan.model, ids, "curation");
  uint64_t live = 0;
  for (size_t b = 0; b < plan.model.size(); ++b) {
    live += plan.model.branch(static_cast<int>(b)).live ? 1 : 0;
  }
  if (db->Stats().active_branches != live) {
    run->Mismatch("curation: " + std::to_string(db->Stats().active_branches) +
                  " active branches, want " + std::to_string(live));
  }
  const uint64_t user_bytes =
      (plan.setup.size() + plan.timed_writes) * run->schema.record_size();
  FinishRound(ctx, std::move(db), user_bytes);
}

void VersionReadsRound(const RoundContext& ctx, const BranchedPlan& plan,
                       const std::vector<std::vector<ReadOp>>& rounds) {
  Run* run = ctx.run;
  const int64_t t0 = NowNs();
  std::unique_ptr<Decibel> db = OpenFresh(run, ctx.dir);
  std::vector<BranchId> ids = {decibel::kMasterBranch};
  ApplyOps(run, db.get(), plan.setup, &ids, plan.model);
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  // Timed: the fixed read sequence. A step is one read round: one read of
  // each kind; the point operations are its Gets.
  std::vector<double> steps;
  std::vector<double> points;
  CpuTimer cpu;
  for (const auto& round : rounds) {
    ctx.log->NewRequest();
    const int64_t s0 = NowNs();
    for (const ReadOp& op : round) {
      DoRead(run, db.get(), op, plan.model, ids, ctx.log, &points);
    }
    steps.push_back(static_cast<double>(NowNs() - s0) / 1e6);
  }
  cpu.AddTo(run);
  double timed_s = 0;
  for (double ms : steps) timed_s += ms / 1e3;
  run->Timed(timed_s, std::move(steps), points);
  FinishRound(ctx, std::move(db), plan.setup.size() * run->schema.record_size());
}

// ---------------------------------------------------------------- output

void Metric(std::string* out, const std::string& name, double value,
            const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
}

std::string SpanJson(const Span& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"id\": %" PRIu64 ", \"parent\": %" PRIu64
                ", \"request\": %" PRIu64 ", \"start_ns\": %" PRId64
                ", \"end_ns\": %" PRId64 "}\n",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns);
  return buf;
}

/// Step tail percentiles, fixed per workload so that every run reports the
/// same one. The steps of a run's measured rounds are pooled; each tail
/// leaves at least ten of them above it in a full-size run of 55 seconds:
/// curation_load times thousands of steps, agentic hundreds of cycles,
/// version_reads about a hundred read rounds.
double StepTailPct(const Args& args) {
  if (args.workload == "version_reads") return 75;
  return args.workload == "agentic" ? 95 : 99;
}

/// The rounds a run's metrics come from: all but the warm-up rounds, or
/// all of them when the run has no more.
size_t FirstMeasured(size_t rounds) {
  return rounds > kWarmupRounds ? kWarmupRounds : 0;
}

/// Median over \p v's measured rounds.
double MedianMeasured(const std::vector<double>& v) {
  return Median(std::vector<double>(v.begin() + FirstMeasured(v.size()), v.end()));
}

/// Median over measured rounds of \p f(round).
template <typename F>
double MedianOfRounds(const Run& run, F&& f) {
  std::vector<double> v;
  for (size_t r = FirstMeasured(run.timed.size()); r < run.timed.size(); ++r) {
    v.push_back(f(run.timed[r]));
  }
  return Median(std::move(v));
}

/// Steps per second of timed work: the median over measured rounds of each
/// round's steps over its timed seconds.
double StepsPerSecond(const Run& run) {
  return MedianOfRounds(run, [](const RoundTimes& t) {
    return t.seconds > 0 ? static_cast<double>(t.step_ms.size()) / t.seconds : 0;
  });
}

std::string EndToEnd(const Run& run) {
  std::vector<double> steps;
  for (size_t r = FirstMeasured(run.timed.size()); r < run.timed.size(); ++r) {
    steps.insert(steps.end(), run.timed[r].step_ms.begin(),
                 run.timed[r].step_ms.end());
  }
  std::string m;
  Metric(&m, "setup_s", MedianMeasured(run.setup_s), "s");
  Metric(&m, "steps_per_s", StepsPerSecond(run), "1/s");
  Metric(&m, "step_tail_ms", Percentile(steps, StepTailPct(run.args)), "ms");
  Metric(&m, "point_p50_us",
         MedianOfRounds(run, [](const RoundTimes& t) { return t.point_p50_us; }),
         "us");
  Metric(&m, "point_tail_us",
         MedianOfRounds(run, [](const RoundTimes& t) { return t.point_tail_us; }),
         "us");
  Metric(&m, "disk_bytes", MedianMeasured(run.disk_bytes), "bytes");
  Metric(&m, "disk_files", MedianMeasured(run.disk_files), "count");
  return m;
}

std::string PerLayer(Run* run) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : run->spans) by_name[s.name].push_back(s.ms());
  auto span_ms = [&](const char* name) { return Median(by_name[name]); };
  auto sample = [&](const std::string& name) { return Median(run->samples[name]); };

  std::string m;
  for (const char* verb :
       {"branch", "select", "insert", "update", "commit", "merge", "retire"}) {
    Metric(&m, std::string("query.exec_us.") + verb,
           span_ms((std::string("query.") + verb).c_str()) * 1e3, "us");
  }
  Metric(&m, "query.self_ms_per_cycle",
         span_ms("agentic.interp_cycle") - span_ms("agentic.facade_cycle"), "ms");
  for (int k = 0; k < kNumReadKinds - 1; ++k) {
    Metric(&m, std::string(kReadSpan[k]) + "_ms", span_ms(kReadSpan[k]), "ms");
  }
  Metric(&m, "core.branch_ms", span_ms("core.branch"), "ms");
  Metric(&m, "core.txn_commit_us", span_ms("core.txn_commit") * 1e3, "us");
  Metric(&m, "core.commit_ms", span_ms("core.commit"), "ms");
  Metric(&m, "core.merge_ms", span_ms("core.merge"), "ms");
  Metric(&m, "core.retire_ms", span_ms("core.retire"), "ms");
  Metric(&m, "core.get_us", span_ms("core.get") * 1e3, "us");
  Metric(&m, "engine.get_us", span_ms("engine.get") * 1e3, "us");
  Metric(&m, "engine.scan_open_us", span_ms("engine.scan_open") * 1e3, "us");
  Metric(&m, "engine.scan_stream_ms", span_ms("engine.scan_stream"), "ms");
  for (int k = 0; k < kNumReadKinds - 1; ++k) {
    const std::string q = ReadKindName(static_cast<ReadKind>(k));
    Metric(&m, "engine.rows_scanned_per_row_emitted." + q,
           sample("engine.rows_scanned_per_row_emitted." + q), "ratio");
    if (static_cast<ReadKind>(k) != ReadKind::kJoin) {
      Metric(&m, "storage.bytes_read." + q, sample("storage.bytes_read." + q),
             "bytes");
    }
  }
  Metric(&m, "engine.merge_bytes_per_diff_byte",
         sample("engine.merge_bytes_per_diff_byte"), "ratio");
  Metric(&m, "engine.segments", sample("engine.segments"), "count");
  Metric(&m, "storage.data_bytes", sample("storage.data_bytes"), "bytes");
  Metric(&m, "storage.files", sample("storage.files"), "count");
  Metric(&m, "storage.cold_get_us", span_ms("storage.cold_get") * 1e3, "us");
  Metric(&m, "storage.warm_get_us", span_ms("storage.warm_get") * 1e3, "us");
  Metric(&m, "columnar.pages_skipped", sample("columnar.pages_skipped"), "count");
  Metric(&m, "columnar.segments_skipped", sample("columnar.segments_skipped"),
         "count");
  Metric(&m, "bitmap.commit_store_bytes", sample("bitmap.commit_store_bytes"),
         "bytes");
  Metric(&m, "bitmap.index_memory_bytes", sample("bitmap.index_memory_bytes"),
         "bytes");
  Metric(&m, "txn.lock_retries",
         static_cast<double>(run->lock_retries.load()), "count");
  Metric(&m, "wal.bytes_per_user_byte", sample("wal.bytes_per_user_byte"),
         "ratio");
  Metric(&m, "wal.checkpoints", sample("wal.checkpoints"), "count");
  Metric(&m, "version.commits", sample("version.commits"), "count");
  Metric(&m, "version.branches", sample("version.branches"), "count");
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Metric(&m, "proc.cpu_user_s", run->cpu_user_s, "s");
  Metric(&m, "proc.cpu_sys_s", run->cpu_sys_s, "s");
  Metric(&m, "proc.max_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  Metric(&m, "trace.spans", static_cast<double>(run->spans.size()), "count");
  Metric(&m, "trace.steps_per_s", StepsPerSecond(*run), "1/s");
  return m;
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload agentic|curation_load|"
                 "version_reads --seed N --seconds S --trace 0|1 --data-root "
                 "DIR [--size full|small] [--fault none|row|drop] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  run.sizes = run.args.small ? Sizes::Small() : Sizes::Full();
  const uint64_t seed = run.args.seed;
  SpanLog log(run.args.trace);
  std::filesystem::create_directories(run.args.data_root);

  // Inputs are generated once per run; every round replays them on a
  // fresh database.
  AgenticPlan agentic, agentic_facade;
  BranchedPlan branched;
  std::vector<std::vector<ReadOp>> reads;
  const std::string& w = run.args.workload;
  if (w == "agentic") {
    agentic = MakeAgenticPlan(run.sizes, seed, 0);
    agentic_facade = MakeAgenticPlan(run.sizes, seed, 1);
  } else if (w == "curation_load") {
    branched = MakeCurationPlan(run.sizes, seed);
  } else {
    branched = MakeSciencePlan(run.sizes, seed);
    reads = MakeReadRounds(run.sizes, branched.model, seed);
  }

  // Rounds start while one more is expected to end within --seconds, so a
  // run measures about that long; the first round always runs.
  const int64_t start = NowNs();
  double longest_round = 0;
  for (int round = 0;; ++round) {
    const int64_t round_start = NowNs();
    RoundContext ctx{&run, round,
                     run.args.data_root + "/" + w + "_" + std::to_string(round),
                     &log};
    if (w == "agentic") {
      AgenticRound(ctx, agentic, agentic_facade);
    } else if (w == "curation_load") {
      CurationRound(ctx, branched);
    } else {
      VersionReadsRound(ctx, branched, reads);
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    longest_round = std::max(
        longest_round, static_cast<double>(NowNs() - round_start) / 1e9);
    const RoundTimes& t = run.timed.back();
    std::fprintf(stderr,
                 "round %d: set-up %.3f s, %zu steps in %.2f s timed "
                 "(point p50 %.3f us), %.1f s elapsed\n",
                 round, run.setup_s.back(), t.step_ms.size(), t.seconds,
                 t.point_p50_us, elapsed);
    if (!run.correct || run.args.small ||
        elapsed + longest_round > run.args.seconds) {
      break;
    }
  }

  if (run.args.trace && !run.args.trace_out.empty()) {
    if (FILE* f = std::fopen(run.args.trace_out.c_str(), "w")) {
      for (const Span& s : run.spans) std::fputs(SpanJson(s).c_str(), f);
      std::fclose(f);
    }
  }
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 ": %zu rounds, the first"
               " %zu of them warm-up (step tail p%.0f, point tail p%.0f)\n",
               w.c_str(), seed, run.timed.size(), FirstMeasured(run.timed.size()),
               StepTailPct(run.args), kPointTailPct);
  const std::string metrics = run.args.trace ? PerLayer(&run) : EndToEnd(run);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              run.correct ? "true" : "false", run.attempted.load(),
              run.failed.load(), metrics.c_str());
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
