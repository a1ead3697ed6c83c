#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

/// \file inputs.h
/// The benchmark's input generator and its reference model.
///
/// Inputs depend only on the seed and on this file: the generator has its
/// own random source and its own ports of the paper's §4.1 branching
/// strategies, so no change under src/ can change what the program is
/// asked to do. The program receives only the generated operations.
///
/// Every record is a pure function of (pk, ver), where ver is a write id
/// unique within a round:
///   pk   INT64  primary key, dense from 0
///   grp  INT32  pk / 64; never changed by updates, so a predicate on grp
///               has an answer known from keys alone, and pages written in
///               pk order give zone maps something to skip
///   val  INT64  Mix(ver)
///   ver  INT32  the write id
///   p0..p23     INT32 padding, ver * odd constant + i (distinct per ver)
///   sum  INT64  linear checksum over every other field
/// Two distinct versions of a key therefore differ in every column but pk
/// and grp, so a three-way field merge of two conflicting updates always
/// resolves at record granularity and the model needs no field logic.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/record.h"
#include "storage/schema.h"

namespace perfbench {

using decibel::Record;
using decibel::RecordRef;
using decibel::Schema;

/// splitmix64's finalizer: a bijection on 64-bit words.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The generator's own random source (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed ^ 0x5eedULL)) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  bool Percent(uint64_t pct) { return Uniform(100) < pct; }

 private:
  uint64_t state_;
};

// ------------------------------------------------------------ records

constexpr int kPads = 24;
enum Column : size_t { kPk = 0, kGrp = 1, kVal = 2, kVer = 3, kPad0 = 4 };
constexpr size_t kSum = kPad0 + kPads;
constexpr int64_t kRowsPerGrp = 64;

Schema BenchSchema();

inline int32_t GrpOf(int64_t pk) {
  return static_cast<int32_t>(pk / kRowsPerGrp);
}
inline int64_t ValOf(uint32_t ver) { return static_cast<int64_t>(Mix(ver)); }
inline int32_t PadOf(uint32_t ver, int i) {
  return static_cast<int32_t>(ver * (2654435761u + 2u * i) + i);
}

/// Linear checksum over every column but sum itself.
inline int64_t ChecksumOf(int64_t pk, int32_t grp, int64_t val, int32_t ver,
                          const int32_t* pads) {
  uint64_t h = static_cast<uint64_t>(pk) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(static_cast<int64_t>(grp)) *
                   0xc2b2ae3d27d4eb4fULL +
               static_cast<uint64_t>(val) * 0x165667b19e3779f9ULL +
               static_cast<uint64_t>(static_cast<int64_t>(ver)) *
                   0x27d4eb2f165667c5ULL;
  for (int i = 0; i < kPads; ++i) {
    h += static_cast<uint64_t>(static_cast<int64_t>(pads[i])) *
         (0xff51afd7ed558ccdULL + 2ULL * static_cast<uint64_t>(i));
  }
  return static_cast<int64_t>(h);
}

Record MakeRow(const Schema* schema, int64_t pk, uint32_t ver);

/// True when the row's checksum matches its fields and its grp is the
/// one its pk implies.
bool RowIsConsistent(const RecordRef& row);

/// Order-independent summary of a set of (pk, ver) rows: two sets agree
/// when count, pk sum and fingerprint sum all agree.
struct SetAgg {
  uint64_t count = 0;
  uint64_t pk_sum = 0;
  uint64_t fp_sum = 0;
  void Add(int64_t pk, uint32_t ver) {
    ++count;
    pk_sum += static_cast<uint64_t>(pk);
    fp_sum += Mix(static_cast<uint64_t>(pk) * 0x100000001b3ULL ^ ver);
  }
  bool operator==(const SetAgg& o) const {
    return count == o.count && pk_sum == o.pk_sum && fp_sum == o.fp_sum;
  }
  bool operator!=(const SetAgg& o) const { return !(*this == o); }
  std::string ToString() const;
};

// ------------------------------------------------------- operation plans

/// One operation handed to the program. Branch fields are indices into the
/// plan's branch table; the benchmark maps them to the ids the program
/// assigns.
enum class OpKind : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  kBranch,  ///< branch = new index, other = parent index
  kCommit,
  kMerge,   ///< three-way, 'into' (branch) wins conflicts; other = from
  kRetire,
  kStepEnd, ///< closes one timed step
};

struct Op {
  OpKind kind = OpKind::kInsert;
  int32_t branch = 0;
  int32_t other = 0;
  int64_t pk = 0;
  uint32_t ver = 0;
};

/// Reference model of one branch: ver[pk] is the live version of pk, 0 for
/// absent; base is the parent's state when this branch forked.
struct ModelBranch {
  std::string name;
  int parent = -1;
  bool live = true;
  std::vector<uint32_t> ver;
  std::vector<uint32_t> base;

  uint32_t At(int64_t pk) const {
    return static_cast<size_t>(pk) < ver.size() ? ver[pk] : 0;
  }
  void Set(int64_t pk, uint32_t v) {
    if (static_cast<size_t>(pk) >= ver.size()) ver.resize(pk + 1, 0);
    ver[pk] = v;
  }
};

/// The data as the program must hold it, computed apart from the program.
class Model {
 public:
  int AddRoot(const std::string& name);
  /// Forks \p parent; the child inherits its live set.
  int Fork(int parent, const std::string& name);
  /// Three-way merge of \p from into \p into against \p from's fork base
  /// (the lowest common ancestor: every branch merges into its parent once,
  /// never the other way). Per key: only one side changed -> that side;
  /// both changed -> 'into' (two versions differ in every column, so the
  /// field merge keeps the whole 'into' record; deletes resolve at record
  /// granularity).
  void Merge(int into, int from);

  ModelBranch& branch(int i) { return branches_[i]; }
  const ModelBranch& branch(int i) const { return branches_[i]; }
  size_t size() const { return branches_.size(); }
  int64_t pk_limit() const { return pk_limit_; }
  void NotePk(int64_t pk) {
    if (pk + 1 > pk_limit_) pk_limit_ = pk + 1;
  }

  /// Live rows of \p b whose grp lies in [grp_lo, grp_hi).
  SetAgg Select(int b, int32_t grp_lo, int32_t grp_hi) const;
  SetAgg All(int b) const { return Select(b, INT32_MIN, INT32_MAX); }
  /// Q2: rows of \p a whose key is not live in \p b.
  SetAgg DiffByKey(int a, int b) const;
  /// Q3: keys live in both, a-side grp in range; aggregated per side.
  void Join(int a, int b, int32_t grp_lo, int32_t grp_hi, SetAgg* left,
            SetAgg* right) const;

 private:
  std::vector<ModelBranch> branches_;
  int64_t pk_limit_ = 0;
};

// ------------------------------------------------------------ workloads

/// Sizes of one workload round; the small variant is for self-tests.
struct Sizes {
  // agentic
  int agents = 2;
  int64_t agentic_base_rows = 16384;
  int cycles_per_agent = 12;
  int inserts_per_cycle = 4;
  int updates_per_cycle = 4;
  int32_t select_grps = 2;  ///< SELECT ... WHERE grp < select_grps
  // curation_load
  int64_t curation_base_rows = 320000;
  uint64_t curation_ops = 280000;
  uint64_t curation_commit_every = 500;
  uint64_t curation_step_ops = 500;
  uint64_t curation_event_every = 8000;
  // version_reads
  int64_t science_ops = 720000;
  int science_branches = 8;
  uint64_t science_commit_every = 10000;
  int read_rounds = 12;
  int gets_per_round = 256;

  static Sizes Full() { return Sizes(); }
  static Sizes Small();
};

/// agentic: the fixed per-agent statement stream of one round. Each agent
/// updates only its own slice of the base table (pk % agents == agent), so
/// the final master is known whatever order the merges land in.
struct AgenticCycle {
  std::string name;
  std::vector<std::pair<int64_t, uint32_t>> inserts;
  std::vector<std::pair<int64_t, uint32_t>> updates;
  bool merge = false;
  /// This agent's own-slice rows the SELECT must return, with their exact
  /// versions (the other agent's rows are checked by key and checksum).
  SetAgg select_own;
};

struct AgenticPlan {
  int64_t base_rows = 0;
  int32_t select_grps = 0;
  /// Keys the SELECT returns: every base pk with grp < select_grps.
  SetAgg select_keys;
  std::vector<std::vector<AgenticCycle>> agents;
  /// Master after every cycle ran, in any interleaving.
  SetAgg final_master;
};

/// \p tag keeps branch names and write ids of two plans in one round apart.
AgenticPlan MakeAgenticPlan(const Sizes& sizes, uint64_t seed, int tag);

/// A branched load: the setup ops (applied untimed, in batches) and the
/// timed ops, with the model state after both.
struct BranchedPlan {
  Model model;
  std::vector<Op> setup;
  std::vector<Op> timed;
  uint64_t timed_writes = 0;
};

/// curation_load (§4.1 curation): a mainline, development branches forked
/// from it that merge back, and short feature/fix branches forked from a
/// development branch that merge into it. Inserts, updates and a small
/// share of deletes are interleaved across the live heads; every head
/// commits every commit_every of its operations.
BranchedPlan MakeCurationPlan(const Sizes& sizes, uint64_t seed);

/// version_reads setup (§4.1 science): a mainline and working branches
/// forked alternately from the mainline and from the newest working branch;
/// a branch stops taking writes once three newer branches exist; the
/// mainline takes twice a working branch's share. No merges, no deletes.
BranchedPlan MakeSciencePlan(const Sizes& sizes, uint64_t seed);

/// One read of the version_reads sequence, with its expected answer.
enum class ReadKind : uint8_t {
  kScanFull,
  kScanFilter,
  kDiff,
  kJoin,
  kHeads,
  kGets,
};
constexpr int kNumReadKinds = 6;
const char* ReadKindName(ReadKind kind);

struct ReadOp {
  ReadKind kind = ReadKind::kScanFull;
  int a = 0;
  int b = 0;
  int32_t grp_lo = 0;
  int32_t grp_hi = 0;
  SetAgg expect;        ///< scans, diff, join left side
  SetAgg expect_right;  ///< join right side
  std::vector<SetAgg> expect_heads;  ///< kHeads: per branch, empty if retired
  std::vector<int64_t> keys;  ///< kGets
  std::vector<uint32_t> key_vers;  ///< expected version, 0 = not found
};

/// The fixed read sequence: `rounds` rounds of one read of each kind.
std::vector<std::vector<ReadOp>> MakeReadRounds(const Sizes& sizes,
                                                const Model& model,
                                                uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
