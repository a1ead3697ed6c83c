/// Property-based testing: a randomized stream of versioning operations is
/// applied simultaneously to a Decibel engine and to a naive in-memory
/// oracle (one std::map per branch, snapshots per commit). After every
/// burst the engine's scans, commit scans and diffs (by key and by
/// content, through Diff and the filtered, limited diff view) must agree
/// with the oracle exactly. Parameterized over engine type x seed, plus
/// the tuple-oriented and parallel-scan layouts of the bitmap engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "core/decibel.h"
#include "test_util.h"

namespace decibel {
namespace {

using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

struct Oracle {
  using Table = std::map<int64_t, int32_t>;  // pk -> c1 (c2/c3 mirror c1)
  std::map<BranchId, Table> branches;
  std::map<CommitId, Table> commits;
};

/// Runs the randomized stream for \p seed on an engine opened with
/// \p options (page size aside) and checks it against the oracle.
void RunModel(DecibelOptions options, uint64_t seed) {
  ScratchDir dir("model");
  const Schema schema = TestSchema(3);
  options.page_size = 4096;
  auto db_result = Decibel::Open(dir.path(), schema, options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto db = std::move(db_result).MoveValueUnsafe();

  Random rng(seed);
  Oracle oracle;
  oracle.branches[kMasterBranch] = {};
  oracle.commits[db->graph().Head(kMasterBranch)] = {};
  std::vector<BranchId> branches{kMasterBranch};
  int64_t next_pk = 0;
  int32_t next_val = 1000;

  auto check_branch = [&](BranchId b) {
    auto it = db->NewScan(ScanSpec::Branch(b));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    auto rows = testing_util::Collect(it.value().get());
    EXPECT_EQ(rows, oracle.branches[b]) << "branch " << b << " diverged";
  };

  for (int round = 0; round < 40; ++round) {
    // A burst of data operations on random branches.
    const int burst = 10 + static_cast<int>(rng.Uniform(30));
    for (int op = 0; op < burst; ++op) {
      const BranchId b = branches[rng.Uniform(branches.size())];
      Oracle::Table& table = oracle.branches[b];
      const uint64_t kind = rng.Uniform(10);
      if (kind < 6 || table.empty()) {
        const int64_t pk = next_pk++;
        const int32_t val = next_val++;
        ASSERT_OK(db->InsertInto(b, MakeRecord(schema, pk, val)));
        table[pk] = val;
      } else if (kind < 9) {
        // Update a random existing key.
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        const int32_t val = next_val++;
        ASSERT_OK(db->UpdateIn(b, MakeRecord(schema, it->first, val)));
        it->second = val;
      } else {
        auto it = table.begin();
        std::advance(it, rng.Uniform(table.size()));
        ASSERT_OK(db->DeleteFrom(b, it->first));
        table.erase(it);
      }
    }

    // Occasionally commit, branch or merge.
    const uint64_t action = rng.Uniform(10);
    if (action < 4) {
      const BranchId b = branches[rng.Uniform(branches.size())];
      auto commit = db->CommitBranch(b);
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
      oracle.commits[*commit] = oracle.branches[b];
    } else if (action < 7 && branches.size() < 8) {
      const BranchId parent = branches[rng.Uniform(branches.size())];
      Session s = db->NewSession();
      ASSERT_OK(db->Use(&s, parent));
      auto child = db->Branch("b" + std::to_string(round), &s);
      ASSERT_TRUE(child.ok()) << child.status().ToString();
      branches.push_back(*child);
      oracle.branches[*child] = oracle.branches[parent];
      // The implicit commit created by branching snapshots the parent.
      oracle.commits[db->graph().Head(parent)] = oracle.branches[parent];
    } else if (action < 8 && branches.size() >= 2) {
      // Merge one branch into another (no self-merges). Use two-way
      // precedence so the oracle stays simple: compute the merged table
      // from lca/two sides at key granularity.
      const BranchId into = branches[rng.Uniform(branches.size())];
      BranchId from = branches[rng.Uniform(branches.size())];
      if (from != into) {
        // The facade auto-commits both heads before merging; snapshot both
        // sides so those commits land in the oracle too.
        const Oracle::Table pre_into = oracle.branches[into];
        const Oracle::Table pre_from = oracle.branches[from];
        auto merged = db->Merge(into, from, MergePolicy::kTwoWayLeft);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        {
          auto commit = db->graph().GetCommit(merged->commit);
          ASSERT_TRUE(commit.ok());
          oracle.commits[commit->parents[0]] = pre_into;
          oracle.commits[commit->parents[1]] = pre_from;
        }
        // Recompute the oracle merge from the lca snapshot.
        const CommitId lca_commit = [&] {
          auto commit = db->graph().GetCommit(merged->commit);
          EXPECT_TRUE(commit.ok());
          auto lca = db->graph().Lca(commit->parents[0], commit->parents[1]);
          EXPECT_TRUE(lca.ok());
          return *lca;
        }();
        ASSERT_TRUE(oracle.commits.count(lca_commit))
            << "oracle missing lca " << lca_commit;
        const Oracle::Table& base = oracle.commits[lca_commit];
        const Oracle::Table& left = oracle.branches[into];
        const Oracle::Table& right = oracle.branches[from];
        Oracle::Table result = left;
        std::set<int64_t> keys;
        for (const auto& [k, v] : base) keys.insert(k);
        for (const auto& [k, v] : right) keys.insert(k);
        for (int64_t k : keys) {
          const bool in_base = base.count(k) != 0;
          const bool in_left = left.count(k) != 0;
          const bool in_right = right.count(k) != 0;
          const bool left_changed =
              in_base != in_left || (in_base && left.at(k) != base.at(k));
          const bool right_changed =
              in_base != in_right || (in_base && right.at(k) != base.at(k));
          if (right_changed && !left_changed) {
            if (in_right) {
              result[k] = right.at(k);
            } else {
              result.erase(k);
            }
          }
          // left-changed or both-changed: left wins (kTwoWayLeft).
        }
        oracle.branches[into] = result;
        oracle.commits[merged->commit] = result;
      }
    }

    // Verify a couple of random branches each round.
    check_branch(branches[rng.Uniform(branches.size())]);
    check_branch(branches[rng.Uniform(branches.size())]);
  }

  // Final: every branch, every remembered commit, and pairwise diffs.
  for (BranchId b : branches) check_branch(b);
  for (const auto& [commit, table] : oracle.commits) {
    auto it = db->NewScan(ScanSpec::Commit(commit));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    auto rows = testing_util::Collect(it.value().get());
    EXPECT_EQ(rows, table) << "commit " << commit << " diverged";
  }
  // The diff view's predicate splits the values written so far in half.
  const int32_t threshold = 1000 + (next_val - 1000) / 2;
  auto above = Predicate::Compare(schema, "c1", CompareOp::kGe, threshold);
  ASSERT_TRUE(above.ok()) << above.status().ToString();
  for (size_t i = 0; i + 1 < branches.size(); ++i) {
    const BranchId a = branches[i];
    const BranchId b = branches[i + 1];
    const Oracle::Table& ta = oracle.branches[a];
    const Oracle::Table& tb = oracle.branches[b];
    // By key: the other side lacks the key. By content: the other side
    // lacks the key or holds a different value under it.
    auto expected = [](const Oracle::Table& self, const Oracle::Table& other,
                       DiffMode mode) {
      Oracle::Table out;
      for (const auto& [k, v] : self) {
        auto it = other.find(k);
        if (it == other.end() ||
            (mode == DiffMode::kByContent && it->second != v)) {
          out[k] = v;
        }
      }
      return out;
    };
    for (DiffMode mode : {DiffMode::kByKey, DiffMode::kByContent}) {
      const char* name = mode == DiffMode::kByKey ? "by key" : "by content";
      Oracle::Table pos, neg;
      ASSERT_OK(db->Diff(
          a, b, mode, [&](const RecordRef& r) { pos[r.pk()] = r.GetInt32(1); },
          [&](const RecordRef& r) { neg[r.pk()] = r.GetInt32(1); }));
      const Oracle::Table expected_pos = expected(ta, tb, mode);
      EXPECT_EQ(pos, expected_pos)
          << "diff(" << a << "," << b << ") pos " << name;
      EXPECT_EQ(neg, expected(tb, ta, mode))
          << "diff(" << a << "," << b << ") neg " << name;

      // The kDiff view: the positive side, filtered, then cut at a limit
      // (which rows survive the cut is engine order; how many is not).
      Oracle::Table filtered;
      for (const auto& [k, v] : expected_pos) {
        if (v >= threshold) filtered[k] = v;
      }
      auto all = db->NewScan(ScanSpec::Diff(a, b, mode).Where(*above));
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(testing_util::Collect(all.value().get()), filtered)
          << "diff view(" << a << "," << b << ") " << name;
      constexpr uint64_t kLimit = 3;
      auto cut = db->NewScan(
          ScanSpec::Diff(a, b, mode).Where(*above).WithLimit(kLimit));
      ASSERT_TRUE(cut.ok()) << cut.status().ToString();
      const Oracle::Table rows = testing_util::Collect(cut.value().get());
      EXPECT_EQ(rows.size(), std::min<size_t>(kLimit, filtered.size()))
          << "limited diff view(" << a << "," << b << ") " << name;
      for (const auto& [k, v] : rows) {
        auto it = filtered.find(k);
        EXPECT_TRUE(it != filtered.end() && it->second == v)
            << "limited diff view(" << a << "," << b << ") " << name
            << " returned pk " << k;
      }
    }
  }

  // Multi-branch scan annotations must match per-branch membership.
  std::map<int64_t, std::map<uint32_t, int32_t>> seen;
  {
    auto it = db->NewScan(ScanSpec::Multi(branches));
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    ScanRow row;
    while ((*it)->Next(&row)) {
      for (uint32_t p : *row.branches) {
        seen[row.record.pk()][p] = row.record.GetInt32(1);
      }
    }
    ASSERT_OK((*it)->status());
  }
  for (size_t p = 0; p < branches.size(); ++p) {
    for (const auto& [pk, val] : oracle.branches[branches[p]]) {
      ASSERT_TRUE(seen.count(pk) && seen[pk].count(static_cast<uint32_t>(p)))
          << "multi-scan missing pk " << pk << " of branch " << branches[p];
      EXPECT_EQ(seen[pk][static_cast<uint32_t>(p)], val);
    }
  }
}

class ModelTest
    : public ::testing::TestWithParam<std::tuple<EngineType, uint64_t>> {};

TEST_P(ModelTest, RandomOperationStreamMatchesOracle) {
  DecibelOptions options;
  options.engine = std::get<0>(GetParam());
  RunModel(options, std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, ModelTest,
    ::testing::Combine(::testing::Values(EngineType::kTupleFirst,
                                         EngineType::kVersionFirst,
                                         EngineType::kHybrid),
                       ::testing::Values(1u, 7u, 42u, 1234u)),
    [](const auto& info) {
      const char* name = EngineTypeName(std::get<0>(info.param));
      std::string engine =
          std::string(name) == "tuple-first"    ? "TupleFirst"
          : std::string(name) == "version-first" ? "VersionFirst"
                                                  : "Hybrid";
      return engine + "_seed" + std::to_string(std::get<1>(info.param));
    });

/// The bitmap-engine layouts the default options leave out, over the same
/// stream: tuple-first on the tuple-oriented bitmap matrix, and hybrid
/// scanning its segments on four threads (the parallel segment scan).
enum class Layout { kTupleFirstTupleOriented, kHybridParallelScan };

class ModelLayoutTest
    : public ::testing::TestWithParam<std::tuple<Layout, uint64_t>> {};

TEST_P(ModelLayoutTest, RandomOperationStreamMatchesOracle) {
  DecibelOptions options;
  if (std::get<0>(GetParam()) == Layout::kTupleFirstTupleOriented) {
    options.engine = EngineType::kTupleFirst;
    options.orientation = BitmapOrientation::kTupleOriented;
  } else {
    options.engine = EngineType::kHybrid;
    options.scan_threads = 4;
  }
  RunModel(options, std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSeeds, ModelLayoutTest,
    ::testing::Combine(::testing::Values(Layout::kTupleFirstTupleOriented,
                                         Layout::kHybridParallelScan),
                       ::testing::Values(1u, 7u, 42u, 1234u)),
    [](const auto& info) {
      const std::string layout =
          std::get<0>(info.param) == Layout::kTupleFirstTupleOriented
              ? "TupleFirstTupleOriented"
              : "HybridParallelScan";
      return layout + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace decibel
