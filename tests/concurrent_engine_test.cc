/// Concurrency suite for the striped write path: transactions on disjoint
/// branches commit in parallel on all three engines, readers ride
/// batch-boundary snapshots while writers append, and cross-branch
/// operations (merge) acquire their stripes in a global order. These are
/// the TSan CI targets for the sharded-registry refactor; the LockManager
/// tests at the bottom pin the FIFO wakeup discipline (a late stream of
/// shared acquirers cannot starve a queued exclusive waiter).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/decibel.h"
#include "test_util.h"
#include "txn/lock_manager.h"

namespace decibel {
namespace {

using testing_util::CollectBranch;
using testing_util::MakeRecord;
using testing_util::ScratchDir;
using testing_util::TestSchema;

class ConcurrentEngineTest : public ::testing::TestWithParam<EngineType> {
 protected:
  DecibelOptions Options() const {
    DecibelOptions options;
    options.engine = GetParam();
    options.lock_timeout_ms = 10000;
    return options;
  }
};

// One writer thread per branch, every branch on its own stripe: all
// threads push transactions concurrently and each branch must end up with
// exactly its own writes (plus the inherited base) — nothing lost,
// nothing leaked across branches.
TEST_P(ConcurrentEngineTest, DisjointBranchCommitsInParallel) {
  ScratchDir dir("conc_disjoint");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int kBranches = 8;
  constexpr int kTxns = 6;
  constexpr int kRowsPerTxn = 40;

  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  std::vector<BranchId> branches;
  Session s = db->NewSession();
  for (int b = 0; b < kBranches; ++b) {
    ASSERT_OK(db->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(BranchId child,
                         db->Branch("writer" + std::to_string(b), &s));
    branches.push_back(child);
  }

  std::vector<std::thread> threads;
  threads.reserve(kBranches);
  for (int b = 0; b < kBranches; ++b) {
    threads.emplace_back([&, b] {
      const int64_t base = 1000 * (b + 1);
      for (int round = 0; round < kTxns; ++round) {
        auto txn = db->Begin(branches[b]);
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        for (int64_t i = 0; i < kRowsPerTxn; ++i) {
          ASSERT_OK(txn->Insert(
              MakeRecord(schema, base + round * kRowsPerTxn + i, b + 1)));
        }
        Status committed = txn->Commit();
        while (committed.IsAborted()) committed = txn->Commit();
        ASSERT_OK(committed);
        // Interleave version-control commits with the data traffic so the
        // striped commit path runs concurrently across branches too.
        auto c = db->CommitBranch(branches[b]);
        ASSERT_TRUE(c.ok()) << c.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int b = 0; b < kBranches; ++b) {
    auto rows = CollectBranch(db.get(), branches[b]);
    ASSERT_EQ(rows.size(), 10u + kTxns * kRowsPerTxn) << "branch " << b;
    for (const auto& [pk, value] : rows) {
      if (pk < 10) {
        EXPECT_EQ(value, 0) << "inherited row clobbered, pk " << pk;
      } else {
        EXPECT_EQ(value, b + 1) << "cross-branch leak at pk " << pk;
      }
    }
  }
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 10u);
}

// Writers apply batches of exactly kBatch rows; concurrent readers open
// snapshot scans in a loop. A scan that ever observes a row count that is
// not a multiple of kBatch has seen a half-applied batch.
TEST_P(ConcurrentEngineTest, ReadersNeverObserveHalfAppliedBatches) {
  ScratchDir dir("conc_snapshot");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int kBatch = 25;
  constexpr int kTxns = 30;

  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId hot, db->Branch("hot", &s));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < kTxns; ++round) {
      auto txn = db->Begin(hot);
      ASSERT_TRUE(txn.ok()) << txn.status().ToString();
      for (int64_t i = 0; i < kBatch; ++i) {
        ASSERT_OK(txn->Insert(MakeRecord(schema, round * kBatch + i, round)));
      }
      Status committed = txn->Commit();
      while (committed.IsAborted()) committed = txn->Commit();
      ASSERT_OK(committed);
    }
    done.store(true);
  });

  std::thread reader([&] {
    size_t last = 0;
    while (!done.load()) {
      auto cursor = db->NewScan(ScanSpec::Branch(hot));
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      ScanRow row;
      size_t count = 0;
      while ((*cursor)->Next(&row)) ++count;
      ASSERT_OK((*cursor)->status());
      EXPECT_EQ(count % kBatch, 0u) << "scan saw a half-applied batch";
      EXPECT_GE(count, last) << "scan went backwards in time";
      last = count;
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(CollectBranch(db.get(), hot).size(),
            static_cast<size_t>(kTxns * kBatch));
}

// A cursor snapshots at open: rows applied to the branch afterwards do
// not appear mid-iteration.
TEST_P(ConcurrentEngineTest, CursorSnapshotsAtOpen) {
  ScratchDir dir("conc_openSnap");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  for (int64_t pk = 0; pk < 50; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 1)));
  }
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       db->NewScan(ScanSpec::Branch(kMasterBranch)));
  for (int64_t pk = 50; pk < 150; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 2)));
  }
  ScanRow row;
  size_t count = 0;
  while (cursor->Next(&row)) {
    EXPECT_LT(row.record.pk(), 50) << "cursor leaked a post-open row";
    ++count;
  }
  ASSERT_OK(cursor->status());
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(CollectBranch(db.get(), kMasterBranch).size(), 150u);
}

// A diff reads one snapshot of both heads. The writer deletes b's keys in
// ascending order, so every consistent diff(a, b) is the contiguous prefix
// of keys deleted so far, and no later answer is shorter than an earlier.
TEST_P(ConcurrentEngineTest, DiffSnapshotsBothHeads) {
  ScratchDir dir("conc_diff");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int64_t kKeys = 120;
  for (int64_t pk = 0; pk < kKeys; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 1)));
  }
  Session s = db->NewSession();
  ASSERT_OK_AND_ASSIGN(BranchId b, db->Branch("shrinking", &s));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t pk = 0; pk < kKeys; ++pk) {
      ASSERT_OK(db->DeleteFrom(b, pk));
      // Paced so that many diffs overlap the deletes.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    done.store(true);
  });

  std::thread reader([&] {
    size_t last = 0;
    while (!done.load()) {
      auto cursor = db->NewScan(ScanSpec::Diff(kMasterBranch, b));
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      std::set<int64_t> pks;
      ScanRow row;
      while ((*cursor)->Next(&row)) pks.insert(row.record.pk());
      ASSERT_OK((*cursor)->status());
      const int64_t n = static_cast<int64_t>(pks.size());
      EXPECT_TRUE(pks.empty() || (*pks.begin() == 0 && *pks.rbegin() == n - 1))
          << "diff is not a key prefix: " << n << " keys";
      EXPECT_GE(pks.size(), last) << "diff went backwards in time";
      last = pks.size();
    }
  });

  writer.join();
  reader.join();
  ASSERT_OK_AND_ASSIGN(auto cursor,
                       db->NewScan(ScanSpec::Diff(kMasterBranch, b)));
  size_t count = 0;
  ScanRow row;
  while (cursor->Next(&row)) ++count;
  EXPECT_EQ(count, static_cast<size_t>(kKeys));
}

// Merges (multi-stripe, registry-exclusive) race writers on unrelated
// branches and each other. The ordered stripe acquisition must keep the
// whole mix deadlock-free and every merge must land its source rows.
TEST_P(ConcurrentEngineTest, ConcurrentMergesAndWritersDoNotDeadlock) {
  ScratchDir dir("conc_merge");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  for (int64_t pk = 0; pk < 20; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  // Two merge pairs plus two independent writer branches.
  Session s = db->NewSession();
  std::vector<BranchId> b(6);
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(db->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(b[i], db->Branch("m" + std::to_string(i), &s));
  }
  ASSERT_OK(db->InsertInto(b[1], MakeRecord(schema, 101, 11)));
  ASSERT_OK(db->InsertInto(b[3], MakeRecord(schema, 103, 13)));

  auto merge = [&](int into, int from) {
    auto m = db->Merge(b[into], b[from], MergePolicy::kThreeWayLeft);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
  };
  auto write = [&](int w) {
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_OK(db->InsertInto(b[w], MakeRecord(schema, 1000 * w + i, w)));
    }
  };
  std::thread m1(merge, 0, 1);
  std::thread m2(merge, 2, 3);
  std::thread w1(write, 4);
  std::thread w2(write, 5);
  m1.join();
  m2.join();
  w1.join();
  w2.join();

  EXPECT_EQ(CollectBranch(db.get(), b[0]).count(101), 1u);
  EXPECT_EQ(CollectBranch(db.get(), b[2]).count(103), 1u);
  EXPECT_EQ(CollectBranch(db.get(), b[4]).size(), 120u);
  EXPECT_EQ(CollectBranch(db.get(), b[5]).size(), 120u);
}

// Forks share the parent's frozen pk-index layers with the child. Writers
// on two siblings update, delete and insert over their inherited keys
// while another thread keeps writing to the shared parent and forking
// from it, so every fork freezes (and may fold) the parent's chain as the
// siblings read layers it shares with them. Every branch must end up with
// exactly its own writes.
TEST_P(ConcurrentEngineTest, ForksWhileSiblingsWrite) {
  ScratchDir dir("conc_fork");
  const Schema schema = TestSchema(2);
  auto db = Decibel::Open(dir.path(), schema, Options()).MoveValueUnsafe();

  constexpr int64_t kBase = 200;
  constexpr int kForks = 40;
  for (int64_t pk = 0; pk < kBase; ++pk) {
    ASSERT_OK(db->InsertInto(kMasterBranch, MakeRecord(schema, pk, 0)));
  }
  Session s = db->NewSession();
  std::vector<BranchId> writers(2);
  for (int w = 0; w < 2; ++w) {
    ASSERT_OK(db->Use(&s, kMasterBranch));
    ASSERT_OK_AND_ASSIGN(writers[w],
                         db->Branch("writer" + std::to_string(w), &s));
  }

  auto write = [&](int w) {
    const BranchId b = writers[w];
    const int64_t value = w + 1;
    for (int64_t pk = 0; pk < kBase; ++pk) {
      ASSERT_OK(db->UpdateIn(b, MakeRecord(schema, pk, value)));
      if (pk % 10 == 0) ASSERT_OK(db->DeleteFrom(b, pk));
      ASSERT_OK(db->InsertInto(b, MakeRecord(schema, 1000 * value + pk, value)));
      EXPECT_EQ(db->Get(b, pk).status().IsNotFound(), pk % 10 == 0);
      ASSERT_OK_AND_ASSIGN(Record got, db->Get(b, 1000 * value + pk));
      EXPECT_EQ(got.pk(), 1000 * value + pk);
    }
  };
  std::vector<BranchId> forks;
  std::thread forker([&] {
    Session fs = db->NewSession();
    for (int i = 0; i < kForks; ++i) {
      ASSERT_OK(db->InsertInto(kMasterBranch,
                               MakeRecord(schema, 100000 + i, 9)));
      ASSERT_OK(db->Use(&fs, kMasterBranch));
      ASSERT_OK_AND_ASSIGN(BranchId child,
                           db->Branch("fork" + std::to_string(i), &fs));
      forks.push_back(child);
    }
  });
  std::thread w0(write, 0);
  std::thread w1(write, 1);
  forker.join();
  w0.join();
  w1.join();

  for (int w = 0; w < 2; ++w) {
    const auto rows = CollectBranch(db.get(), writers[w]);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kBase - kBase / 10 + kBase))
        << "writer " << w;
    for (const auto& [pk, value] : rows) {
      EXPECT_EQ(value, w + 1) << "writer " << w << " pk " << pk;
      EXPECT_FALSE(pk < kBase && pk % 10 == 0) << "deleted pk " << pk;
    }
    for (int64_t pk = 0; pk < kBase; pk += 10) {
      EXPECT_TRUE(db->Get(writers[w], pk).status().IsNotFound());
    }
  }
  for (int i = 0; i < kForks; ++i) {
    const auto rows = CollectBranch(db.get(), forks[i]);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kBase + i + 1)) << "fork " << i;
    for (int64_t pk = 0; pk < kBase; ++pk) EXPECT_EQ(rows.at(pk), 0);
    ASSERT_OK_AND_ASSIGN(Record got, db->Get(forks[i], 100000 + i));
    EXPECT_EQ(got.pk(), 100000 + i);
    EXPECT_TRUE(db->Get(forks[i], 100000 + i + 1).status().IsNotFound());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ConcurrentEngineTest,
                         ::testing::Values(EngineType::kTupleFirst,
                                           EngineType::kVersionFirst,
                                           EngineType::kHybrid),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineType::kTupleFirst:
                               return "TupleFirst";
                             case EngineType::kVersionFirst:
                               return "VersionFirst";
                             default:
                               return "Hybrid";
                           }
                         });

// ------------------------------------------------- LockManager FIFO order

/// Spins until \p locks reports \p n waiters on \p branch (bounded).
void WaitForWaiters(const LockManager& locks, BranchId branch, size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (locks.WaitingCount(branch) < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(locks.WaitingCount(branch), n);
}

// A queued exclusive waiter is granted before shared requests that arrive
// after it: late readers park behind the writer instead of slipping past
// while the lock is still share-held.
TEST(LockManagerFifoTest, LateReadersDoNotStarveQueuedWriter) {
  LockManager locks(std::chrono::milliseconds(10000));
  constexpr BranchId kBranch = 7;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kShared));

  std::atomic<int> order{0};
  std::atomic<int> writer_turn{-1};
  std::atomic<int> reader_turn{-1};

  std::thread writer([&] {
    ASSERT_OK(locks.Acquire(2, kBranch, LockMode::kExclusive));
    writer_turn = order.fetch_add(1);
    locks.Release(2, kBranch);
  });
  WaitForWaiters(locks, kBranch, 1);

  // The lock is only share-held, so this shared request is compatible
  // with the current holders — but the FIFO queue makes it wait its turn
  // behind the exclusive waiter.
  std::thread reader([&] {
    ASSERT_OK(locks.Acquire(3, kBranch, LockMode::kShared));
    reader_turn = order.fetch_add(1);
    locks.Release(3, kBranch);
  });
  WaitForWaiters(locks, kBranch, 2);

  locks.Release(1, kBranch);
  writer.join();
  reader.join();
  EXPECT_LT(writer_turn.load(), reader_turn.load());
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

// A release grants a maximal run of shared waiters at once, and an
// exclusive waiter behind them waits for the whole run to drain.
TEST(LockManagerFifoTest, ReleaseGrantsSharedRunThenExclusive) {
  LockManager locks(std::chrono::milliseconds(10000));
  constexpr BranchId kBranch = 9;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kExclusive));

  std::atomic<int> readers_in{0};
  std::atomic<bool> writer_in{false};
  std::mutex gate;  // holds the granted readers inside their section
  gate.lock();

  std::vector<std::thread> readers;
  readers.reserve(3);
  for (uint64_t owner = 2; owner <= 4; ++owner) {
    readers.emplace_back([&, owner] {
      ASSERT_OK(locks.Acquire(owner, kBranch, LockMode::kShared));
      readers_in.fetch_add(1);
      gate.lock();
      gate.unlock();
      locks.Release(owner, kBranch);
    });
    WaitForWaiters(locks, kBranch, owner - 1);
  }
  std::thread writer([&] {
    ASSERT_OK(locks.Acquire(5, kBranch, LockMode::kExclusive));
    writer_in = true;
    locks.Release(5, kBranch);
  });
  WaitForWaiters(locks, kBranch, 4);

  locks.Release(1, kBranch);  // one release wakes the whole shared run
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (readers_in.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(readers_in.load(), 3);
  EXPECT_FALSE(writer_in.load());  // still parked behind the run
  gate.unlock();
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_TRUE(writer_in.load());
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

// A waiter that times out removes itself without wedging the queue: the
// waiters behind it still get granted.
TEST(LockManagerFifoTest, TimedOutWaiterUnblocksQueueBehindIt) {
  LockManager locks(std::chrono::milliseconds(500));
  constexpr BranchId kBranch = 11;
  ASSERT_OK(locks.Acquire(1, kBranch, LockMode::kShared));
  ASSERT_OK(locks.Acquire(2, kBranch, LockMode::kShared));

  // Owner 3 wants exclusive: blocked by two holders, it will time out.
  std::thread upgrader([&] {
    Status s = locks.Acquire(3, kBranch, LockMode::kExclusive);
    EXPECT_TRUE(s.IsAborted()) << s.ToString();
  });
  WaitForWaiters(locks, kBranch, 1);

  // Owner 4 queues a shared request behind the doomed writer. Its own
  // deadline lands well after owner 3's (both use the manager-wide
  // timeout, so the stagger below keeps the grant-on-departure path — not
  // a second timeout — the thing under test).
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  std::thread reader([&] {
    ASSERT_OK(locks.Acquire(4, kBranch, LockMode::kShared));
    locks.Release(4, kBranch);
  });
  WaitForWaiters(locks, kBranch, 2);

  upgrader.join();  // times out, departs, and re-grants the queue
  reader.join();    // granted despite never seeing a release
  locks.Release(1, kBranch);
  locks.Release(2, kBranch);
  EXPECT_FALSE(locks.IsLocked(kBranch));
}

}  // namespace
}  // namespace decibel
