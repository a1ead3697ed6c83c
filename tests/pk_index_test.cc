/// Unit tests of the layered primary-key index (engine/pk_index.h): the
/// overlay shadows the frozen layers, tombstones hide inherited keys, a
/// fork freezes the parent's overlay into a layer both sides share, folds
/// keep every lookup's answer, key ranges skip only layers that cannot
/// hold the key, and a layer outlives the branch that froze it.

#include "engine/pk_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"

namespace decibel {
namespace {

using Position = PkIndex::Position;

/// True if \p pk is live in \p index at \p want.
bool Has(const PkIndex& index, int64_t pk, Position want) {
  Position got = 0;
  return index.Find(pk, &got) && got == want;
}

TEST(PkIndexTest, PutFindEraseOnOneOverlay) {
  PkIndex index;
  Position old = 0;
  EXPECT_FALSE(index.Put(7, 70, &old));
  EXPECT_TRUE(Has(index, 7, 70));
  EXPECT_TRUE(index.Put(7, 71, &old));
  EXPECT_EQ(old, 70u);
  EXPECT_TRUE(index.Erase(7, &old));
  EXPECT_EQ(old, 71u);
  EXPECT_FALSE(index.Contains(7));
  EXPECT_FALSE(index.Erase(7, &old));
  EXPECT_EQ(index.depth(), 0u);
}

TEST(PkIndexTest, OverlayShadowsInheritedLayer) {
  PkIndex parent;
  Position old = 0;
  parent.Put(1, 10, &old);
  parent.Put(2, 20, &old);
  PkIndex child = parent.Fork();
  EXPECT_TRUE(child.Put(1, 11, &old));
  EXPECT_EQ(old, 10u) << "the replaced position comes from the layer";
  EXPECT_TRUE(Has(child, 1, 11));
  EXPECT_TRUE(Has(child, 2, 20));
  EXPECT_TRUE(Has(parent, 1, 10)) << "a child write leaked into its parent";
  EXPECT_TRUE(parent.Put(2, 21, &old));
  EXPECT_TRUE(Has(child, 2, 20)) << "a parent write leaked into its child";
  child.Set(2, 22);
  EXPECT_TRUE(Has(child, 2, 22));
  EXPECT_TRUE(Has(parent, 2, 21));
}

TEST(PkIndexTest, TombstoneHidesInheritedKey) {
  PkIndex parent;
  Position old = 0;
  parent.Put(5, 50, &old);
  PkIndex child = parent.Fork();
  EXPECT_TRUE(child.Erase(5, &old));
  EXPECT_EQ(old, 50u);
  EXPECT_FALSE(child.Contains(5));
  EXPECT_FALSE(child.Erase(5, &old)) << "a tombstone is not a live key";
  EXPECT_TRUE(Has(parent, 5, 50));
  // The tombstone freezes with the child's overlay and keeps hiding the
  // key from the child's own forks.
  PkIndex grandchild = child.Fork();
  EXPECT_FALSE(grandchild.Contains(5));
  EXPECT_FALSE(grandchild.Put(5, 52, &old)) << "re-insert over a tombstone";
  EXPECT_TRUE(Has(grandchild, 5, 52));
  EXPECT_FALSE(child.Contains(5));
}

TEST(PkIndexTest, KeyRangesSkipOnlyLayersThatCannotHoldTheKey) {
  PkIndex base;
  Position old = 0;
  for (int64_t pk = -50; pk < 50; ++pk) base.Put(pk, 1000 + pk, &old);
  // The child's layer holds keys -10 (a tombstone), 0 and 10 (a Set), so
  // its range is [-10, 10]: its edges must be answered by it, and keys
  // outside it by the base.
  PkIndex child = base.Fork();
  child.Erase(-10, &old);
  child.Put(0, 1, &old);
  child.Set(10, 2);
  PkIndex grandchild = child.Fork();
  ASSERT_EQ(grandchild.depth(), 2u);
  EXPECT_FALSE(grandchild.Contains(-10));
  EXPECT_TRUE(Has(grandchild, 0, 1));
  EXPECT_TRUE(Has(grandchild, 10, 2));
  for (int64_t pk : {-50, -11, -9, 9, 11, 49}) {
    EXPECT_TRUE(Has(grandchild, pk, 1000 + pk)) << pk;
  }
  EXPECT_FALSE(grandchild.Contains(-51));
  EXPECT_FALSE(grandchild.Contains(50));
}

TEST(PkIndexTest, ForkFreezesParentOverlay) {
  PkIndex parent;
  Position old = 0;
  for (int64_t pk = 0; pk < 100; ++pk) parent.Put(pk, pk, &old);
  PkIndex child = parent.Fork();
  EXPECT_EQ(parent.depth(), 1u);
  EXPECT_EQ(child.depth(), 1u);
  // Both sides now read one shared layer: counted once, not twice.
  EXPECT_LT(PkIndex::MemoryBytes({&parent, &child}),
            PkIndex::MemoryBytes({&parent}) + PkIndex::MemoryBytes({&child}));
  // Forking with an empty overlay adds no layer.
  PkIndex sibling = parent.Fork();
  EXPECT_EQ(parent.depth(), 1u);
  for (int64_t pk = 0; pk < 100; ++pk) {
    EXPECT_TRUE(Has(child, pk, pk));
    EXPECT_TRUE(Has(sibling, pk, pk));
  }
}

TEST(PkIndexTest, LayerOutlivesRetiredBranch) {
  auto parent = std::make_unique<PkIndex>();
  Position old = 0;
  for (int64_t pk = 0; pk < 50; ++pk) parent->Put(pk, 1000 + pk, &old);
  PkIndex child = parent->Fork();
  parent->Put(0, 1, &old);
  PkIndex sibling = parent->Fork();
  parent.reset();
  for (int64_t pk = 0; pk < 50; ++pk) {
    EXPECT_TRUE(Has(child, pk, 1000 + pk));
    EXPECT_TRUE(Has(sibling, pk, pk == 0 ? 1 : 1000 + pk));
  }
  child.Clear();
  EXPECT_FALSE(child.Contains(1));
  EXPECT_TRUE(Has(sibling, 1, 1001));
}

// Writes over a tree of forks, compared with a std::map model per branch:
// the folds that keep chains short must never change an answer, on any
// branch. First one lineage over a large base writes a third as much
// per generation, so its layers cannot absorb each other by size and its
// chain reaches the depth bound; then random branches write random
// amounts.
class PkIndexForest {
 public:
  PkIndexForest() : indexes_(1), models_(1) {}

  size_t size() const { return indexes_.size(); }
  size_t max_depth() const { return max_depth_; }

  void Insert(size_t b, uint64_t n) {
    Position old = 0;
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_FALSE(indexes_[b].Put(next_pk_, next_pos_, &old));
      models_[b][next_pk_++] = next_pos_++;
    }
  }

  void Write(size_t b, uint64_t writes, Random* rng) {
    PkIndex& index = indexes_[b];
    std::map<int64_t, Position>& model = models_[b];
    for (uint64_t w = 0; w < writes; ++w) {
      const uint64_t kind = rng->Uniform(4);
      Position old = 0;
      if (kind == 0 || model.empty()) {
        const int64_t pk = next_pk_++;
        EXPECT_FALSE(index.Put(pk, next_pos_, &old));
        model[pk] = next_pos_++;
        continue;
      }
      auto it = model.begin();
      std::advance(it, rng->Uniform(model.size()));
      if (kind == 3) {
        ASSERT_TRUE(index.Erase(it->first, &old));
        EXPECT_EQ(old, it->second);
        model.erase(it);
      } else {
        ASSERT_TRUE(index.Put(it->first, next_pos_, &old));
        EXPECT_EQ(old, it->second);
        it->second = next_pos_++;
      }
    }
  }

  /// Forks branch \p b; returns the child's number.
  size_t Fork(size_t b) {
    PkIndex child = indexes_[b].Fork();
    std::map<int64_t, Position> child_model = models_[b];
    indexes_.push_back(std::move(child));
    models_.push_back(std::move(child_model));
    for (const PkIndex& index : indexes_) {
      EXPECT_LE(index.depth(), PkIndex::kMaxLayers);
      max_depth_ = std::max(max_depth_, index.depth());
    }
    return indexes_.size() - 1;
  }

  void CheckAll() const {
    for (size_t b = 0; b < indexes_.size(); ++b) {
      for (int64_t pk = 0; pk < next_pk_; ++pk) {
        auto want = models_[b].find(pk);
        Position got = 0;
        const bool found = indexes_[b].Find(pk, &got);
        ASSERT_EQ(found, want != models_[b].end())
            << "branch " << b << " pk " << pk;
        if (found) {
          EXPECT_EQ(got, want->second) << "branch " << b << " pk " << pk;
        }
      }
    }
  }

 private:
  std::vector<PkIndex> indexes_;
  std::vector<std::map<int64_t, Position>> models_;
  int64_t next_pk_ = 0;
  Position next_pos_ = 0;
  size_t max_depth_ = 0;
};

TEST(PkIndexTest, FoldsPreserveEveryLookup) {
  Random rng(17);
  PkIndexForest forest;
  forest.Insert(0, 20000);
  size_t newest = 0;
  for (uint64_t writes = 2187; writes > 0; writes /= 3) {
    forest.Write(newest, writes, &rng);
    newest = forest.Fork(newest);
  }
  EXPECT_EQ(forest.max_depth(), PkIndex::kMaxLayers)
      << "the lineage never reached the depth bound";
  forest.CheckAll();
  for (int step = 0; step < 200; ++step) {
    const size_t b = rng.Uniform(forest.size());
    forest.Write(b, 1 + rng.Uniform(step % 40 == 0 ? 2000 : 16), &rng);
    if (forest.size() < 30 || rng.Uniform(4) == 0) forest.Fork(b);
    if (step % 100 == 99) forest.CheckAll();
  }
}

TEST(PkIndexTest, PackedPositionsRoundTrip) {
  const Position pos = PkIndex::Pack(PkIndex::kMaxSegment, 123456789);
  EXPECT_EQ(PkIndex::SegmentOf(pos), PkIndex::kMaxSegment);
  EXPECT_EQ(PkIndex::IndexOf(pos), 123456789u);
  const Position top =
      PkIndex::Pack(3, (uint64_t{1} << PkIndex::kIndexBits) - 1);
  EXPECT_EQ(PkIndex::SegmentOf(top), 3u);
  EXPECT_EQ(PkIndex::IndexOf(top), (uint64_t{1} << PkIndex::kIndexBits) - 1);
  PkIndex index;
  Position old = 0;
  index.Put(-4, pos, &old);
  EXPECT_TRUE(Has(index, -4, pos));
}

}  // namespace
}  // namespace decibel
