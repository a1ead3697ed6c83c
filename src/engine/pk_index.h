#ifndef DECIBEL_ENGINE_PK_INDEX_H_
#define DECIBEL_ENGINE_PK_INDEX_H_

/// \file pk_index.h
/// The primary-key index every engine keeps per branch: pk -> the position
/// of the key's live record at the branch head, which is what lets an
/// update find (and unset) the version it replaces and makes Get a point
/// lookup. A position is one 64-bit value: tuple-first's global record
/// index, or a segment engine's (segment, record) pair packed by Pack.
///
/// A branch's index is a small mutable *overlay* over a chain of frozen,
/// shared *layers*. A fork freezes the parent's overlay into a new layer
/// and gives the child an empty overlay over the same chain (Fork), so a
/// branch costs O(1) in the table's size — the index counterpart of §3.2's
/// "clones the state of the parent branch's bitmap". A delete of a key a
/// layer holds writes a tombstone into the overlay. Lookups read the
/// overlay, then the layers newest to oldest; the first entry found (live
/// or tombstone) decides. Each layer keeps the range of keys it holds, so
/// a lookup skips a layer without probing it when the key lies outside:
/// a fresh insert of a key past every existing one, the usual case, then
/// costs no more than with a single map.
///
/// Freezing also folds the chain so lookups stay short: the new layer
/// absorbs the layers below it while they are no more than twice its size
/// or the chain would pass kMaxLayers, and the whole chain is rebuilt as
/// one base layer once the layers above the base hold a quarter of the
/// base's entries. Each written entry is thus copied a bounded number of
/// times per doubling of the table, and the base only when a fixed
/// fraction of it has changed.
///
/// Thread safety: a PkIndex is per-branch state; the owning engine guards
/// each one with the branch's lock, and Fork with a lock that excludes
/// every other use of the parent. Layers are never mutated once frozen,
/// so chains shared by sibling branches are read without any lock, and a
/// layer lives as long as any branch (or newer layer) refers to it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace decibel {

class PkIndex {
 public:
  using Position = uint64_t;

  /// Segment engines pack (segment, record index) into one Position: the
  /// segment in the top kSegmentBits, the record index below.
  static constexpr int kIndexBits = 40;
  static constexpr int kSegmentBits = 64 - kIndexBits;
  /// The largest segment id Pack accepts; engines refuse to create more.
  static constexpr uint32_t kMaxSegment = (1u << kSegmentBits) - 2;
  static Position Pack(uint32_t segment, uint64_t index) {
    DECIBEL_CHECK(segment <= kMaxSegment &&
                  index < (uint64_t{1} << kIndexBits));
    return (static_cast<uint64_t>(segment) << kIndexBits) | index;
  }
  static uint32_t SegmentOf(Position pos) {
    return static_cast<uint32_t>(pos >> kIndexBits);
  }
  static uint64_t IndexOf(Position pos) {
    return pos & ((uint64_t{1} << kIndexBits) - 1);
  }

  /// Chains longer than this (frozen layers, the base included) fold.
  static constexpr size_t kMaxLayers = 8;

  /// The live position of \p pk; false if the key is absent or deleted.
  bool Find(int64_t pk, Position* pos) const;
  bool Contains(int64_t pk) const {
    Position pos = 0;
    return Find(pk, &pos);
  }
  /// Points \p pk at \p pos.
  void Set(int64_t pk, Position pos) {
    overlay_[pk] = pos;
    Note(pk);
  }
  /// Points \p pk at \p pos. Returns true, with the position it replaced
  /// in *\p old, if the key was live.
  bool Put(int64_t pk, Position pos, Position* old);
  /// Deletes \p pk. Returns true, with its last position in *\p old, if
  /// the key was live; false (and no change) otherwise.
  bool Erase(int64_t pk, Position* old);
  /// Makes room in the overlay for \p n more keys.
  void Reserve(size_t n) { Grow(&overlay_, n); }
  /// Empties the index (the layers it shared stay with their other users).
  void Clear();

  /// Freezes this index's overlay into a shared layer and returns a new
  /// index with the same contents over the same chain. The cost is
  /// independent of the table's size, apart from the amortized folds.
  PkIndex Fork();

  /// Frozen layers in this index's chain.
  size_t depth() const;

  /// Heap bytes of \p indexes together: each overlay, plus each frozen
  /// layer once however many of the chains share it — node and bucket
  /// arrays as the standard library and the allocator lay them out.
  static uint64_t MemoryBytes(const std::vector<const PkIndex*>& indexes);

 private:
  using Map = std::unordered_map<int64_t, Position>;
  /// Marks a deleted key in an overlay or layer; Pack never produces it.
  static constexpr Position kTombstone = ~Position{0};

  struct Layer {
    Map entries;
    std::shared_ptr<const Layer> below;  ///< older layer, null for the base
    size_t depth = 1;                    ///< layers from here to the base
    size_t above_base = 0;  ///< entries here and below, the base's excluded
    int64_t min_pk = 0;     ///< every key in entries is in [min_pk, max_pk]
    int64_t max_pk = 0;
  };

  /// The live position of \p pk in the frozen chain alone.
  bool FindInLayers(int64_t pk, Position* pos) const;
  /// Moves the overlay into a new top layer, folding as described above.
  void Freeze();
  /// Makes room in \p map for \p n more keys, never shrinking it.
  static void Grow(Map* map, size_t n);
  static uint64_t MapBytes(const Map& map);
  /// Widens the overlay's key range to cover \p pk.
  void Note(int64_t pk) {
    min_pk_ = std::min(min_pk_, pk);
    max_pk_ = std::max(max_pk_, pk);
  }

  Map overlay_;
  /// Covers every key the overlay has held since it was last emptied.
  int64_t min_pk_ = std::numeric_limits<int64_t>::max();
  int64_t max_pk_ = std::numeric_limits<int64_t>::min();
  std::shared_ptr<const Layer> top_;
};

}  // namespace decibel

#endif  // DECIBEL_ENGINE_PK_INDEX_H_
