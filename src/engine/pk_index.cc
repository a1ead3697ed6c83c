#include "engine/pk_index.h"

#include <algorithm>
#include <unordered_set>

namespace decibel {

bool PkIndex::FindInLayers(int64_t pk, Position* pos) const {
  for (const Layer* layer = top_.get(); layer != nullptr;
       layer = layer->below.get()) {
    if (pk < layer->min_pk || pk > layer->max_pk) continue;
    auto it = layer->entries.find(pk);
    if (it == layer->entries.end()) continue;
    if (it->second == kTombstone) return false;
    *pos = it->second;
    return true;
  }
  return false;
}

bool PkIndex::Find(int64_t pk, Position* pos) const {
  auto it = overlay_.find(pk);
  if (it == overlay_.end()) return FindInLayers(pk, pos);
  if (it->second == kTombstone) return false;
  *pos = it->second;
  return true;
}

bool PkIndex::Put(int64_t pk, Position pos, Position* old) {
  auto [it, inserted] = overlay_.try_emplace(pk, pos);
  if (inserted) {
    Note(pk);
    return FindInLayers(pk, old);
  }
  const bool live = it->second != kTombstone;
  if (live) *old = it->second;
  it->second = pos;
  return live;
}

bool PkIndex::Erase(int64_t pk, Position* old) {
  auto it = overlay_.find(pk);
  if (it == overlay_.end()) {
    if (!FindInLayers(pk, old)) return false;
    overlay_.emplace(pk, kTombstone);
    Note(pk);
    return true;
  }
  if (it->second == kTombstone) return false;
  *old = it->second;
  // A tombstone is needed only where a layer would otherwise show through.
  Position below = 0;
  if (FindInLayers(pk, &below)) {
    it->second = kTombstone;
  } else {
    overlay_.erase(it);
  }
  return true;
}

void PkIndex::Grow(Map* map, size_t n) {
  // unordered_map::reserve also shrinks the bucket array to the next
  // prime that fits, so calling it for every small batch would rehash the
  // map each time its size passes a prime. Grow only, and at least
  // double, as a plain insert would.
  const size_t want = map->size() + n;
  if (want > map->bucket_count() * map->max_load_factor()) {
    map->reserve(std::max(want, 2 * map->size()));
  }
}

void PkIndex::Clear() {
  *this = PkIndex();
}

size_t PkIndex::depth() const { return top_ == nullptr ? 0 : top_->depth; }

void PkIndex::Freeze() {
  if (overlay_.empty()) return;
  auto layer = std::make_shared<Layer>();
  layer->entries = std::move(overlay_);
  layer->min_pk = min_pk_;
  layer->max_pk = max_pk_;
  overlay_.clear();
  min_pk_ = std::numeric_limits<int64_t>::max();
  max_pk_ = std::numeric_limits<int64_t>::min();
  Map& entries = layer->entries;
  // Older entries go in only where the newer layers have none.
  auto absorb = [&layer, &entries](const Layer& older) {
    layer->min_pk = std::min(layer->min_pk, older.min_pk);
    layer->max_pk = std::max(layer->max_pk, older.max_pk);
    Grow(&entries, older.entries.size());
    for (const auto& [pk, pos] : older.entries) entries.try_emplace(pk, pos);
  };
  std::shared_ptr<const Layer> below = top_;
  const Layer* base = below.get();
  while (base != nullptr && base->below != nullptr) base = base->below.get();
  const size_t above_base = entries.size() + (below ? below->above_base : 0);
  if (base != nullptr && above_base * 4 >= base->entries.size()) {
    // Rebuild the whole chain as one base. Nothing lies below it, so its
    // tombstones have nothing left to hide.
    for (; below != nullptr; below = below->below) absorb(*below);
    for (auto it = entries.begin(); it != entries.end();) {
      it = it->second == kTombstone ? entries.erase(it) : std::next(it);
    }
  } else {
    while (below != nullptr && below->below != nullptr &&
           (below->entries.size() <= 2 * entries.size() ||
            below->depth + 1 > kMaxLayers)) {
      absorb(*below);
      below = below->below;
    }
  }
  layer->below = below;
  layer->depth = below == nullptr ? 1 : below->depth + 1;
  layer->above_base =
      below == nullptr ? 0 : entries.size() + below->above_base;
  top_ = std::move(layer);
}

PkIndex PkIndex::Fork() {
  Freeze();
  PkIndex child;
  child.top_ = top_;
  return child;
}

uint64_t PkIndex::MapBytes(const Map& map) {
  // libstdc++ keeps each entry in its own node (a next pointer plus the
  // pair), which glibc malloc rounds up to 16 bytes with one size word.
  constexpr uint64_t kNode =
      (sizeof(void*) + sizeof(Map::value_type) + sizeof(size_t) + 15) / 16 *
      16;
  return map.size() * kNode + map.bucket_count() * sizeof(void*);
}

uint64_t PkIndex::MemoryBytes(const std::vector<const PkIndex*>& indexes) {
  std::unordered_set<const Layer*> seen;
  uint64_t bytes = 0;
  for (const PkIndex* index : indexes) {
    bytes += MapBytes(index->overlay_);
    // A layer already counted was counted with everything below it.
    for (const Layer* layer = index->top_.get();
         layer != nullptr && seen.insert(layer).second;
         layer = layer->below.get()) {
      bytes += sizeof(Layer) + MapBytes(layer->entries);
    }
  }
  return bytes;
}

}  // namespace decibel
