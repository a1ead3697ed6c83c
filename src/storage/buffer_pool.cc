#include "storage/buffer_pool.h"

#include <chrono>

namespace decibel {

Result<PageRef> BufferPool::GetPage(uint64_t file_id, uint64_t page_no,
                                    PageSource* source) {
  const Key key{file_id, page_no};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pages_.find(key);
    if (it != pages_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(it->second, key);
      return it->second.page;
    }
  }
  // Load outside the lock; concurrent loads of the same page are rare and
  // benign (first insert wins, both readers get valid pages).
  auto page = std::make_shared<std::string>();
  const auto start = std::chrono::steady_clock::now();
  const Status loaded = source->ReadPageFromDisk(page_no, page.get());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  misses_.fetch_add(1, std::memory_order_relaxed);
  miss_bytes_.fetch_add(page->size(), std::memory_order_relaxed);
  miss_load_ns_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
  DECIBEL_RETURN_NOT_OK(loaded);
  if (page->empty()) return PageRef();
  PageRef ref = std::move(page);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = pages_.try_emplace(key);
    if (inserted) {
      lru_.push_front(key);
      it->second.page = ref;
      it->second.lru_pos = lru_.begin();
      resident_bytes_ += ref->size();
      EvictIfNeededLocked();
    }
  }
  return ref;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.miss_bytes = miss_bytes_.load(std::memory_order_relaxed);
  s.miss_load_ns = miss_load_ns_.load(std::memory_order_relaxed);
  return s;
}

uint64_t BufferPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void BufferPool::TouchLocked(Entry& e, const Key& k) {
  lru_.erase(e.lru_pos);
  lru_.push_front(k);
  e.lru_pos = lru_.begin();
}

void BufferPool::EvictIfNeededLocked() {
  while (resident_bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = pages_.find(victim);
    resident_bytes_ -= it->second.page->size();
    pages_.erase(it);
  }
}

void BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

void BufferPool::EvictFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->file_id == file_id) {
      auto map_it = pages_.find(*it);
      resident_bytes_ -= map_it->second.page->size();
      pages_.erase(map_it);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace decibel
