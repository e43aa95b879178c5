#include "src/kvcache/offload_directory.h"

#include "src/common/fault.h"

namespace prefillonly {

void OffloadDirectory::Touch(std::unordered_map<uint64_t, Entry>::iterator it,
                             uint64_t stamp) {
  if (it->second.lru_pos != lru_.end()) {
    lru_.erase(it->second.lru_pos);
  }
  it->second.last_use = stamp;
  // Keep the list sorted by stamp (oldest at the front), deepest first on
  // ties so the shareable shallow blocks outlive deep suffix blocks — the
  // same policy the old per-insert victim scan implemented in O(n). The
  // simulator may drive stamps out of order via SetClock; with monotone
  // stamps this walk is O(1).
  auto pos = lru_.end();
  while (pos != lru_.begin()) {
    auto prev = std::prev(pos);
    const Entry& other = entries_.at(*prev);
    if (other.last_use > stamp ||
        (other.last_use == stamp && other.depth < it->second.depth)) {
      pos = prev;
    } else {
      break;
    }
  }
  it->second.lru_pos = lru_.insert(pos, it->first);
}

std::optional<uint64_t> OffloadDirectory::Insert(uint64_t hash, int64_t depth) {
  if (capacity_blocks_ <= 0) {
    return std::nullopt;
  }
  const uint64_t stamp = NextStamp();
  auto [it, inserted] = entries_.try_emplace(hash, Entry{depth, stamp, lru_.end()});
  Touch(it, stamp);
  if (!inserted) {
    return std::nullopt;
  }
  ++insertions_;
  if (static_cast<int64_t>(entries_.size()) <= capacity_blocks_) {
    return std::nullopt;
  }
  // LRU victim in O(1): the front of the stamp-sorted list — skipping the
  // entry just inserted, which is never evicted by its own insert.
  auto victim_pos = lru_.begin();
  if (*victim_pos == hash) {
    ++victim_pos;
  }
  const uint64_t evicted = *victim_pos;
  lru_.erase(victim_pos);
  entries_.erase(evicted);
  ++evictions_;
  return evicted;
}

int64_t OffloadDirectory::MatchContinuation(std::span<const uint64_t> chain,
                                            int64_t start_index) {
  // An injected read error makes the offload tier unreadable for this
  // lookup; the caller treats it as a miss and recomputes the blocks.
  if (FaultInjector::Global().Fire(fault::kOffloadRead)) {
    return 0;
  }
  const uint64_t stamp = NextStamp();
  int64_t matched = 0;
  for (size_t i = static_cast<size_t>(start_index); i < chain.size(); ++i) {
    auto it = entries_.find(chain[i]);
    if (it == entries_.end()) {
      break;
    }
    Touch(it, stamp);
    ++matched;
  }
  return matched;
}

int64_t OffloadDirectory::PeekContinuation(std::span<const uint64_t> chain,
                                           int64_t start_index) const {
  int64_t matched = 0;
  for (size_t i = static_cast<size_t>(start_index); i < chain.size(); ++i) {
    if (!entries_.contains(chain[i])) {
      break;
    }
    ++matched;
  }
  return matched;
}

}  // namespace prefillonly
