#include "serve/artifact_cache.hh"

namespace membw {

void
ArtifactCache::insert(const std::string &key,
                      std::shared_ptr<const void> ptr,
                      std::size_t bytes)
{
    // Oversized artifacts (or a zero-byte cache) pass through
    // uncached rather than flushing everything else.
    if (bytes > maxBytes_)
        return;
    evictFor(bytes);
    Entry e;
    e.ptr = std::move(ptr);
    e.bytes = bytes;
    e.lru = lru_.insert(lru_.end(), key);
    entries_.emplace(key, std::move(e));
    bytes_ += bytes;
}

void
ArtifactCache::recost(const std::string &key, std::size_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return;
    bytes_ = bytes_ - it->second.bytes + bytes;
    it->second.bytes = bytes;
    evictFor(0);
}

void
ArtifactCache::evictFor(std::size_t incoming)
{
    while (bytes_ + incoming > maxBytes_ && !lru_.empty()) {
        const std::string victim = lru_.front();
        lru_.pop_front();
        auto it = entries_.find(victim);
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        ++evictions_;
    }
}

} // namespace membw
