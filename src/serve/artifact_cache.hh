/**
 * @file
 * Content-addressed LRU cache for immutable simulation artifacts.
 *
 * The daemon's warm path lives here: traces keyed by
 * (workload, scale, seed), BlockStreams by (trace CRC, block size),
 * Mattson stack-distance profiles and MTC next-use tables by
 * (trace CRC, granularity), instruction streams by
 * (workload, scale, seed).  Everything stored is immutable and
 * handed out as shared_ptr<const T>, so an entry can be evicted
 * while a request still computes over it — the bytes stay alive
 * until the last reader drops its reference.
 *
 * A next-use table also memoises its MIN level run once a sweep has
 * queried it; the owner re-costs such an entry with recost().
 *
 * Eviction is size-bounded LRU over the caller-estimated byte cost.
 * Counters (hits, misses, evictions, bytes resident) feed the
 * daemon's `stats` op and the stats-registry export.
 *
 * Thread safety: every public method locks; getOrBuild() holds the
 * lock across the builder, which serializes builds.  That is the
 * intended admission behaviour — the daemon executes requests one at
 * a time, and two threads racing to build the same trace would waste
 * the work the cache exists to save.
 */

#ifndef MEMBW_SERVE_ARTIFACT_CACHE_HH
#define MEMBW_SERVE_ARTIFACT_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace membw {

class ArtifactCache
{
  public:
    /** @p maxBytes bounds the estimated resident total; 0 disables
     * caching entirely (every lookup misses and nothing is kept). */
    explicit ArtifactCache(std::size_t maxBytes)
        : maxBytes_(maxBytes)
    {
    }

    /** A built artifact plus its estimated resident byte cost. */
    template <typename T>
    using Built = std::pair<std::shared_ptr<const T>, std::size_t>;

    /**
     * Return the cached artifact under @p key, or invoke @p build,
     * cache the result, and return it.  An artifact larger than the
     * whole cache is returned uncached.
     */
    template <typename T>
    std::shared_ptr<const T>
    getOrBuild(const std::string &key,
               const std::function<Built<T>()> &build)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = entries_.find(key); it != entries_.end()) {
            ++hits_;
            touch(it->second);
            return std::static_pointer_cast<const T>(it->second.ptr);
        }
        ++misses_;
        auto [ptr, bytes] = build();
        insert(key, std::static_pointer_cast<const void>(ptr), bytes);
        return ptr;
    }

    /**
     * Set the byte cost of the entry under @p key to @p bytes, for an
     * artifact that grew after it was cached, evicting least recently
     * used entries (it included) while over the bound.  No-op when
     * the key is no longer cached.
     */
    void recost(const std::string &key, std::size_t bytes);

    std::uint64_t hits() const { return counter(hits_); }
    std::uint64_t misses() const { return counter(misses_); }
    std::uint64_t evictions() const { return counter(evictions_); }
    std::uint64_t
    bytesResident() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }
    std::size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    struct Entry
    {
        std::shared_ptr<const void> ptr;
        std::size_t bytes = 0;
        std::list<std::string>::iterator lru;
    };

    /** Move @p e to the most-recently-used end. */
    void touch(Entry &e) { lru_.splice(lru_.end(), lru_, e.lru); }

    void insert(const std::string &key, std::shared_ptr<const void> ptr,
                std::size_t bytes);

    /** Evict least recently used entries until @p incoming more
     * bytes fit the bound. */
    void evictFor(std::size_t incoming);

    std::uint64_t
    counter(const std::uint64_t &c) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return c;
    }

    const std::size_t maxBytes_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< front = least recently used
    std::size_t bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace membw

#endif // MEMBW_SERVE_ARTIFACT_CACHE_HH
