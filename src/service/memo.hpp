#pragma once

#include "obs/metrics.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lph {
namespace service {

/// Counters of a ResultMemo; all monotone except `entries`.
struct ResultMemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidated = 0;
    std::uint64_t entries = 0;

    double hit_rate() const {
        const double total = static_cast<double>(hits + misses);
        return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }

    /// Metric list under the `memo.` naming scheme, absorbed into the
    /// session registry by ServiceCore::publish_metrics — the same snapshot
    /// path the engine's GameStats/VerdictTable::Stats rows already use.
    obs::MetricList to_metrics() const;
};

/// Thread-safe bounded map from request memo keys (Request::memo_key) to
/// rendered response bodies.  The engine's verdict table deduplicates node
/// views across leaves and solves; this deduplicates entire requests
/// *across* clients.
/// Only clean ("ok") results are ever inserted, so a hit can be replayed
/// verbatim under any deadline.
class ResultMemo {
public:
    explicit ResultMemo(std::size_t max_entries = 1 << 12);

    /// Returns the memoized response body, refreshing its LRU position.
    std::optional<std::string> lookup(const std::string& key);

    /// Inserts (or refreshes) a body, evicting the shard's LRU tail when the
    /// shard is over budget.
    void insert(const std::string& key, const std::string& body);

    /// Drops every entry whose memo key embeds `digest` (game/logic/decide
    /// keys end in "|<digest>").  graph_patch calls this when a resident
    /// graph's content changes so a patched graph can never be served a
    /// pre-patch body, even if a same-digest graph is re-registered later.
    std::size_t invalidate_digest(std::uint64_t digest);

    ResultMemoStats stats() const;
    void clear();

    /// Every live entry, oldest-first (per shard, shards concatenated), so
    /// that replaying them through restore() reproduces the LRU recency
    /// order.  Snapshot support (service/snapshot.hpp).
    std::vector<std::pair<std::string, std::string>> export_entries() const;

    /// Re-inserts snapshot entries without touching the hit/miss counters —
    /// a warm start must not look like traffic.  Returns how many entries
    /// were admitted (capacity may have shrunk since the snapshot).
    std::size_t restore(
        const std::vector<std::pair<std::string, std::string>>& entries);

private:
    struct Shard {
        mutable std::mutex mutex;
        /// Front = most recently used.
        std::list<std::pair<std::string, std::string>> lru;
        std::unordered_map<std::string,
                           std::list<std::pair<std::string, std::string>>::iterator>
            index;
    };

    static constexpr std::size_t kShards = 8;
    Shard& shard_for(const std::string& key);

    std::array<Shard, kShards> shards_;
    std::size_t max_entries_per_shard_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> invalidated_{0};
};

} // namespace service
} // namespace lph
