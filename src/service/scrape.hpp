#pragma once

#include "obs/log_histogram.hpp"
#include "service/json.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lph {
namespace service {

/// One worker's parsed `{"type":"stats","detail":"full"}` response: identity,
/// the flat service.* metric snapshot, and the bucket-level histograms.
/// The scrape protocol (DESIGN.md "Observability") is just the wire stats
/// response — there is no side channel; anything lph_top can aggregate, any
/// client can read.
struct WorkerSnapshot {
    std::int64_t pid = 0;
    std::uint64_t generation = 0;
    double uptime_ms = 0;
    int worker_index = -1; ///< -1 = standalone (no supervisor identity)
    std::map<std::string, double> metrics;
    std::map<std::string, obs::LogHistogram> histograms;

    /// Convenience lookup into `metrics`; fallback when absent.
    double metric(const std::string& name, double fallback = 0.0) const;
};

/// Rebuilds a LogHistogram from its wire form
/// {"count":N,"sum":S,"min":m,"max":M,"buckets":[[index,count],...]}.
/// Throws precondition_error on malformed input or when the bucket counts
/// do not add up to "count" (a merge over inconsistent data would silently
/// produce wrong percentiles).
obs::LogHistogram parse_log_histogram(const JsonValue& value);

/// Parses one full-stats wire response line into a snapshot; nullopt when
/// the line is not an ok stats response carrying a metrics object.
std::optional<WorkerSnapshot> parse_worker_snapshot(const std::string& line);

/// The cluster-wide aggregate lph_top renders: one snapshot per distinct
/// worker pid, counters summed, histograms merged bucket-by-bucket (the
/// merge is associative and commutative, so scrape order cannot matter).
struct ClusterView {
    std::vector<WorkerSnapshot> workers; ///< sorted by pid
    std::map<std::string, double> summed_metrics;
    std::map<std::string, obs::LogHistogram> histograms;
};

/// Merges worker snapshots (deduplicated by pid, last one wins) into a
/// cluster view.  Every metric is summed — ratio metrics (hit_rate,
/// dirty_fraction) must be recomputed from the summed numerators and
/// denominators by the consumer, not read from summed_metrics.
ClusterView merge_workers(std::vector<WorkerSnapshot> snapshots);

} // namespace service
} // namespace lph
