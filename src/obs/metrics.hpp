#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/log_histogram.hpp"

namespace lph {
namespace obs {

/// Flat name -> value list, the interchange format between the stats structs
/// scattered across the engine (GameStats, VerdictTable::Stats, pool stats...) and
/// the registry.  Also exactly the shape of the `metrics` object on a BENCH
/// report row, so a snapshot can be dropped onto an Instance verbatim.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Thread-safe registry of named counters, gauges, and histograms.
///
/// Naming scheme (see DESIGN.md "Observability"): dot-separated
/// `<subsystem>.<metric>`, e.g. `game.leaves_processed`, `cache.hits`,
/// `pool.steals`, `oracle.instances`.  Counters are monotone sums, gauges are
/// last-write-wins, histograms are log2-bucketed (LogHistogram) and expand in
/// the snapshot to `<name>.count/.sum/.min/.max/.avg/.p50/.p90/.p99/.p999`.
///
/// Updates are coarse-grained (end of a solve, end of a check corpus), so a
/// single mutex is deliberate; the per-event hot path belongs to the tracer,
/// not the registry.
class MetricsRegistry {
public:
    /// Adds `delta` to the named counter (creating it at zero).
    void add(const std::string& name, double delta = 1.0);

    /// Sets the named gauge.
    void set(const std::string& name, double value);

    /// Records one histogram sample.
    void observe(const std::string& name, double value);

    /// Merges a whole histogram into the named one (creating it empty) — the
    /// cross-process aggregation point used by lph_top and publish paths.
    void merge_histogram(const std::string& name, const LogHistogram& h);

    /// Replaces the named histogram wholesale.  The idempotent counterpart of
    /// merge_histogram for publish paths that run repeatedly (republishing a
    /// merge would double-count every sample).
    void set_histogram(const std::string& name, const LogHistogram& h);

    /// Sets one gauge per entry, each name prefixed with `prefix` — the
    /// absorption point for the stats structs' to_metrics() lists.
    void absorb(const std::string& prefix, const MetricList& values);

    /// Adds each entry onto the matching counter (prefix as in absorb) —
    /// for accumulating the same stats struct across many runs.
    void accumulate(const std::string& prefix, const MetricList& values);

    /// All metrics, sorted by name.  Counters and gauges appear under their
    /// own names; histograms expand to the derived scalars.
    MetricList snapshot() const;

    /// The snapshot as a JSON object (name -> number), pretty-printed.
    std::string snapshot_json() const;

    /// Copies of every histogram, sorted by name — the bucket-level export
    /// behind the `detail:"full"` stats response and lph_top's merge.
    std::vector<std::pair<std::string, LogHistogram>> histograms() const;

    void clear();

private:
    mutable std::mutex mutex_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LogHistogram> histograms_;
};

/// Escapes a string for embedding in a JSON string literal (obs keeps its own
/// copy so the library stays dependency-free below core).
std::string json_escape(const std::string& s);

/// Renders a metric list as a JSON object (name -> number).  pretty = one
/// entry per line (the --metrics= file form); compact = a single line, for
/// embedding inside a wire response.  Every consumer of the registry renders
/// through here, so the file and wire forms can never drift apart.
std::string render_metrics_json(const MetricList& metrics, bool pretty);

} // namespace obs
} // namespace lph
