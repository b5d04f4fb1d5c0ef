#pragma once

#include "obs/metrics.hpp"

#include <string>

namespace lph {
namespace obs {

/// One observability session: a MetricsRegistry plus ownership of the global
/// tracer's on/off switch.
///
/// Instrumented subsystems take an optional `Session*` (GameOptions::obs,
/// HarnessOptions::obs); when set they accumulate their stats into the
/// session's registry.  Code with no natural options channel (run_local,
/// the thread pool) emits spans through the ambient global tracer
/// instead, which this session switches on and off.
///
/// At most one session should have tracing enabled at a time; `activate()`
/// additionally installs the session as the process-wide default so deep
/// call sites (the bench report recorder) can find a registry without
/// plumbing.
class Session {
public:
    struct Options {
        bool tracing = false;
        std::size_t trace_capacity_per_thread = 1 << 14;
    };

    Session(); ///< defaults: no tracing
    explicit Session(Options options);
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    bool tracing() const { return tracing_; }

    /// Installs this session as Session::active() (deactivated on
    /// destruction, restoring the previous active session).
    void activate();

    /// The currently active session, or nullptr.
    static Session* active();

    /// Exports the global tracer's spans as Chrome trace JSON to `path`.
    /// `process_name` labels this process's track in the viewer (supervised
    /// workers pass "lphd worker <slot>" so a merged timeline reads well).
    /// Returns false on I/O failure (never throws).
    bool export_chrome_trace(const std::string& path,
                             const std::string& process_name = "lph") const;

    /// Writes the metrics snapshot as a JSON object to `path`.
    bool write_metrics_json(const std::string& path) const;

private:
    MetricsRegistry metrics_;
    bool tracing_ = false;
    bool activated_ = false;
    Session* previous_active_ = nullptr;
};

} // namespace obs
} // namespace lph
