#pragma once

#include "obs/metrics.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lph {
namespace service {

/// On-disk snapshot format version.  Bumped whenever the byte layout or the
/// semantics of a section change; a mismatched version is *rejected* on load
/// (cold start), never reinterpreted.
constexpr std::uint32_t kSnapshotVersion = 1;

/// One named key/value section of a snapshot.  The serving layer writes a
/// "memo" section (the cross-request result memo) plus one "table:<machine>"
/// section per machine-shared verdict table; the codec itself is agnostic.
struct SnapshotSection {
    std::string name;
    /// Oldest-first, so replaying `insert` calls reproduces LRU recency.
    std::vector<std::pair<std::string, std::string>> entries;
};

struct SnapshotData {
    std::vector<SnapshotSection> sections;

    std::size_t total_entries() const {
        std::size_t n = 0;
        for (const SnapshotSection& s : sections) {
            n += s.entries.size();
        }
        return n;
    }
};

/// Outcome of reading a snapshot.  `Missing` (no file) and `Rejected`
/// (corrupted / truncated / version-mismatched / trailing bytes) both mean
/// cold start; the distinction feeds the structured log and the
/// `snapshot.rejected` counter — a rejected snapshot is never trusted, even
/// partially.
enum class SnapshotReadResult { Loaded, Missing, Rejected };

const char* to_string(SnapshotReadResult result);

/// Serializes a snapshot:
///
///   "LPHSNAP\n" | u32 version | u32 section_count
///   per section: u32 name_len | name | u64 entry_count
///                per entry: u32 key_len | key | u32 value_len | value
///   u64 fnv1a64 checksum over everything after the magic
///
/// All integers are little-endian; the checksum covers version and counts so
/// a flipped length byte fails closed instead of mis-slicing entries.
std::string encode_snapshot(const SnapshotData& data);

/// Decodes `bytes`; on `Rejected`, `*error` explains what failed (magic,
/// version, checksum, truncation, trailing bytes) and `*out` is left empty.
/// Never throws and never allocates past the input size — a hostile length
/// field is caught by bounds checks before any copy.
SnapshotReadResult decode_snapshot(const std::string& bytes, SnapshotData* out,
                                   std::string* error);

/// Writes atomically: encode to `path + ".tmp"`, fsync, rename over `path` —
/// a crash mid-save leaves the previous snapshot intact.  Returns false (with
/// `*error`) on any I/O failure.
bool write_snapshot_file(const std::string& path, const SnapshotData& data,
                         std::string* error);

/// Reads and decodes `path`.  A missing file is `Missing`; an unreadable or
/// undecodable one is `Rejected` with `*error` set.
SnapshotReadResult read_snapshot_file(const std::string& path,
                                      SnapshotData* out, std::string* error);

/// Counters of one ServiceCore's snapshot lifecycle.
struct SnapshotStats {
    std::uint64_t loads = 0;          ///< successful warm-starts
    std::uint64_t rejected = 0;       ///< corrupt/mismatched snapshots refused
    std::uint64_t saves = 0;          ///< successful writes
    std::uint64_t save_failures = 0;  ///< I/O failures while writing
    std::uint64_t entries_loaded = 0; ///< entries restored by the last load
    std::uint64_t entries_saved = 0;  ///< entries written by the last save

    /// Metric list under the `snapshot.` naming scheme, absorbed under
    /// `service.` by ServiceCore::publish_metrics.
    obs::MetricList to_metrics() const;
};

} // namespace service
} // namespace lph
