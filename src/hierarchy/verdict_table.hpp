#pragma once

#include "dtm/execution.hpp"
#include "dtm/local.hpp"
#include "graph/identifiers.hpp"
#include "obs/metrics.hpp"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lph {

class GameTables;

/// One machine's per-view verdict memo, filled lazily from the game engine's
/// own clean runs and shared across solves, graphs and batches.
///
/// By the locality invariant (DESIGN.md "Per-view verdict table"), node u's
/// verdict after a clean run is a function of its canonical attributed
/// R-ball (ViewKeyBuilder's static prefix) and the certificate lists of its
/// cert members.  The table groups views into *classes* — equal static
/// prefix, equal per-member per-layer option lists, equal verdict-relevant
/// execution options — and keeps, per class, one known bit and one accept bit
/// per *configuration* (one mixed-radix digit per (member, layer) option
/// choice).  Bits live in pages allocated on first fill.  A fill publishes
/// the accept bit before the known bit (release) and readers test the known
/// bit with acquire, so concurrent solves never read a half-written entry.
/// Once the table holds more than its byte budget, classes are evicted least
/// recently used first; a solve holding an evicted class keeps using it.
///
/// One table must only be shared across runs of the *same* machine: the
/// class signature identifies the view, not the machine.
class VerdictTable {
public:
    /// Bytes one table may keep resident: pages, page directories, class
    /// signatures and a fixed per-class overhead.  Fills stop allocating
    /// pages at twice this, so a single solve cannot outgrow it either.
    /// Small beside an idle server's few MB, yet a patch chain's or a small
    /// graph's classes take a few KiB, so reuse across requests survives.
    static constexpr std::size_t kByteBudget = std::size_t{16} << 10;
    /// Classes with more configurations are not tabled (ViewBinding::bind
    /// declines the solve): their views are about as many as the leaves, so
    /// a memo cannot pay for itself.
    static constexpr std::uint64_t kMaxConfigs = std::uint64_t{1} << 20;

    /// Counters under the `cache.` names of the serving metrics; hits and
    /// misses count leaves, entries count known configurations.
    struct Stats {
        std::uint64_t hits = 0;      ///< leaves answered from the table
        std::uint64_t misses = 0;    ///< leaves that ran the machine
        std::uint64_t evictions = 0; ///< classes evicted
        std::uint64_t entries = 0;   ///< known configurations (gauge)
        std::uint64_t classes = 0;   ///< resident classes (gauge)
        std::uint64_t bytes = 0;     ///< live bytes (gauge)
        /// Fills that disagreed with an already-known bit.  Equal classes
        /// must imply equal verdicts, so anything nonzero is a soundness bug
        /// (or a table shared across machines).
        std::uint64_t verdict_mismatches = 0;

        Stats& operator+=(const Stats& other);
        double hit_rate() const;
        obs::MetricList to_metrics() const;
    };

    class Class;

    explicit VerdictTable(std::size_t byte_budget = kByteBudget);

    VerdictTable(const VerdictTable&) = delete;
    VerdictTable& operator=(const VerdictTable&) = delete;

    /// Looks up or creates one class per (signature, configurations) pair,
    /// marks them most recently used, then evicts other classes, least
    /// recently used first, while the table is over budget.
    std::vector<std::shared_ptr<Class>>
    acquire(const std::vector<std::pair<std::string, std::uint64_t>>& signatures);

    /// Reads one entry: false when unknown, else `accept` holds the verdict.
    static bool lookup(const Class& cls, std::uint64_t config, bool& accept);

    /// Records one node verdict of a clean completed run.  Returns true when
    /// the entry became known.  An entry that is already known keeps its
    /// verdict; a different one counts a verdict mismatch.
    bool fill(Class& cls, std::uint64_t config, bool accept);

    /// Adds one solve's leaf counts to the hit/miss counters.
    void record(std::uint64_t hits, std::uint64_t misses);

    Stats stats() const;

    /// Snapshot support: one (signature, encoded bits) entry per class, least
    /// recently used first, so replaying them through restore() reproduces
    /// the recency order.
    std::vector<std::pair<std::string, std::string>> export_entries() const;

    /// Merges snapshot entries.  Unknown configurations are admitted; known
    /// ones keep their live verdict (a disagreement counts a verdict
    /// mismatch); a malformed entry is skipped whole.  Returns how many
    /// entries (classes) were admitted.
    std::size_t restore(
        const std::vector<std::pair<std::string, std::string>>& entries);

private:
    struct Account; ///< live byte/entry totals, shared with the classes

    std::shared_ptr<Class> class_locked(std::string signature,
                                        std::uint64_t configs);
    void evict_locked(std::size_t keep);

    std::size_t budget_;
    std::shared_ptr<Account> account_;
    mutable std::mutex mutex_;
    /// Front = most recently used.
    std::list<std::shared_ptr<Class>> lru_;
    std::unordered_map<std::string_view,
                       std::list<std::shared_ptr<Class>>::iterator>
        index_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> verdict_mismatches_{0};
};

/// One solve context — machine, option tables, graph, identifiers, execution
/// options — bound to a VerdictTable: every node's class, its cert members,
/// and the stride of each (member, layer) digit in its configuration index.
class ViewBinding {
public:
    /// nullptr when the context cannot use a table: a fault plan, a byte cap
    /// or identifiers that are not locally unique (the ViewKeyBuilder gates),
    /// or a class with more than VerdictTable::kMaxConfigs configurations.
    static std::unique_ptr<ViewBinding>
    bind(VerdictTable& table, const LocalMachine& machine,
         const GameTables& tables, const LabeledGraph& g,
         const IdentifierAssignment& id, const ExecutionOptions& exec);

    /// u's cert members in the canonical ViewKeyBuilder order.
    const std::vector<NodeId>& members(NodeId u) const {
        return nodes_[u].members;
    }
    /// Stride of the j-th member's layer-l digit in u's configuration index.
    std::uint64_t stride(NodeId u, std::size_t j, std::size_t layer) const {
        return nodes_[u].strides[j * layers_ + layer];
    }
    /// affected()[v] lists the nodes with v among their cert members — the
    /// nodes whose configuration changes when v's digit advances.
    const std::vector<std::vector<NodeId>>& affected() const {
        return affected_;
    }

    /// u's configuration index under the digit state idx[layer][node].
    std::uint64_t config(NodeId u,
                         const std::vector<std::vector<std::size_t>>& idx) const;

    bool lookup(NodeId u, std::uint64_t config, bool& accept) const {
        return VerdictTable::lookup(*classes_[nodes_[u].slot], config, accept);
    }
    bool fill(NodeId u, std::uint64_t config, bool accept) const {
        return table_.fill(*classes_[nodes_[u].slot], config, accept);
    }

    /// Nodes whose class another node of this context already bound.
    std::uint64_t orbit_hits() const { return orbit_hits_; }
    VerdictTable& table() const { return table_; }

private:
    struct Node {
        std::uint32_t slot = 0; ///< index into classes_
        std::vector<NodeId> members;
        std::vector<std::uint64_t> strides; ///< members x layers
    };

    ViewBinding(VerdictTable& table, std::size_t layers)
        : table_(table), layers_(layers) {}

    VerdictTable& table_;
    std::size_t layers_;
    std::vector<Node> nodes_;
    std::vector<std::vector<NodeId>> affected_;
    std::vector<std::shared_ptr<VerdictTable::Class>> classes_;
    std::uint64_t orbit_hits_ = 0;
};

} // namespace lph
