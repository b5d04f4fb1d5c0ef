#pragma once

#include "service/wire.hpp"

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lph {
namespace service {

/// Applies one patch op to `g`, validating it against the graph's current
/// state: add_edge rejects self-loops, duplicates and out-of-range nodes;
/// remove_edge requires the edge to exist; relabel requires the node to
/// exist; remove_node requires the node to be isolated (and renumbers every
/// higher id down by one, exactly like LabeledGraph::remove_node).  Throws
/// precondition_error naming the violated rule.  Shared by the resident
/// store, the patch-vs-full-recompute oracle reference and lph_client's
/// golden-request generator so all three agree on patch semantics.
void apply_patch_op(LabeledGraph& g, const PatchOp& op);

/// What one graph_patch did to a resident graph.
struct PatchOutcome {
    std::uint64_t old_digest = 0;
    std::uint64_t new_digest = 0; ///< == old_digest when the patch round-trips
    std::uint64_t version = 0;    ///< total patches applied to this resident
    /// Snapshot of the patched graph — evaluation must run against the state
    /// this patch produced even if later patches land concurrently.
    LabeledGraph graph;
    std::string canonical; ///< graph_to_text(graph), the new digest input
    /// Nodes (new numbering, ascending) whose radius-R view may differ
    /// between the old and new graph: BFS balls around every edit in both
    /// the pre- and post-op graphs, plus every node whose identifier
    /// changed.  Every node NOT listed provably keeps its verdict, so a
    /// recompute may reuse retained results for the complement.
    std::vector<NodeId> dirty;
    /// old_of_new[v] = v's index in the pre-patch graph, -1 when v was added
    /// by this patch.  Maps retained verdicts across remove_node renumbering.
    std::vector<std::ptrdiff_t> old_of_new;
    /// Per-node verdicts retained for the requested flavor, valid for
    /// old_digest and indexed by OLD node ids (empty when none were stored
    /// or the stored ones describe a different digest).
    std::vector<std::string> retained_outputs;
    bool has_retained = false;
};

/// One resident graph plus the per-flavor verdicts retained for it.
struct ResidentGraph {
    /// Outputs of one full (or incrementally merged) clean evaluation,
    /// indexed by node id, tagged with the graph content they describe.
    struct Verdicts {
        std::uint64_t digest = 0;
        std::vector<std::string> outputs;
    };

    mutable std::mutex mutex;
    LabeledGraph graph;
    std::string canonical;
    std::uint64_t digest = 0;
    std::uint64_t version = 0;
    /// Keyed by the query flavor ("machine|layers|sigma|ids" — rendered by
    /// ServiceCore), so coloring3 verdicts never answer an eulerian query.
    std::map<std::string, Verdicts> retained;
};

/// The resident-graph store behind graph_register / graph_patch: graphs are
/// keyed by the FNV-1a digest of their canonical text, so registration is
/// idempotent and a digest always names exactly one graph content.  Patches
/// re-key the resident under its new digest; the old digest stops resolving
/// (a client holding it must re-register or follow the echoed new digest).
///
/// Residency is bounded: once more than kMaxGraphs graphs or kMaxNodes nodes
/// are resident, the least recently used other graphs are evicted (retained
/// verdicts with them).  An evicted digest answers like any unknown digest
/// until the client registers the graph again.
///
/// Lock order: a resident's mutex may be held while taking the store map
/// mutex (apply_patch re-keys), never the reverse — find() copies the
/// shared_ptr out under the map mutex and releases it before any resident
/// lock is taken.
class GraphStore {
public:
    static constexpr std::size_t kMaxGraphs = 1024;
    static constexpr std::size_t kMaxNodes = std::size_t{1} << 18;

    struct RegisterResult {
        std::uint64_t digest = 0;
        std::size_t nodes = 0;
        std::size_t edges = 0;
        bool existed = false; ///< same content was already resident
    };

    /// Admits a graph (idempotent: same canonical text → same digest, one
    /// resident).  `canonical` must be graph_to_text(graph).
    RegisterResult register_graph(const LabeledGraph& graph,
                                  const std::string& canonical);

    /// The resident a digest names (now the most recently used), nullptr
    /// when unknown.
    std::shared_ptr<ResidentGraph> find(std::uint64_t digest);

    /// Applies `ops` in order to the resident graph `digest` names and
    /// computes the dirty set for radius `radius` under identifier scheme
    /// `id_scheme` ("global" | "local") with identifier radius `r_id`.
    /// `flavor` selects which retained verdicts to snapshot into the outcome
    /// ("" = none).  `limits` bounds growth (node/edge counts).  Throws
    /// precondition_error on an unknown digest, an invalid op (message
    /// prefixed "op <i>: "), or a patch that would exceed the limits or
    /// empty the graph.  On throw the resident is unchanged — ops are staged
    /// on a copy.
    PatchOutcome apply_patch(std::uint64_t digest,
                             const std::vector<PatchOp>& ops, int radius,
                             const std::string& id_scheme, int r_id,
                             const std::string& flavor,
                             const WireLimits& limits);

    /// Retains per-node verdicts for `flavor` on the resident `digest`
    /// names.  A no-op when the digest no longer resolves or the resident
    /// has moved on to different content (a concurrent patch won the race) —
    /// stale verdicts must never be installed.
    void store_verdicts(std::uint64_t digest, const std::string& flavor,
                        std::vector<std::string> outputs);

    /// Number of resident graphs.
    std::size_t size() const;

private:
    struct Slot {
        std::shared_ptr<ResidentGraph> resident;
        std::list<std::uint64_t>::iterator recency;
        std::size_t nodes = 0;
    };

    /// Makes `resident` the most recently used graph under `digest` (which
    /// must not be in the map), then evicts while over a cap.
    void insert_locked(std::uint64_t digest,
                       std::shared_ptr<ResidentGraph> resident,
                       std::size_t nodes);
    void erase_locked(std::uint64_t digest);

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, Slot> graphs_;
    std::list<std::uint64_t> recency_; ///< front = most recently used
    std::size_t nodes_ = 0;            ///< summed over resident graphs
};

} // namespace service
} // namespace lph
