#include "service/graph_store.hpp"

#include "core/check.hpp"
#include "dtm/view_cache.hpp"
#include "graph/serialize.hpp"
#include "oracle/generators.hpp"

#include <algorithm>
#include <utility>

namespace lph {
namespace service {

void apply_patch_op(LabeledGraph& g, const PatchOp& op) {
    const auto check_node = [&](NodeId u) {
        check(u < g.num_nodes(),
              "patch: node " + std::to_string(u) + " out of range (graph has " +
                  std::to_string(g.num_nodes()) + " nodes)");
    };
    switch (op.kind) {
    case PatchOp::Kind::AddEdge:
        check_node(op.u);
        check_node(op.v);
        check(op.u != op.v, "patch: add_edge rejects self-loops");
        check(!g.has_edge(op.u, op.v),
              "patch: edge {" + std::to_string(op.u) + "," +
                  std::to_string(op.v) + "} already present");
        g.add_edge(op.u, op.v);
        return;
    case PatchOp::Kind::RemoveEdge:
        check_node(op.u);
        check_node(op.v);
        check(g.has_edge(op.u, op.v),
              "patch: edge {" + std::to_string(op.u) + "," +
                  std::to_string(op.v) + "} not present");
        g.remove_edge(op.u, op.v);
        return;
    case PatchOp::Kind::Relabel:
        check_node(op.u);
        g.set_label(op.u, op.label);
        return;
    case PatchOp::Kind::AddNode:
        g.add_node(op.label);
        return;
    case PatchOp::Kind::RemoveNode:
        check_node(op.u);
        check(g.neighbors(op.u).empty(),
              "patch: remove_node requires node " + std::to_string(op.u) +
                  " to be isolated");
        check(g.num_nodes() > 1, "patch: cannot remove the last node");
        g.remove_node(op.u);
        return;
    }
    check(false, "patch: unknown op kind");
}

namespace {

/// Marks every node within `radius` of `seed` in `g`.
void mark_ball(const LabeledGraph& g, NodeId seed, int radius,
               std::vector<char>& flags) {
    if (radius < 0) {
        return;
    }
    const std::vector<int> dist = bounded_distances(g, seed, radius);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (dist[v] >= 0) {
            flags[v] = 1;
        }
    }
}

} // namespace

GraphStore::RegisterResult GraphStore::register_graph(
    const LabeledGraph& graph, const std::string& canonical) {
    const std::uint64_t digest = fnv1a64(canonical);
    RegisterResult result;
    result.digest = digest;
    result.nodes = graph.num_nodes();
    result.edges = graph.num_edges();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(digest);
    if (it != graphs_.end()) {
        recency_.splice(recency_.begin(), recency_, it->second.recency);
        result.existed = true;
        return result;
    }
    auto resident = std::make_shared<ResidentGraph>();
    resident->graph = graph;
    resident->canonical = canonical;
    resident->digest = digest;
    insert_locked(digest, std::move(resident), graph.num_nodes());
    return result;
}

std::shared_ptr<ResidentGraph> GraphStore::find(std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(digest);
    if (it == graphs_.end()) {
        return nullptr;
    }
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.resident;
}

void GraphStore::insert_locked(std::uint64_t digest,
                               std::shared_ptr<ResidentGraph> resident,
                               std::size_t nodes) {
    recency_.push_front(digest);
    graphs_.emplace(digest, Slot{std::move(resident), recency_.begin(), nodes});
    nodes_ += nodes;
    while ((graphs_.size() > kMaxGraphs || nodes_ > kMaxNodes) &&
           recency_.back() != digest) {
        erase_locked(recency_.back());
    }
}

void GraphStore::erase_locked(std::uint64_t digest) {
    const auto it = graphs_.find(digest);
    if (it == graphs_.end()) {
        return;
    }
    nodes_ -= it->second.nodes;
    recency_.erase(it->second.recency);
    graphs_.erase(it);
}

PatchOutcome GraphStore::apply_patch(std::uint64_t digest,
                                     const std::vector<PatchOp>& ops,
                                     int radius, const std::string& id_scheme,
                                     int r_id, const std::string& flavor,
                                     const WireLimits& limits) {
    const std::shared_ptr<ResidentGraph> resident = find(digest);
    check(resident != nullptr,
          "unknown graph digest " + std::to_string(digest));
    std::lock_guard<std::mutex> lock(resident->mutex);
    check(resident->digest == digest,
          "unknown graph digest " + std::to_string(digest) +
              " (graph was re-keyed by a concurrent patch)");

    // Stage everything on a copy: an invalid op midway must leave the
    // resident untouched.
    const LabeledGraph& original = resident->graph;
    LabeledGraph work = original;
    std::vector<char> dirty_flags(work.num_nodes(), 0);
    std::vector<std::ptrdiff_t> old_of_new(work.num_nodes());
    for (std::size_t v = 0; v < old_of_new.size(); ++v) {
        old_of_new[v] = static_cast<std::ptrdiff_t>(v);
    }

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const PatchOp& op = ops[i];
        try {
            switch (op.kind) {
            case PatchOp::Kind::AddEdge:
            case PatchOp::Kind::RemoveEdge:
                check(op.kind == PatchOp::Kind::RemoveEdge ||
                          work.num_edges() < limits.max_graph_edges,
                      "patch: graph would exceed " +
                          std::to_string(limits.max_graph_edges) + " edges");
                // An edge edit changes the view of every node within R of an
                // endpoint along paths that existed before OR exist after the
                // edit — BFS both sides (numbering is unchanged by edge ops).
                if (op.u < work.num_nodes() && op.v < work.num_nodes()) {
                    mark_ball(work, op.u, radius, dirty_flags);
                    mark_ball(work, op.v, radius, dirty_flags);
                }
                apply_patch_op(work, op);
                mark_ball(work, op.u, radius, dirty_flags);
                mark_ball(work, op.v, radius, dirty_flags);
                break;
            case PatchOp::Kind::Relabel:
                apply_patch_op(work, op);
                // Labels are visible strictly inside the view (distance
                // <= R-1): a relabel at distance exactly R never reaches a
                // node's verdict, which the boundary tests pin down.
                mark_ball(work, op.u, radius - 1, dirty_flags);
                break;
            case PatchOp::Kind::AddNode:
                check(work.num_nodes() < limits.max_graph_nodes,
                      "patch: graph would exceed " +
                          std::to_string(limits.max_graph_nodes) + " nodes");
                apply_patch_op(work, op);
                dirty_flags.push_back(1);
                old_of_new.push_back(-1);
                break;
            case PatchOp::Kind::RemoveNode:
                // The node is isolated, so its removal only affects others
                // through renumbering — the identifier pass below catches
                // every id shift.
                apply_patch_op(work, op);
                dirty_flags.erase(dirty_flags.begin() +
                                  static_cast<std::ptrdiff_t>(op.u));
                old_of_new.erase(old_of_new.begin() +
                                 static_cast<std::ptrdiff_t>(op.u));
                break;
            }
        } catch (const precondition_error& e) {
            throw precondition_error("op " + std::to_string(i) + ": " +
                                     e.what());
        }
    }

    // Identifier pass: ids are assigned per graph (global ids widen with the
    // node count; local ids depend on structure), so any node whose id
    // differs from its pre-patch id dirties its whole radius-R ball.
    {
        const IdentifierAssignment old_ids =
            identifier_scheme_by_name(id_scheme, original, r_id);
        const IdentifierAssignment new_ids =
            identifier_scheme_by_name(id_scheme, work, r_id);
        for (NodeId v = 0; v < work.num_nodes(); ++v) {
            if (old_of_new[v] >= 0 &&
                new_ids(v) ==
                    old_ids(static_cast<NodeId>(old_of_new[v]))) {
                continue;
            }
            mark_ball(work, v, radius, dirty_flags);
        }
    }

    PatchOutcome outcome;
    outcome.old_digest = digest;
    outcome.canonical = graph_to_text(work);
    outcome.new_digest = fnv1a64(outcome.canonical);
    outcome.graph = work;
    outcome.old_of_new = std::move(old_of_new);
    for (NodeId v = 0; v < work.num_nodes(); ++v) {
        if (dirty_flags[v] != 0) {
            outcome.dirty.push_back(v);
        }
    }
    if (!flavor.empty()) {
        auto it = resident->retained.find(flavor);
        if (it != resident->retained.end() && it->second.digest == digest) {
            outcome.retained_outputs = it->second.outputs;
            outcome.has_retained = true;
        }
    }

    // Commit: re-key the store entry (map mutex nests inside the resident
    // mutex, never the reverse), then swap the staged graph in.  If a
    // distinct resident already holds the new digest (the patch reproduced
    // registered content), this resident takes over the key; digests name
    // content, so either answer is the same graph.  A resident evicted while
    // the patch ran comes back under its new digest, which the response
    // hands the client.
    {
        std::lock_guard<std::mutex> map_lock(mutex_);
        const auto it = graphs_.find(digest);
        if (it != graphs_.end() && it->second.resident == resident) {
            erase_locked(digest);
        }
        erase_locked(outcome.new_digest);
        insert_locked(outcome.new_digest, resident, work.num_nodes());
    }
    resident->graph = std::move(work);
    resident->canonical = outcome.canonical;
    resident->digest = outcome.new_digest;
    outcome.version = ++resident->version;
    return outcome;
}

void GraphStore::store_verdicts(std::uint64_t digest,
                                const std::string& flavor,
                                std::vector<std::string> outputs) {
    const std::shared_ptr<ResidentGraph> resident = find(digest);
    if (resident == nullptr) {
        return;
    }
    std::lock_guard<std::mutex> lock(resident->mutex);
    if (resident->digest != digest) {
        return; // a concurrent patch moved the content on; drop silently
    }
    ResidentGraph::Verdicts& slot = resident->retained[flavor];
    slot.digest = digest;
    slot.outputs = std::move(outputs);
}

std::size_t GraphStore::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return graphs_.size();
}

} // namespace service
} // namespace lph
