#pragma once

#include "dtm/execution.hpp"
#include "dtm/local.hpp"
#include "graph/identifiers.hpp"

#include <string>
#include <vector>

namespace lph {

/// BFS distances from u, cut off beyond `radius`; -1 = outside the ball.
/// Shared by the key builder below and the serving layer's dirty-ball
/// computation (a graph edit can only change verdicts of nodes whose
/// radius-R ball touches it — the r-locality invariant).
std::vector<int> bounded_distances(const LabeledGraph& g, NodeId u, int radius);

/// The number of rounds a clean run of `machine` can take under `exec` — the
/// declared round bound when enforced, otherwise the max_rounds guard, at
/// least 1.  A node's clean-run verdict is a function of its radius-R view
/// for exactly this R, so it is both the key builder's radius and the
/// radius of the serving layer's dirty balls.
int view_radius(const LocalMachine& machine, const ExecutionOptions& exec);

/// Builds the per-node view keys for one (machine, graph, identifiers,
/// execution options) context.
///
/// The key for node u is a canonical serialization of u's effective ball:
/// with R = view_radius(machine, exec), it contains
///  - distance, identifier, label, and degree of every node within R-1,
///  - the identifier of every node at distance exactly R (their ids order
///    the message slots of boundary nodes; nothing else about them can
///    reach u in R rounds),
///  - all ball edges with an endpoint within R-1, and
///  - the certificate list of every node within R-1 (the dynamic part: the
///    verdict table indexes it by configuration, see cert_members).
/// Ball nodes are ordered by (distance, id, NodeId); the NodeId tie-break
/// keeps keys deterministic when identifiers repeat inside a ball, at the
/// cost of some cross-instance sharing (never of soundness: equal keys
/// imply equal rooted attributed balls, hence equal verdicts).
class ViewKeyBuilder {
public:
    ViewKeyBuilder(const LocalMachine& machine, const LabeledGraph& g,
                   const IdentifierAssignment& id, const ExecutionOptions& exec);

    /// False when this context cannot be cached at all: a fault plan or the
    /// total-byte cap makes node verdicts depend on more than their views,
    /// or the identifiers are not locally unique so every run fatals anyway.
    /// A wall-clock deadline does not gate: it can only abort a run, and only
    /// clean completed runs are ever recorded.
    bool cacheable() const { return cacheable_; }

    /// The effective information radius used for the keys.
    int radius() const { return radius_; }

    /// The static (certificate-independent) part of u's key: the canonical
    /// serialization of u's rooted attributed ball.  Two nodes with equal
    /// prefixes have isomorphic balls, so their verdicts are the same
    /// function of the certificates at their (positionally corresponding)
    /// cert members — the property the verdict table's class sharing rests
    /// on.
    const std::string& static_prefix(NodeId u) const {
        return nodes_.at(u).static_prefix;
    }

    /// The nodes whose certificates u's verdict can depend on (distance
    /// <= radius()-1 from u), in the canonical (distance, id, NodeId) order
    /// of the static prefix.
    const std::vector<NodeId>& cert_members(NodeId u) const {
        return nodes_.at(u).cert_members;
    }

private:
    struct NodeKey {
        std::string static_prefix;
        std::vector<NodeId> cert_members; ///< canonical order, distance <= R-1
    };

    std::vector<NodeKey> nodes_;
    bool cacheable_ = false;
    int radius_ = 0;
};

} // namespace lph
