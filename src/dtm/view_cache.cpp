#include "dtm/view_cache.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>

namespace lph {

/// BFS distances from u, cut off beyond `radius`; -1 = outside the ball.
std::vector<int> bounded_distances(const LabeledGraph& g, NodeId u, int radius) {
    std::vector<int> dist(g.num_nodes(), -1);
    dist[u] = 0;
    std::queue<NodeId> frontier;
    frontier.push(u);
    while (!frontier.empty()) {
        const NodeId v = frontier.front();
        frontier.pop();
        if (dist[v] >= radius) {
            continue;
        }
        for (NodeId w : g.neighbors(v)) {
            if (dist[w] < 0) {
                dist[w] = dist[v] + 1;
                frontier.push(w);
            }
        }
    }
    return dist;
}

int view_radius(const LocalMachine& machine, const ExecutionOptions& exec) {
    // A clean run finishes within R rounds; information (including the step
    // charges that decide per-node bound violations) travels one hop per
    // round from round 2 on.
    const int radius = exec.enforce_declared_bounds
                           ? std::min(machine.round_bound(), exec.max_rounds)
                           : exec.max_rounds;
    return std::max(radius, 1);
}

ViewKeyBuilder::ViewKeyBuilder(const LocalMachine& machine, const LabeledGraph& g,
                               const IdentifierAssignment& id,
                               const ExecutionOptions& exec) {
    // Run-global couplings break the per-node view determinism the cache
    // relies on: injected faults address nodes by index and round, the
    // total-byte cap ties one node's fate to the whole run's traffic.  (A
    // deadline only ever aborts a run, and aborted runs are never recorded.)
    if (exec.faults != nullptr || exec.max_total_message_bytes > 0) {
        return;
    }
    // Non-unique identifiers fatal every run before round 1; nothing clean
    // will ever be inserted, so skip the key work entirely.
    if (!id.is_locally_unique(g, std::max(1, machine.id_radius()))) {
        return;
    }
    radius_ = view_radius(machine, exec);
    cacheable_ = true;

    nodes_.resize(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const std::vector<int> dist = bounded_distances(g, u, radius_);
        std::vector<NodeId> ball;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
            if (dist[v] >= 0) {
                ball.push_back(v);
            }
        }
        std::sort(ball.begin(), ball.end(), [&](NodeId a, NodeId b) {
            return std::make_tuple(dist[a], std::cref(id(a)), a) <
                   std::make_tuple(dist[b], std::cref(id(b)), b);
        });
        std::vector<std::size_t> canonical(g.num_nodes(),
                                           static_cast<std::size_t>(-1));
        for (std::size_t i = 0; i < ball.size(); ++i) {
            canonical[ball[i]] = i;
        }

        NodeKey& key = nodes_[u];
        std::string& out = key.static_prefix;
        out += "r";
        out += std::to_string(radius_);
        out += ';';
        for (NodeId v : ball) {
            out += std::to_string(dist[v]);
            out += '|';
            out += id(v);
            out += '|';
            if (dist[v] <= radius_ - 1) {
                out += g.label(v);
                out += '|';
                out += std::to_string(g.degree(v));
                key.cert_members.push_back(v);
            }
            out += ';';
        }
        out += 'E';
        // Collect edges in canonical-index terms and sort before emitting:
        // the prefix must not depend on original NodeIds or adjacency-list
        // order, or isomorphic balls (e.g. rotations of a cycle with
        // periodic identifiers, or one graph with its nodes renumbered)
        // would serialize differently and defeat the verdict table's class
        // sharing.  Interior edges are kept once (smaller canonical index
        // first); interior-boundary edges order themselves the same way
        // because boundary nodes sort after all interior nodes.
        std::vector<std::pair<std::size_t, std::size_t>> edges;
        for (NodeId v : ball) {
            if (dist[v] > radius_ - 1) {
                continue; // edges among the boundary ring are irrelevant
            }
            for (NodeId w : g.neighbors(v)) {
                if (canonical[w] == static_cast<std::size_t>(-1)) {
                    continue; // captured by v's degree
                }
                if (dist[w] <= radius_ - 1 && canonical[w] < canonical[v]) {
                    continue; // emit interior edges once
                }
                edges.emplace_back(canonical[v], canonical[w]);
            }
        }
        std::sort(edges.begin(), edges.end());
        for (const auto& [a, b] : edges) {
            out += std::to_string(a);
            out += '-';
            out += std::to_string(b);
            out += ',';
        }
        out += '#';
    }
}

} // namespace lph
