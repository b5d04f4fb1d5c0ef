// Locality-aware memoization: the soundness gates and radius of
// ViewKeyBuilder, and — the part that must never regress — verdict agreement
// between table-on and table-off runs on adversarial instances built to
// maximize view collisions (repeated identifiers inside one graph, one table
// shared across different graphs).

#include "dtm/faults.hpp"
#include "dtm/view_cache.hpp"
#include "graph/generators.hpp"
#include "graphalg/coloring.hpp"
#include "hierarchy/game.hpp"
#include "hierarchy/verdict_table.hpp"
#include "machines/verifiers.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace lph {
namespace {

/// The color domain matching a ColoringVerifier.
class ColorDomain : public CertificateDomain {
public:
    explicit ColorDomain(const ColoringVerifier& verifier) {
        for (int c = 0; c < verifier.k(); ++c) {
            options_.push_back(verifier.encode_color(c));
        }
    }
    std::vector<BitString> options(const LabeledGraph&, const IdentifierAssignment&,
                                   NodeId) const override {
        return options_;
    }

private:
    std::vector<BitString> options_;
};

GameSpec coloring_spec(const ColoringVerifier& verifier,
                       const CertificateDomain& domain) {
    GameSpec spec;
    spec.machine = &verifier;
    spec.layers = {&domain};
    spec.starts_existential = true;
    return spec;
}

// ---------------------------------------------------------------------------
// bounded_distances (the serving layer's dirty-ball primitive).
// ---------------------------------------------------------------------------

TEST(BoundedDistances, MatchesFullBfsInsideTheBallAndCutsOffOutside) {
    const LabeledGraph g = cycle_graph(9, "1");
    const std::vector<int> full = g.distances_from(0);
    const std::vector<int> bounded = bounded_distances(g, 0, 2);
    ASSERT_EQ(bounded.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (full[v] <= 2) {
            EXPECT_EQ(bounded[v], full[v]) << "node " << v;
        } else {
            EXPECT_EQ(bounded[v], -1) << "node " << v;
        }
    }
    const std::vector<int> self_only = bounded_distances(g, 4, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(self_only[v], v == 4 ? 0 : -1);
    }
}

// ---------------------------------------------------------------------------
// ViewKeyBuilder gates and radius.
// ---------------------------------------------------------------------------

TEST(ViewKeyBuilder, GatesOffRunGlobalCouplings) {
    const LabeledGraph g = cycle_graph(8, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);

    ExecutionOptions clean;
    EXPECT_TRUE(ViewKeyBuilder(verifier, g, id, clean).cacheable());

    FaultPlan plan;
    plan.seed = 1;
    plan.drop_prob = 0.5;
    ExecutionOptions with_faults;
    with_faults.faults = &plan;
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, id, with_faults).cacheable());

    // A deadline only aborts runs, and aborted runs are never recorded.
    ExecutionOptions with_deadline;
    with_deadline.deadline_ms = 1000;
    EXPECT_TRUE(ViewKeyBuilder(verifier, g, id, with_deadline).cacheable());

    ExecutionOptions with_byte_cap;
    with_byte_cap.max_total_message_bytes = 1 << 20;
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, id, with_byte_cap).cacheable());

    // Clashing identifiers: every run fatals before round 1; nothing clean
    // can ever be cached.
    const auto clashed = clash_identifiers(g, id, verifier.id_radius(), 7, 1.0);
    EXPECT_FALSE(ViewKeyBuilder(verifier, g, clashed, clean).cacheable());
}

TEST(ViewKeyBuilder, RadiusIsTheCleanRunHorizon) {
    const LabeledGraph g = cycle_graph(8, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2); // round_bound = 3

    ExecutionOptions enforced;
    EXPECT_EQ(ViewKeyBuilder(verifier, g, id, enforced).radius(), 3);
    EXPECT_EQ(view_radius(verifier, enforced), 3);

    ExecutionOptions loose;
    loose.enforce_declared_bounds = false;
    loose.max_rounds = 5;
    EXPECT_EQ(ViewKeyBuilder(verifier, g, id, loose).radius(), 5);
    EXPECT_EQ(view_radius(verifier, loose), 5);
}

TEST(ViewKeyBuilder, KeysSeparateDifferentViews) {
    // Certificates inside the interior (distance <= R-1 = 2) belong to the
    // view, certificates beyond it do not; labels inside the interior and
    // identifiers on the boundary ring separate static prefixes.
    const LabeledGraph g = cycle_graph(9, "1");
    const auto id = make_global_ids(g);
    const ColoringVerifier verifier(2);
    const ViewKeyBuilder keys(verifier, g, id, ExecutionOptions{});
    ASSERT_TRUE(keys.cacheable());
    const std::vector<NodeId>& members = keys.cert_members(0);
    EXPECT_EQ(members.size(), 5u);
    EXPECT_NE(std::find(members.begin(), members.end(), 1), members.end());
    EXPECT_EQ(std::find(members.begin(), members.end(), 4), members.end());

    LabeledGraph relabeled = g;
    relabeled.set_label(2, "0"); // distance 2 from node 0
    EXPECT_NE(ViewKeyBuilder(verifier, relabeled, id, ExecutionOptions{})
                  .static_prefix(0),
              keys.static_prefix(0));
    LabeledGraph far = g;
    far.set_label(3, "0"); // distance 3 = R: outside the interior
    EXPECT_EQ(ViewKeyBuilder(verifier, far, id, ExecutionOptions{})
                  .static_prefix(0),
              keys.static_prefix(0));
    std::vector<BitString> ids;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ids.push_back(id(v));
    }
    std::swap(ids[3], ids[4]); // node 3 sits on node 0's boundary ring
    EXPECT_NE(ViewKeyBuilder(verifier, g, IdentifierAssignment(ids),
                             ExecutionOptions{})
                  .static_prefix(0),
              keys.static_prefix(0));
}

// ---------------------------------------------------------------------------
// Cache soundness on adversarial view-collision instances.
// ---------------------------------------------------------------------------

void expect_table_agrees(const GameSpec& spec, const LabeledGraph& g,
                         const IdentifierAssignment& id, const std::string& what) {
    GameOptions off;
    off.threads = 1;
    off.memoize_views = false;
    GameOptions on;
    on.threads = 1;
    on.memoize_views = true;
    const GameResult without = play_game(spec, g, id, off);
    const GameResult with = play_game(spec, g, id, on);
    EXPECT_EQ(without.accepted, with.accepted) << what;
    EXPECT_EQ(without.machine_runs, with.machine_runs) << what;
    EXPECT_EQ(without.faulted_runs, with.faulted_runs) << what;
    EXPECT_EQ(without.witness.has_value(), with.witness.has_value()) << what;
    if (without.witness && with.witness) {
        EXPECT_TRUE(*without.witness == *with.witness) << what;
    }
}

TEST(CacheSoundness, PeriodicIdentifiersCollideViewsWithinOneGraph) {
    // C_14 with period-7 cyclic identifiers: node u and node u+7 have
    // *identical* static views (distances, ids, labels, degrees, edges), the
    // maximal collision the key's soundness argument allows.  The verdicts
    // must still match the cache-off engine on both the yes- and a no-side.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    ASSERT_EQ(verifier.id_radius(), 3);

    const LabeledGraph even = cycle_graph(14, "1");
    const auto even_ids = make_cyclic_ids(even, 7); // locally unique: 7 >= 2*3+1
    ASSERT_TRUE(even_ids.is_locally_unique(even, verifier.id_radius()));
    expect_table_agrees(coloring_spec(verifier, domain), even, even_ids,
                        "C14 period 7");

    // The odd (no-instance, full-exhaustion) side with cyclic identifiers.
    const LabeledGraph odd = cycle_graph(9, "1");
    const auto odd_ids = make_cyclic_ids(odd, 9);
    expect_table_agrees(coloring_spec(verifier, domain), odd, odd_ids,
                        "C9 cyclic ids");
}

TEST(CacheSoundness, SharedCacheAcrossInstancesReusesAndStaysSound) {
    // One external table shared across different graphs whose local windows
    // coincide: away from the wrap-around, C_14's windows repeat C_13's
    // (same 4-bit global ids, labels, degrees), so the second game re-hits
    // entries the first filled — and must still produce the exact
    // table-off verdicts (C_13 odd: reject; C_14: accept).
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable shared;

    const LabeledGraph odd = cycle_graph(13, "1");
    const auto odd_id = make_global_ids(odd);
    const LabeledGraph even = cycle_graph(14, "1");
    const auto even_id = make_global_ids(even);

    GameOptions with_shared;
    with_shared.view_cache = &shared;
    const GameResult first = play_game(coloring_spec(verifier, domain), odd,
                                       odd_id, with_shared);
    EXPECT_FALSE(first.accepted);
    EXPECT_EQ(first.machine_runs, std::uint64_t{1} << 13);

    const GameResult second = play_game(coloring_spec(verifier, domain), even,
                                        even_id, with_shared);
    EXPECT_TRUE(second.accepted);
    EXPECT_TRUE(second.witness.has_value());
    EXPECT_GT(shared.stats().hits, first.stats.leaf_cache_hits)
        << "no cross-instance reuse";
    EXPECT_EQ(shared.stats().verdict_mismatches, 0u);

    // Agreement with the cache-off engine on the shared-cache instances.
    GameOptions off;
    off.memoize_views = false;
    const GameResult even_off =
        play_game(coloring_spec(verifier, domain), even, even_id, off);
    EXPECT_EQ(second.accepted, even_off.accepted);
    EXPECT_EQ(second.machine_runs, even_off.machine_runs);
    EXPECT_TRUE(second.witness.has_value() && even_off.witness.has_value() &&
                *second.witness == *even_off.witness);
}

TEST(CacheSoundness, TinyTableThrashesButStaysCorrect) {
    // A table too small for even one solve's pages refuses fills and evicts
    // on every acquire; correctness must not depend on residency.
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    VerdictTable tiny(64);
    GameOptions off;
    off.memoize_views = false;
    GameOptions on;
    on.view_cache = &tiny;
    for (const std::size_t n : {9, 10, 9}) {
        const LabeledGraph g = cycle_graph(n, "1");
        const auto id = make_global_ids(g);
        const GameResult thrashed =
            play_game(coloring_spec(verifier, domain), g, id, on);
        const GameResult reference =
            play_game(coloring_spec(verifier, domain), g, id, off);
        EXPECT_EQ(thrashed.accepted, reference.accepted);
        EXPECT_EQ(thrashed.machine_runs, reference.machine_runs);
    }
    EXPECT_GT(tiny.stats().evictions, 0u);
    EXPECT_EQ(tiny.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// GameTables sharing (the game_tree_size / play_game double-build fix).
// ---------------------------------------------------------------------------

TEST(GameTables, SharedTablesMatchTheConvenienceEntryPoints) {
    const ColoringVerifier verifier(2);
    const ColorDomain domain(verifier);
    const LabeledGraph g = cycle_graph(6, "1");
    const auto id = make_global_ids(g);
    const GameSpec spec = coloring_spec(verifier, domain);

    const GameTables tables(spec, g, id);
    EXPECT_EQ(tables.layers(), 1u);
    EXPECT_EQ(tables.layer_product(0), std::uint64_t{1} << 6);
    EXPECT_EQ(game_tree_size(tables), game_tree_size(spec, g, id));

    const GameResult via_tables = play_game(spec, tables, g, id);
    const GameResult direct = play_game(spec, g, id);
    EXPECT_EQ(via_tables.accepted, direct.accepted);
    EXPECT_EQ(via_tables.machine_runs, direct.machine_runs);
}

TEST(GameTables, EmptyDomainIsRejectedAtBuildTime) {
    class EmptyDomain : public CertificateDomain {
    public:
        std::vector<BitString> options(const LabeledGraph&,
                                       const IdentifierAssignment&,
                                       NodeId) const override {
            return {};
        }
    };
    const ColoringVerifier verifier(2);
    const EmptyDomain domain;
    const LabeledGraph g = path_graph(2, "1");
    const auto id = make_global_ids(g);
    const GameSpec spec = coloring_spec(verifier, domain);
    EXPECT_THROW(GameTables(spec, g, id), precondition_error);
}

} // namespace
} // namespace lph
