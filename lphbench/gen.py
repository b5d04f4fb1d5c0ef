"""Deterministic request streams for the lphd end-to-end benchmark.

Every stream is a pure function of (workload, seed, length): the generators
draw only from SplitMix64 generators seeded from those values, never from
the clock or Python's own hash.  lphd only ever sees the rendered lines.

Each generated request is a `Req`: the wire line plus what the checker needs
to verify the reply independently (the graph the request is about and the
reference job that answers it; see `ref_job`).
"""

import json

MASK = (1 << 64) - 1

# Per-workload salts, so two workloads with the same --seed draw unrelated
# streams.
SALT = {"mix": 0x6D6978, "games": 0x67616D, "patch": 0x706174}

# Fixed seed of the games universe: every --seed draws its stream from the
# same universe (in its own order), so the reference answers of one run are
# reusable by the next.
GAMES_UNIVERSE_SEED = 0x5EED


class SplitMix:
    """SplitMix64, the same finalizer lph_client's generators use."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4568B) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def rng_for(workload, seed, *path):
    """A generator for one (workload, seed, path...) coordinate."""
    rng = SplitMix((seed * 0x100000001B3) ^ SALT[workload])
    for p in path:
        rng = SplitMix(rng.next() ^ (p * 0x9E3779B97F4A7C15))
    return rng


class Graph:
    """A labeled simple graph mirrored client-side (no digests, ever)."""

    __slots__ = ("n", "labels", "edges")

    def __init__(self, n, labels=None, edges=()):
        self.n = n
        self.labels = list(labels) if labels is not None else [""] * n
        self.edges = set((min(u, v), max(u, v)) for u, v in edges)

    def copy(self):
        g = Graph(self.n, self.labels)
        g.edges = set(self.edges)
        return g

    def text(self):
        out = ["graph %d" % self.n]
        out += ["label %d %s" % (u, l) for u, l in enumerate(self.labels) if l]
        out += ["edge %d %d" % e for e in sorted(self.edges)]
        return "\n".join(out) + "\n"

    def ref_text(self):
        """The text format with ';' for newlines (one reference job line)."""
        return self.text().replace("\n", ";")

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def cycle(n, labels=None, order=None):
    """The cycle through nodes 0..n-1 in `order` (default: ascending)."""
    order = order or list(range(n))
    return Graph(n, labels, [(order[i], order[(i + 1) % n]) for i in range(n)])


def path(n, labels=None):
    return Graph(n, labels, [(u, u + 1) for u in range(n - 1)])


def complete(n, labels=None):
    return Graph(n, labels, [(u, v) for u in range(n) for v in range(u + 1, n)])


class Req:
    """One request line plus its checking spec.

    kind: "game" | "patch" | "register" | "logic" | "decide" | "oracle" |
    "control" (stats/health: only the status is checked).
    """

    __slots__ = ("line", "kind", "graph", "params")

    def __init__(self, line, kind, graph=None, **params):
        self.line = line
        self.kind = kind
        self.graph = graph
        self.params = params


def render(obj):
    return json.dumps(obj, separators=(",", ":"))


def game_job(machine, layers, sigma, ids, graph):
    return "game\t%s\t%d\t%d\t%s\t%s" % (machine, layers, 1 if sigma else 0,
                                         ids, graph.ref_text())


def ref_job(req):
    """The reference job answering `req`, or None when the answer needs no
    reference computation (control requests, oracle checks, all_selected)."""
    p = req.params
    if req.kind in ("game", "patch") and p.get("machine"):
        return game_job(p["machine"], p["layers"], p["sigma"], p["ids"],
                        req.graph)
    if req.kind == "decide":
        if p["problem"] == "coloring":
            return "colorable\t%d\t%s" % (p["k"], req.graph.ref_text())
        return "%s\t%s" % (p["problem"], req.graph.ref_text())
    if req.kind == "logic":
        f = p["formula"]
        if f == "two_colorable":
            return "colorable\t2\t%s" % req.graph.ref_text()
        if f == "three_colorable":
            return "colorable\t3\t%s" % req.graph.ref_text()
        if f == "random":
            return "fo\trandom\t%d\t%s" % (p["fseed"], req.graph.ref_text())
    return None


# --- mix --------------------------------------------------------------

# lph_client --generate's type weights as one Deck round of 16.
MIX_BLOCK = ["game"] * 7 + ["logic"] * 3 + ["decide"] * 3 + ["oracle",
                                                            "stats", "health"]
MIX_MACHINES = ("allsel", "eulerian", "coloring2", "coloring3")
MIX_FORMULAS = ("all_selected", "two_colorable", "three_colorable", "random")
MIX_PROBLEMS = ("eulerian", "coloring", "hamiltonian")
# The monadic second-order sentences are asked only about the unlabeled
# graphs of lph_client's pool up to 6 nodes.  The model checker enumerates
# subsets of nodes *and* label bits, so on the labeled pool graphs one such
# request takes seconds to minutes (three_colorable on a labeled K4: 145 s).
MSO_FORMULAS = ("two_colorable", "three_colorable")
MSO_GRAPHS = [make(n) for make in (cycle, path) for n in (4, 5, 6)] + [
    complete(4)]

# Graph pool: every MIX_NEW_EVERY-th request brings a new graph; every other
# request picks one of the MIX_WINDOW most recent graphs with weight
# 1/(1 + recency rank).  The pool keeps growing while the window's content is
# stationary, so the memo-served share stays flat as the stream grows (near
# the ~38% of lph_client --generate 320 --seed 7).
MIX_NEW_EVERY = 32
MIX_WINDOW = 8


# Complete graphs stop at 5 nodes: a coloring3 game on a labeled K7 takes
# 2-3 s, and a handful of those per run would decide every figure.
POOL_SHAPES = [(make, n) for make in ("cycle", "path") for n in range(4, 8)] \
    + [("complete", 4), ("complete", 5)]


def fresh_graphs(rng, count):
    """`count` new pool graphs: cycles and paths of 4-7 nodes and complete
    graphs of 4-5 nodes, with seeded 0/1 labels, in rounds holding each of
    the 10 shapes once in a fixed order (so every seed pays for the same
    shapes).  Each shape's labelings are drawn without replacement, so a new
    graph is really new until a shape's 2^n labelings run out."""
    labelings = {}
    for make, n in POOL_SHAPES:
        labelings[(make, n)] = rng.shuffle(list(range(1 << n)))
    makers = {"cycle": cycle, "path": path, "complete": complete}
    out = []
    while len(out) < count:
        for make, n in POOL_SHAPES:
            order = labelings[(make, n)]
            bits = order[(len(out) // len(POOL_SHAPES)) % len(order)]
            out.append(makers[make](n, [str((bits >> u) & 1)
                                        for u in range(n)]))
    return out[:count]


class Deck:
    """Draws from `items` in seeded shuffled rounds, so every aligned round
    holds each item exactly once (uniform weights, low variance)."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = self.rng.shuffle(list(self.items))
        return self.left.pop()


def mix_stream(seed, count):
    """lph_client --generate's request types and per-type choices, each
    drawn from its own Deck, over a growing graph pool."""
    rng = rng_for("mix", seed)
    fresh = fresh_graphs(rng_for("mix", seed, 2), count)
    kinds = Deck(rng, MIX_BLOCK)
    formulas = Deck(rng, MIX_FORMULAS)
    oracle_seeds = Deck(rng, (1, 2, 3))
    # Game and decide choices are dealt per graph: a graph's first 8 games
    # are its 8 distinct (machine, ids) pairs, so the engine work a run pays
    # for barely depends on the seed.
    games, problems = {}, {}
    pool = []
    weights = [1.0 / (1 + r) for r in range(MIX_WINDOW)]
    reqs = []
    for i in range(count):
        kind = kinds.draw()
        if i % MIX_NEW_EVERY == 0:
            pool.append(fresh[len(pool)])
            g = pool[-1]
        else:
            window = pool[-MIX_WINDOW:][::-1]  # most recent first
            x = rng.uniform() * sum(weights[: len(window)])
            for w, g in zip(weights, window):
                x -= w
                if x <= 0:
                    break
        if kind in ("stats", "health"):
            reqs.append(Req(render({"type": kind, "id": i}), "control"))
        elif kind == "oracle":
            reqs.append(Req(render({"type": "oracle_check", "id": i,
                                    "check": "eulerian-vs-bruteforce",
                                    "seed": oracle_seeds.draw(),
                                    "instances": 5}), "oracle"))
        elif kind == "logic":
            f = formulas.draw()
            obj = {"type": "logic", "id": i, "formula": f}
            fseed = 0
            if f == "random":
                fseed = rng.below(64)
                obj["fseed"] = fseed
            if f in MSO_FORMULAS:
                g = MSO_GRAPHS[rng.below(len(MSO_GRAPHS))]
            obj["graph"] = g.text()
            reqs.append(Req(render(obj), "logic", g, formula=f, fseed=fseed))
        elif kind == "decide":
            if id(g) not in problems:
                problems[id(g)] = Deck(rng, [(p, k) for p in MIX_PROBLEMS
                                             for k in (2, 3, 4)])
            problem, k = problems[id(g)].draw()
            reqs.append(Req(render({"type": "decide", "id": i,
                                    "problem": problem, "k": k,
                                    "graph": g.text()}),
                            "decide", g, problem=problem, k=k))
        else:
            if id(g) not in games:
                games[id(g)] = Deck(rng, [(m, ids) for m in MIX_MACHINES
                                          for ids in ("global", "local")])
            machine, ids = games[id(g)].draw()
            layers = 0 if machine in ("allsel", "eulerian") else 1
            reqs.append(Req(render({"type": "game", "id": i,
                                    "machine": machine, "layers": layers,
                                    "sigma": True, "ids": ids,
                                    "graph": g.text()}),
                            "game", g, machine=machine, layers=layers,
                            sigma=True, ids=ids))
    return reqs


def poisson_due_us(seed, count, seconds):
    """Arrival times of a Poisson process conditioned on `count` arrivals in
    [0, seconds): sorted independent uniform draws, in microseconds."""
    rng = rng_for("mix", seed, 1)
    return sorted(int(rng.uniform() * seconds * 1e6) for _ in range(count))


def memo_key(req):
    """Which requests lphd may answer from its memo: the semantic fields of a
    memoizable request (None for stats/health).  Used only by the tests."""
    if req.kind == "control":
        return None
    obj = json.loads(req.line)
    obj.pop("id", None)
    return render(obj)


# --- games ------------------------------------------------------------------

# One universe block: each slot is (machine, layers, sigma, cycle length, ids).
# coloring2 on odd cycles exhausts all 2^n leaves (compiled tables win from
# C13 on); on even cycles it exits early.  coloring3 on odd cycles exits early
# too, and compiled tables lose there.  The implies games are two-layer, on
# the Sigma and the Pi side.
GAME_SLOTS = (
    ("coloring2", 1, True, 11, "global"),
    ("coloring2", 1, True, 11, "local"),
    ("coloring2", 1, True, 12, "global"),
    ("coloring2", 1, True, 13, "local"),
    ("coloring3", 1, True, 7, None),  # ids alternate between blocks
    ("coloring3", 1, True, 9, "global"),
    ("coloring3", 1, True, 9, "local"),
    ("implies", 2, True, 10, "global"),
    ("implies", 2, False, 10, "local"),
    ("implies", 2, True, 12, "local"),
    ("implies", 2, False, 12, "global"),
)
# Blocks with a C15 coloring2 game too (compiled tables win by ~4x there);
# its reference answer is the costliest one, so it appears every few blocks.
GAME_C15_EVERY = 8
# A 15 s run of this commit plays 60-75 blocks (670-830 games); 240 blocks
# leave at least 3.2x headroom, so a faster engine still meets new games
# until its time box ends.  The universe's reference answers cost about 1350 s of CPU
# (5.6 s a block), computed once per checkout on 4 cores.
GAME_BLOCKS = 240


def games_universe():
    """GAME_BLOCKS blocks of GAME_SLOTS instances; every instance is on a
    distinct labeled graph.  Each cycle length deals its 2^n labelings
    without replacement; once they run out (C7, used once a block), further
    cycles run through the nodes in a seeded order, which gives new graphs
    (and new identifier layouts) with the same labels."""
    rng = SplitMix(GAMES_UNIVERSE_SEED)
    labelings = {}
    seen = set()
    blocks = []
    for b in range(GAME_BLOCKS):
        slots = list(GAME_SLOTS)
        if b % GAME_C15_EVERY == 0:
            slots.append(("coloring2", 1, True, 15, "global"))
        block = []
        for machine, layers, sigma, n, ids in slots:
            if not labelings.get(n):
                labelings[n] = rng.shuffle(list(range(1 << n)))
            bits = labelings[n].pop()
            labels = [str((bits >> u) & 1) for u in range(n)]
            g = cycle(n, labels)
            while g.text() in seen:
                g = cycle(n, labels, rng.shuffle(list(range(n))))
            seen.add(g.text())
            ids = ids or ("global", "local")[b % 2]
            block.append((machine, layers, sigma, ids, g))
        blocks.append(block)
    return blocks


def games_universe_jobs():
    """Reference jobs of every games universe instance."""
    return [game_job(machine, layers, sigma, ids, g)
            for block in games_universe()
            for machine, layers, sigma, ids, g in block]


def games_stream(seed):
    """The whole universe in a seeded block order (and seeded order within
    each block); a run consumes a prefix of it."""
    rng = rng_for("games", seed)
    universe = games_universe()
    reqs = []
    for b in rng.shuffle(list(range(len(universe)))):
        for machine, layers, sigma, ids, g in rng.shuffle(list(universe[b])):
            i = len(reqs)
            reqs.append(Req(render({"type": "game", "id": i,
                                    "machine": machine, "layers": layers,
                                    "sigma": sigma, "ids": ids,
                                    "graph": g.text()}),
                            "game", g, machine=machine, layers=layers,
                            sigma=sigma, ids=ids))
    return reqs


# --- patch ------------------------------------------------------------------

PATCH_CHAINS = 4
PATCH_BASE = 8         # base cycle; chords stay inside it
PATCH_MAX_GROWN = 2
PATCH_CHORDS = 6
CHORDS = sorted((u, v) for u in range(PATCH_BASE) for v in range(u + 2, PATCH_BASE)
                if (u, v) != (0, PATCH_BASE - 1))
# Query flavors (70% eulerian, 20% allsel, 10% layers-1 coloring2), cycled
# in this fixed order so a layers-0 query usually follows one of its own
# flavor and can reuse its retained verdicts, and one Deck round of edit
# kinds (55% chord toggle, 20% relabel, 25% grow or shrink), as
# lph_client --patch draws them.
PATCH_QUERIES = [("eulerian", 0)] * 7 + [("allsel", 0)] * 2 + [("coloring2", 1)]
PATCH_EDITS = ["chord"] * 11 + ["relabel"] * 4 + ["resize"] * 5
DIGEST = "@DIGEST@"  # replaced by the load client with the echoed digest


def chain_tag(chain):
    """Labels of nodes 0 and 1, fixed per chain and never relabeled: two
    chains' graphs always differ there, so they can never share a digest."""
    return ["1" if chain & 1 else "0", "1" if chain & 2 else "0"]


def patch_chain(seed, chain, count, first_id):
    """One chain: a graph_register line, then graph_patch lines (chord
    toggles, relabels, grow/shrink pairs) that each carry a query, with every
    8th line a game naming the graph by digest.  Mirrors lph_client --patch,
    on a smaller base cycle and with stratified draws."""
    assert chain < 4, "chain_tag encodes at most 4 chains"
    rng = rng_for("patch", seed, chain)
    mirror = cycle(PATCH_BASE, chain_tag(chain) + ["1"] * (PATCH_BASE - 2))
    reqs = [Req(render({"type": "graph_register", "id": first_id,
                        "graph": mirror.text()}), "register", mirror.copy())]
    grown = []  # anchors of grown nodes, LIFO
    edits = Deck(rng, PATCH_EDITS)
    resizes = []
    for i in range(1, count):
        if not resizes:
            # Grow twice, then shrink twice: the chain spends fixed shares of
            # its lines at each size, which sets the layered queries' cost.
            resizes = ["grow"] * PATCH_MAX_GROWN + ["shrink"] * PATCH_MAX_GROWN
        machine, layers = PATCH_QUERIES[(i - 1) % len(PATCH_QUERIES)]
        ops = []
        if i % 8 != 0:
            edit = edits.draw()
            if edit == "chord":
                # Toggle a chord (endpoints at cyclic distance >= 2, so the
                # base cycle is never cut): add one while there are fewer
                # than PATCH_CHORDS, else remove one, so every chain works at
                # the same density.
                present = sorted(e for e in mirror.edges if e in CHORDS)
                adding = len(present) < PATCH_CHORDS
                pool = [e for e in CHORDS if e not in mirror.edges] \
                    if adding else present
                e = pool[rng.below(len(pool))]
                ops.append({"op": "add_edge" if adding else "remove_edge",
                            "u": e[0], "v": e[1]})
            elif edit == "relabel":
                u = 2 + rng.below(mirror.n - 2)
                ops.append({"op": "relabel", "u": u,
                            "label": "1" if rng.below(2) else "0"})
            elif resizes.pop(0) == "grow":
                anchor = rng.below(PATCH_BASE)
                ops.append({"op": "add_node", "label": "1"})
                ops.append({"op": "add_edge", "u": mirror.n, "v": anchor})
                grown.append(anchor)
            else:
                victim = mirror.n - 1
                ops.append({"op": "remove_edge", "u": victim, "v": grown[-1]})
                ops.append({"op": "remove_node", "u": victim})
                grown.pop()
            for op in ops:
                apply_op(mirror, op)
        rid = first_id + i
        if ops:
            line = render({"type": "graph_patch", "id": rid, "digest": DIGEST,
                           "ops": ops, "machine": machine, "layers": layers,
                           "sigma": True, "ids": "global"})
            kind = "patch"
        else:
            line = render({"type": "game", "id": rid, "machine": machine,
                           "layers": layers, "sigma": True, "ids": "global",
                           "digest": DIGEST})
            kind = "game"
        reqs.append(Req(line, kind, mirror.copy(), machine=machine,
                        layers=layers, sigma=True, ids="global"))
    return reqs


def apply_op(g, op):
    kind = op["op"]
    if kind == "add_edge":
        g.edges.add((min(op["u"], op["v"]), max(op["u"], op["v"])))
    elif kind == "remove_edge":
        g.edges.remove((min(op["u"], op["v"]), max(op["u"], op["v"])))
    elif kind == "relabel":
        g.labels[op["u"]] = op["label"]
    elif kind == "add_node":
        g.labels.append(op["label"])
        g.n += 1
    elif kind == "remove_node":
        # Only the highest node is ever removed, so nothing renumbers.
        assert op["u"] == g.n - 1
        g.labels.pop()
        g.n -= 1


def patch_stream(seed, count_per_chain):
    """All chains, as (chain, Req) pairs; chain c runs on connection c."""
    out = []
    for c in range(PATCH_CHAINS):
        for req in patch_chain(seed, c, count_per_chain,
                               c * count_per_chain):
            out.append((c, req))
    return out
