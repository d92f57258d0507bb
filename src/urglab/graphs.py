"""Finite window graphs with generator-labelled edges.

A window is a finite bounded-degree graph standing in for one sample patch
of a vertex-transitive (or statistically homogeneous) infinite graph.  Two
built-in families:

* ``torus``: the Cayley graph of (Z/LZ)^d with the 2d coordinate shifts;
  exactly 2d-regular and vertex-transitive.
* ``random-regular``: the permutation model.  k independent uniform
  permutations each contribute one labelled edge per vertex; the result is
  2k-regular counting loops and parallel edges with multiplicity.

Arbitrary graphs (paths, cliques, geometric graphs) enter through the
``explicit`` model, whose edges receive a proper greedy edge-labelling so
that every vertex sees each label at most once.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .rng import derive_rng

Adjacency = tuple[tuple[tuple[int, str], ...], ...]


@dataclass(frozen=True)
class GeneratorSet:
    """A finite symmetric label set: each label paired with its inverse."""

    labels: tuple[str, ...]
    inverse: dict[str, str]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("generator set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be distinct")
        if set(self.inverse) != set(self.labels):
            raise ValueError("involution must cover exactly the labels")
        for s, t in self.inverse.items():
            if self.inverse[t] != s:
                raise ValueError(f"involution is not its own inverse at {s!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @staticmethod
    def paired(pairs: list[tuple[str, str]]) -> "GeneratorSet":
        labels: list[str] = []
        inverse: dict[str, str] = {}
        for s, t in pairs:
            labels.append(s)
            inverse[s] = t
            inverse[t] = s
            if t != s:
                labels.append(t)
        return GeneratorSet(tuple(labels), inverse)


def torus_generators(d: int) -> GeneratorSet:
    return GeneratorSet.paired([(f"+e{i + 1}", f"-e{i + 1}") for i in range(d)])


def free_generators(k: int) -> GeneratorSet:
    return GeneratorSet.paired([(f"s{i + 1}", f"s{i + 1}'") for i in range(k)])


@dataclass(frozen=True, eq=False)
class WindowGraph:
    """Immutable labelled multigraph; adjacency[u] lists (neighbour, label) pairs.

    Edge symmetry is enforced at construction: entry (u, v, s) exists iff
    (v, u, s^-1) does, with matching multiplicities, and every degree is
    bounded by the label count.
    """

    n: int
    adjacency: Adjacency
    gens: GeneratorSet
    model: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window needs at least one vertex")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal n")
        forward: Counter = Counter()
        backward: Counter = Counter()
        labels = set(self.gens.labels)
        for u, entries in enumerate(self.adjacency):
            if len(entries) > self.gens.size:
                raise ValueError(f"vertex {u} exceeds the degree bound {self.gens.size}")
            for v, s in entries:
                if not (0 <= v < self.n):
                    raise ValueError(f"neighbour {v} out of range")
                if s not in labels:
                    raise ValueError(f"unknown edge label {s!r}")
                forward[(u, v, s)] += 1
                backward[(v, u, self.gens.inverse[s])] += 1
        if forward != backward:
            raise ValueError("edge labelling is not symmetric under inversion")

    # -- derived views -------------------------------------------------

    @property
    def degree_bound(self) -> int:
        return self.gens.size

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed entries as (src, dst) index arrays."""
        src = [u for u, entries in enumerate(self.adjacency) for _ in entries]
        dst = [v for entries in self.adjacency for v, _ in entries]
        return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)

    @cached_property
    def csr(self) -> sparse.csr_array:
        """Read-only n x n adjacency matrix for ``scipy.sparse.csgraph``.

        Entry (u, v) counts the directed entries u -> v, so parallel edges
        are summed and a loop at u holds 2.
        """
        src, dst = self.edge_arrays
        m = sparse.csr_array((np.ones(len(src)), (src, dst)), shape=(self.n, self.n))
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
        return m

    @cached_property
    def neighbours_by_label(self) -> tuple[dict[str, int], ...]:
        """Per-vertex label -> neighbour map (labels repeat at most once per vertex
        on torus/explicit windows; on the permutation model too, since each
        permutation contributes exactly one out- and one in-edge per vertex)."""
        maps: list[dict[str, int]] = []
        for entries in self.adjacency:
            m: dict[str, int] = {}
            for v, s in entries:
                if s in m:
                    raise ValueError("label repeats at a vertex; label paths are ambiguous")
                m[s] = v
            maps.append(m)
        return tuple(maps)

    @property
    def window_id(self) -> str:
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        if self.seed is not None:
            inner = f"{inner},seed={self.seed}" if inner else f"seed={self.seed}"
        return f"{self.model}({inner})"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def build_torus_window(d: int, L: int) -> WindowGraph:
    """Cayley graph of (Z/LZ)^d on the 2d coordinate shifts; n = L**d.

    L >= 3 is required: at L = 2 the two shift directions collapse onto the
    same neighbour and the window stops being 2d-regular without multi-edges.
    """
    if d < 1:
        raise ValueError("dimension d must be positive")
    if L < 3:
        raise ValueError("torus side L must satisfy L >= 3")
    gens = torus_generators(d)
    weights = [L**i for i in range(d)]

    def shifted(idx: int, axis: int, step: int) -> int:
        coord = (idx // weights[axis]) % L
        return idx + ((coord + step) % L - coord) * weights[axis]

    n = L**d
    adjacency = []
    for u in range(n):
        entries = []
        for axis in range(d):
            entries.append((shifted(u, axis, +1), f"+e{axis + 1}"))
            entries.append((shifted(u, axis, -1), f"-e{axis + 1}"))
        adjacency.append(tuple(sorted(entries, key=lambda e: (e[1], e[0]))))
    return WindowGraph(n, tuple(adjacency), gens, "torus", {"d": d, "L": L})


def build_random_regular(k: int, n: int, seed: int) -> WindowGraph:
    """Permutation-model 2k-regular multigraph on n vertices.

    Each of k independent uniform permutations sigma_i contributes the edges
    (v, sigma_i(v)) labelled s_{i+1}.  Loops and parallel edges are kept and
    counted in the degree.
    """
    if k < 1:
        raise ValueError("rank k must be positive")
    if n < 2 * k + 1:
        raise ValueError("need n >= 2k + 1 vertices")
    rng = derive_rng(seed, "random-regular")
    gens = free_generators(k)
    out: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for i in range(k):
        sigma = rng.permutation(n)
        for v in range(n):
            image = int(sigma[v])
            out[v].append((image, f"s{i + 1}"))
            out[image].append((v, f"s{i + 1}'"))
    adjacency = tuple(tuple(sorted(entries, key=lambda e: (e[1], e[0]))) for entries in out)
    return WindowGraph(n, adjacency, gens, "random-regular", {"k": k, "n": n}, seed=seed)


def build_explicit(
    n: int, edges: list[tuple[int, int]], tag: str = "explicit"
) -> WindowGraph:
    """Window from an undirected simple edge list.

    Edges get a proper greedy labelling (smallest palette label free at both
    endpoints, every label self-inverse), so label paths stay unambiguous.
    """
    if n < 1:
        raise ValueError("window needs at least one vertex")
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError("explicit windows must be loop-free")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)

    used_at: list[set[int]] = [set() for _ in range(n)]
    out: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    palette = 0
    for u, v in sorted((min(a, b), max(a, b)) for a, b in edges):
        idx = 0
        while idx in used_at[u] or idx in used_at[v]:
            idx += 1
        used_at[u].add(idx)
        used_at[v].add(idx)
        palette = max(palette, idx + 1)
        out[u].append((v, f"e{idx + 1}"))
        out[v].append((u, f"e{idx + 1}"))
    if palette == 0:
        palette = 1  # edgeless window still needs a nonempty label set
    gens = GeneratorSet.paired([(f"e{i + 1}", f"e{i + 1}") for i in range(palette)])
    adjacency = tuple(tuple(sorted(entries, key=lambda e: (e[1], e[0]))) for entries in out)
    return WindowGraph(n, adjacency, gens, "explicit", {"n": n, "tag": tag})


def build_path(n: int) -> WindowGraph:
    if n < 2:
        raise ValueError("a path needs at least two vertices")
    return build_explicit(n, [(i, i + 1) for i in range(n - 1)], tag=f"path{n}")


def build_complete(n: int) -> WindowGraph:
    if n < 2:
        raise ValueError("a complete graph needs at least two vertices")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_explicit(n, edges, tag=f"complete{n}")


# ----------------------------------------------------------------------
# Serialization: {model, params, seed, n, edges:[[u, v, label], ...]}
# with one row per unordered edge carrying the lexicographically smaller
# of the two direction labels.
# ----------------------------------------------------------------------


def window_to_dict(w: WindowGraph) -> dict:
    rows = []
    self_paired_loops: Counter = Counter()
    for u, entries in enumerate(w.adjacency):
        for v, s in entries:
            t = w.gens.inverse[s]
            if s < t:
                rows.append([u, v, s])
            elif s == t:
                # self-inverse label: the mirror entry carries the same label
                if u < v:
                    rows.append([u, v, s])
                elif u == v:
                    self_paired_loops[(u, s)] += 1
    for (u, s), count in sorted(self_paired_loops.items()):
        rows.extend([[u, u, s]] * (count // 2))
    rows.sort()
    return {
        "model": w.model,
        "params": dict(w.params),
        "seed": w.seed,
        "n": w.n,
        "edges": rows,
    }


def window_to_json(w: WindowGraph) -> str:
    return json.dumps(window_to_dict(w), sort_keys=True)


def window_from_dict(data: dict) -> WindowGraph:
    model = data["model"]
    params = data["params"]
    n = data["n"]
    if model == "torus":
        gens = torus_generators(params["d"])
    elif model == "random-regular":
        gens = free_generators(params["k"])
    elif model == "explicit":
        labels = sorted({s for _, _, s in data["edges"]}) or ["e1"]
        gens = GeneratorSet.paired([(s, s) for s in labels])
    else:
        raise ValueError(f"unknown window model {model!r}")
    out: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for u, v, s in data["edges"]:
        t = gens.inverse[s]
        if u == v:
            out[u].append((u, s))
            out[u].append((u, t))
        else:
            out[u].append((v, s))
            out[v].append((u, t))
    adjacency = tuple(tuple(sorted(entries, key=lambda e: (e[1], e[0]))) for entries in out)
    return WindowGraph(n, adjacency, gens, model, params, seed=data.get("seed"))


def window_from_json(text: str) -> WindowGraph:
    return window_from_dict(json.loads(text))
