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

A window is stored as CSR arrays: row u, the slice ``indptr[u]:indptr[u+1]``
of ``indices`` (neighbours) and ``label_id`` (indices into ``gens.labels``),
holds one entry per edge end at u, so a loop fills two.  Rows are ordered by
(label *name*, neighbour); ball discovery and mass-transport summation follow
that order.  ``mirror`` pairs each entry (u, v, s) with an entry (v, u, s^-1)
and is its own inverse (a loop under a self-inverse label is its own mirror).
``adjacency``, per-vertex (neighbour, label name) tuples, is a
read-only view derived from the arrays for tests and outside tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .rng import derive_rng


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

    @cached_property
    def inverse_id(self) -> np.ndarray:
        """Label id (index in ``labels``) -> id of its inverse."""
        return np.array([self.labels.index(self.inverse[s]) for s in self.labels], dtype=np.int64)

    @cached_property
    def name_rank(self) -> np.ndarray:
        """Label id -> position of its name in sorted order (the row order key)."""
        return np.argsort(np.argsort(self.labels)).astype(np.int64)

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


@dataclass(frozen=True, eq=False, init=False)
class WindowGraph:
    """Immutable labelled multigraph in read-only CSR arrays (layout: module docstring)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    label_id: np.ndarray
    mirror: np.ndarray  # entry (u, v, s) -> the entry (v, u, s^-1) paired with it
    gens: GeneratorSet
    model: str
    params: dict
    seed: int | None

    def __init__(self, n: int, src, dst, label_id, gens: GeneratorSet, model: str,
                 params: dict | None = None, seed: int | None = None):
        """Window from integer arrays of its directed entries ``(src[i], dst[i], label_id[i])``, in any order.

        Raises ValueError unless every vertex and label id is in range, no
        vertex has more entries than there are labels, and each entry
        (u, v, s) occurs exactly as often as its mirror (v, u, s^-1).
        """
        if n < 1:
            raise ValueError("window needs at least one vertex")
        src, dst, label_id = (np.asarray(a, dtype=np.int64) for a in (src, dst, label_id))
        for what, ids, bound in (("vertex", src, n), ("neighbour", dst, n), ("label id", label_id, gens.size)):
            bad = ids[(ids < 0) | (ids >= bound)]
            if bad.size:
                raise ValueError(f"{what} {bad[0]} out of range")
        degree = np.bincount(src, minlength=n)
        if degree.max() > gens.size:
            raise ValueError(f"vertex {degree.argmax()} exceeds the degree bound {gens.size}")
        order = np.lexsort((dst, gens.name_rank[label_id], src))
        src, dst, label_id = src[order], dst[order], label_id[order]
        # each entry and its required mirror, encoded as one integer apiece; the stable
        # sorts pair the k-th entry of a key with the k-th entry whose mirror has that key
        key = (src * n + dst) * gens.size + label_id
        mirror_key = (dst * n + src) * gens.size + gens.inverse_id[label_id]
        forward, backward = np.argsort(key, kind="stable"), np.argsort(mirror_key, kind="stable")
        if not np.array_equal(key[forward], mirror_key[backward]):
            raise ValueError("edge labelling is not symmetric under inversion")
        mirror = np.empty_like(forward)
        mirror[backward] = forward
        indptr = np.concatenate(([0], np.cumsum(degree)))
        for a in (indptr, dst, label_id, mirror):
            a.flags.writeable = False
        # the class is frozen, so the fields are stored past its __setattr__
        self.__dict__.update(n=n, indptr=indptr, indices=dst, label_id=label_id, mirror=mirror, gens=gens,
                             model=model, params={} if params is None else params, seed=seed)

    # -- derived views -------------------------------------------------

    @property
    def degree_bound(self) -> int:
        return self.gens.size

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    @cached_property
    def csr_lists(self) -> tuple[list[int], list[int]]:
        """``indptr`` and ``indices`` as lists: Python loops slice these faster than arrays."""
        return self.indptr.tolist(), self.indices.tolist()

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed entries as read-only (src, dst) index arrays, in row order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        src.flags.writeable = False
        return src, self.indices

    @cached_property
    def csr(self) -> sparse.csr_array:
        """Read-only n x n matrix of entry counts for ``scipy.sparse.csgraph``.

        Entry (u, v) counts the directed entries u -> v, so parallel edges
        are summed and a loop at u holds 2.
        """
        src, dst = self.edge_arrays
        m = sparse.csr_array((np.ones(len(src)), (src, dst)), shape=(self.n, self.n))
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
        return m

    @cached_property
    def neighbours_by_label(self) -> np.ndarray:
        """Read-only (n, |labels|) table of the neighbour of u along label id s, -1 if none.

        Raises ValueError when a label repeats at a vertex (label paths would
        be ambiguous); no built-in window model repeats one.
        """
        src, _ = self.edge_arrays
        key = src * self.gens.size + self.label_id
        if np.unique(key).size != key.size:
            raise ValueError("label repeats at a vertex; label paths are ambiguous")
        table = np.full((self.n, self.gens.size), -1, dtype=np.int64)
        table[src, self.label_id] = self.indices
        table.flags.writeable = False
        return table

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Derived view: per vertex, its ``(neighbour, label name)`` entries in row order."""
        ptr, idx = self.csr_lists
        entries = list(zip(idx, (self.gens.labels[s] for s in self.label_id.tolist())))
        return tuple(tuple(entries[a:b]) for a, b in zip(ptr, ptr[1:]))

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
    n = L**d
    u = np.arange(n, dtype=np.int64)
    dst = []
    for axis in range(d):  # label ids 2 * axis (+e) and 2 * axis + 1 (-e)
        weight = L**axis
        coord = (u // weight) % L
        dst += [u + ((coord + 1) % L - coord) * weight, u + ((coord - 1) % L - coord) * weight]
    return WindowGraph(n, np.tile(u, 2 * d), np.concatenate(dst), np.repeat(np.arange(2 * d), n),
                       torus_generators(d), "torus", {"d": d, "L": L})


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
    v = np.tile(np.arange(n, dtype=np.int64), k)
    sigma = np.concatenate([rng.permutation(n) for _ in range(k)])
    out_label = np.repeat(2 * np.arange(k), n)  # s_{i+1} has id 2i, its inverse 2i + 1
    return WindowGraph(n, np.concatenate([v, sigma]), np.concatenate([sigma, v]),
                       np.concatenate([out_label, out_label + 1]), free_generators(k),
                       "random-regular", {"k": k, "n": n}, seed=seed)


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
    src, dst, label = [], [], []
    for u, v in sorted((min(a, b), max(a, b)) for a, b in edges):
        idx = 0
        while idx in used_at[u] or idx in used_at[v]:
            idx += 1
        used_at[u].add(idx)
        used_at[v].add(idx)
        src += [u, v]
        dst += [v, u]
        label += [idx, idx]
    palette = max(label, default=0) + 1  # an edgeless window still needs a nonempty label set
    gens = GeneratorSet.paired([(f"e{i + 1}", f"e{i + 1}") for i in range(palette)])
    return WindowGraph(n, src, dst, label, gens, "explicit", {"n": n, "tag": tag})


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
    src, dst = w.edge_arrays
    label, rank, size = w.label_id, w.gens.name_rank, w.gens.size
    inverse = w.gens.inverse_id[label]
    keep = rank[label] * w.n + src < rank[inverse] * w.n + dst  # the smaller label, else the smaller end
    # a loop under a self-inverse label is two equal entries: one row per pair
    loop, count = np.unique((src * size + label)[(label == inverse) & (src == dst)], return_counts=True)
    loop = np.repeat(loop, count // 2)
    rows = np.concatenate([np.stack([src, dst, label], 1)[keep], np.stack([loop // size, loop // size, loop % size], 1)])
    rows = rows[np.lexsort((rank[rows[:, 2]], rows[:, 1], rows[:, 0]))].tolist()
    return {
        "model": w.model,
        "params": dict(w.params),
        "seed": w.seed,
        "n": w.n,
        "edges": [[u, v, w.gens.labels[s]] for u, v, s in rows],
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
    if type(n) is not int:
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    rows = []
    for u, v, s in data["edges"]:
        # bool is an int subclass, and the int64 array below would truncate a float
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {[u, v, s]!r}: vertex ids must be integers in 0..{n - 1}")
        if s not in gens.labels:
            raise ValueError(f"edge {[u, v, s]!r}: unknown edge label {s!r}")
        rows.append((u, v, gens.labels.index(s)))
    u, v, s = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    # each row stands for (u, v, s) and its mirror (v, u, s^-1); a loop row gives both at u
    return WindowGraph(n, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([s, gens.inverse_id[s]]),
                       gens, model, params, seed=data.get("seed"))


def window_from_json(text: str) -> WindowGraph:
    return window_from_dict(json.loads(text))
