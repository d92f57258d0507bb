"""Finite window graphs with generator-labelled edges.

A window is a finite bounded-degree graph standing in for one sample patch
of a vertex-transitive (or statistically homogeneous) infinite graph.  Two
built-in families:

* ``torus``: the Cayley graph of (Z/LZ)^d with the 2d coordinate shifts;
  exactly 2d-regular and vertex-transitive.
* ``random-regular``: the permutation model.  k independent uniform
  permutations each contribute one labelled edge per vertex; the result is
  2k-regular counting loops and parallel edges with multiplicity.

Paths and complete graphs are ``explicit`` windows (params ``n`` and
``tag``) whose self-inverse labels e1, e2, ... come in closed form, so
that every vertex sees each label at most once:

* path: edge (i, i + 1) gets label id i % 2;
* K_n: edge (i, j) gets label id (i XOR j) - 1.  The nim-sum is the greedy
  lexicographic proper labelling (each edge, in sorted order, takes the
  smallest label free at both ends: the mex rule), and it uses
  2^ceil(log2 n) - 1 labels.

Arbitrary graphs enter as window files (``window_from_dict``), which carry
their own labels.

A window is stored as CSR arrays: row u, the slice ``indptr[u]:indptr[u+1]``
of ``indices`` (neighbours) and ``label_id`` (indices into ``gens.labels``),
holds one entry per edge end at u, so a loop fills two.  Rows are ordered by
(label *name*, neighbour); ball discovery and mass-transport summation follow
that order.  ``mirror`` pairs each entry (u, v, s) with an entry (v, u, s^-1)
and is its own inverse (a loop under a self-inverse label is its own mirror,
and such loops come in pairs, one per undirected loop).
``neighbour_rows``, each row's neighbours as a list, is the view that the
Python loops (ball cuts, annealer steps) read; ``csr`` is the same arrays as
the scipy matrix that ``scipy.sparse.csgraph`` reads; ``adjacency``,
per-vertex (neighbour, label name) tuples, is a read-only view derived from
the arrays for tests and outside tooling.

Windows are built by one of two routes:

* a label action, ``WindowGraph._from_permutations``: a table whose row s
  is the permutation that label id s applies to the vertices.  Every row
  then holds exactly one entry per label, so rows, labels and mirror follow
  by index arithmetic with no sort.  Tori and the permutation model are
  built this way.
* a list of directed entries in any order, ``WindowGraph(...)``: two stable
  sorts put them in row order and pair each with its mirror, and any
  violation raises.  Explicit windows and window files are built this way,
  and the tests hold the label-action route to it.
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
    def id_of(self) -> dict[str, int]:
        """Label name -> id (index in ``labels``)."""
        return {s: i for i, s in enumerate(self.labels)}

    @cached_property
    def inverse_id(self) -> np.ndarray:
        """Label id -> id of its inverse."""
        return np.array([self.id_of[self.inverse[s]] for s in self.labels], dtype=np.int64)

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
        vertex has more entries than there are labels, each entry (u, v, s)
        occurs exactly as often as its mirror (v, u, s^-1), and each loop
        under a self-inverse label occurs an even number of times.
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
        # such a loop is its own mirror, and an undirected loop fills two entries
        loop = (src == dst) & (gens.inverse_id[label_id] == label_id)
        at, count = np.unique(src[loop] * gens.size + label_id[loop], return_counts=True)
        if (count % 2).any():
            u, s = divmod(int(at[count % 2 == 1][0]), gens.size)
            raise ValueError(f"unpaired loop at vertex {u} under self-inverse label {gens.labels[s]!r}")
        # each entry and its required mirror, as a row (src) and a within-row key that rises with
        # (label name, dst) and stays below labels * n, so no packed key wraps; the stable sorts put
        # the entries in row order and pair the k-th entry of a (row, key) with the k-th entry
        # whose mirror has them
        rank = gens.name_rank
        key = rank[label_id] * n + dst
        order = np.lexsort((key, src))
        src, dst, label_id, key = src[order], dst[order], label_id[order], key[order]
        mirror_key = rank[gens.inverse_id[label_id]] * n + src
        backward = np.lexsort((mirror_key, dst))
        if not (np.array_equal(src, dst[backward]) and np.array_equal(key, mirror_key[backward])):
            raise ValueError("edge labelling is not symmetric under inversion")
        mirror = np.empty_like(backward)
        mirror[backward] = np.arange(len(key))
        self._store(n, np.concatenate(([0], np.cumsum(degree))), dst, label_id, mirror, gens, model, params, seed)

    @classmethod
    def _from_permutations(cls, perms, gens: GeneratorSet, model: str, params: dict | None = None,
                           seed: int | None = None) -> "WindowGraph":
        """Window of a label action: ``perms[s, u]`` is the vertex that label id s moves u to.

        Each row holds one entry per label, so its (label name, neighbour) order is the label
        name order, and every array follows by index arithmetic, with no sort.  Raises
        ValueError unless the table has one row per label and at least one column, every
        entry is a vertex, each label's row inverts its inverse label's row, and no
        self-inverse label fixes a vertex (that would be a loop filling one entry, not two).
        """
        perms = np.asarray(perms, dtype=np.int64)
        k = gens.size
        if perms.ndim != 2 or perms.shape[0] != k or perms.shape[1] < 1:
            raise ValueError(f"permutation table has shape {perms.shape}, not ({k}, n) with n >= 1")
        n = perms.shape[1]
        if perms.min() < 0 or perms.max() >= n:
            raise ValueError(f"neighbour {perms[(perms < 0) | (perms >= n)][0]} out of range")
        identity = np.arange(n, dtype=np.int64)
        inverse_id = gens.inverse_id
        for s in range(k):
            if not np.array_equal(perms[inverse_id[s]][perms[s]], identity):
                raise ValueError(f"label {gens.labels[s]!r} is not undone by {gens.inverse[gens.labels[s]]!r}")
            fixed = np.flatnonzero(perms[s] == identity) if inverse_id[s] == s else []
            if len(fixed):
                raise ValueError(f"unpaired loop at vertex {fixed[0]} under self-inverse label {gens.labels[s]!r}")
        row = np.argsort(gens.name_rank)  # the label ids in row order
        slot = np.empty(k, dtype=np.int64)
        slot[row] = np.arange(k)
        indices = perms[row].T.reshape(-1)
        # entry (u, v, s) sits at u * k + slot[s]; its mirror (v, u, s^-1) at v * k + slot[s^-1]
        mirror = indices.reshape(n, k) * k
        mirror += slot[inverse_id[row]]
        w = cls.__new__(cls)
        w._store(n, np.arange(0, k * n + 1, k, dtype=np.int64), indices, np.tile(row, n),
                 mirror.reshape(-1), gens, model, params, seed)
        return w

    def _store(self, n, indptr, indices, label_id, mirror, gens, model, params, seed):
        for a in (indptr, indices, label_id, mirror):
            a.flags.writeable = False
        # the class is frozen, so the fields are stored past its __setattr__
        self.__dict__.update(n=n, indptr=indptr, indices=indices, label_id=label_id, mirror=mirror, gens=gens,
                             model=model, params={} if params is None else params, seed=seed)

    # -- derived views -------------------------------------------------

    @property
    def degree_bound(self) -> int:
        return self.gens.size

    @cached_property
    def neighbour_rows(self) -> tuple[list[int], ...]:
        """Per vertex, its row of ``indices`` as a list: Python loops read these faster than arrays."""
        idx, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(idx[a:b] for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed entries as read-only (src, dst) index arrays, in row order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        src.flags.writeable = False
        return src, self.indices

    @cached_property
    def csr(self) -> sparse.csr_array:
        """The window as an n x n matrix for ``scipy.sparse.csgraph``: a view that shares
        ``indices`` and ``indptr``, with one read-only unit entry per directed entry, so
        parallel entries stay apart and a loop at u is two entries (u, u)."""
        ones = np.ones(self.indices.size)
        ones.flags.writeable = False
        return sparse.csr_array((ones, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Derived view: per vertex, its ``(neighbour, label name)`` entries in row order."""
        labels, ptr = [self.gens.labels[s] for s in self.label_id.tolist()], self.indptr.tolist()
        return tuple(tuple(zip(row, labels[a:b])) for row, a, b in zip(self.neighbour_rows, ptr, ptr[1:]))

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

    Vertex u has coordinates (u // L**a) % L; label +e(a+1) (id 2a) adds 1 to
    coordinate a mod L and -e(a+1) (id 2a + 1) subtracts it.  The window is
    built from that label action (``WindowGraph._from_permutations``).
    L >= 3 is required: at L = 2 the two shift directions collapse onto the
    same neighbour and the window stops being 2d-regular without multi-edges.
    """
    if d < 1:
        raise ValueError("dimension d must be positive")
    if L < 3:
        raise ValueError("torus side L must satisfy L >= 3")
    n = L**d
    u = np.arange(n, dtype=np.int64)
    perms = np.empty((2 * d, n), dtype=np.int64)
    for axis in range(d):
        weight = L**axis
        coord = (u // weight) % L
        perms[2 * axis] = u + ((coord + 1) % L - coord) * weight
        perms[2 * axis + 1] = u + ((coord - 1) % L - coord) * weight
    return WindowGraph._from_permutations(perms, torus_generators(d), "torus", {"d": d, "L": L})


def build_random_regular(k: int, n: int, seed: int) -> WindowGraph:
    """Permutation-model 2k-regular multigraph on n vertices.

    Each of k independent uniform permutations sigma_i, drawn in turn from the
    seed's "random-regular" stream, contributes the edges (v, sigma_i(v))
    labelled s_{i+1}; its inverse label s_{i+1}' moves v to sigma_i^-1(v).
    Loops and parallel edges are kept and counted in the degree.  The window
    is built from that label action (``WindowGraph._from_permutations``).
    """
    if k < 1:
        raise ValueError("rank k must be positive")
    if n < 2 * k + 1:
        raise ValueError("need n >= 2k + 1 vertices")
    rng = derive_rng(seed, "random-regular")
    identity = np.arange(n, dtype=np.int64)
    perms = np.empty((2 * k, n), dtype=np.int64)
    for i in range(k):  # s_{i+1} has id 2i, its inverse 2i + 1
        sigma = rng.permutation(n)
        perms[2 * i] = sigma
        perms[2 * i + 1][sigma] = identity
    return WindowGraph._from_permutations(perms, free_generators(k), "random-regular", {"k": k, "n": n}, seed=seed)


def _explicit(n: int, u: np.ndarray, v: np.ndarray, label: np.ndarray, tag: str) -> WindowGraph:
    """Window of the undirected edges (u[i], v[i]) under self-inverse label ids ``label[i]``
    (names e1, e2, ...; the palette runs up to the largest id used)."""
    gens = GeneratorSet.paired([(f"e{s + 1}", f"e{s + 1}") for s in range(int(label.max()) + 1)])
    return WindowGraph(n, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([label, label]),
                       gens, "explicit", {"n": n, "tag": tag})


def build_path(n: int) -> WindowGraph:
    """Path 0 - 1 - ... - (n-1); edge (i, i + 1) has label id i % 2."""
    if n < 2:
        raise ValueError("a path needs at least two vertices")
    i = np.arange(n - 1, dtype=np.int64)
    return _explicit(n, i, i + 1, i % 2, f"path{n}")


def build_complete(n: int) -> WindowGraph:
    """K_n; edge (i, j) has label id (i XOR j) - 1, on 2^ceil(log2 n) - 1 labels."""
    if n < 2:
        raise ValueError("a complete graph needs at least two vertices")
    i, j = np.triu_indices(n, 1)
    return _explicit(n, i, j, (i ^ j) - 1, f"complete{n}")


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
    rows, ids = [], gens.id_of
    for u, v, s in data["edges"]:
        # bool is an int subclass, and the int64 array below would truncate a float
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {[u, v, s]!r}: vertex ids must be integers in 0..{n - 1}")
        if type(s) is not str or s not in ids:
            raise ValueError(f"edge {[u, v, s]!r}: unknown edge label {s!r}")
        rows.append((u, v, ids[s]))
    u, v, s = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    # each row stands for (u, v, s) and its mirror (v, u, s^-1); a loop row gives both at u
    return WindowGraph(n, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([s, gens.inverse_id[s]]),
                       gens, model, params, seed=data.get("seed"))
