"""Directed weighted networks, their Laplacians, and multi-network overlap structure.

A network couples nodes through an asymmetric nonnegative adjacency matrix G
(zero diagonal).  The associated Laplacian L has row sums zero; because G is
asymmetric, stability analysis works with the symmetric part
L_s = (L + L^T) / 2.  Several networks may share nodes: a system is its
networks, each node's membership set is the networks whose node ids contain
it, and every node gets a composite target equal to the arithmetic mean of
its member networks' targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def generate_adjacency(n: int, threshold: float, rng_seed: int) -> np.ndarray:
    """Sample a sparse asymmetric adjacency matrix.

    Each off-diagonal entry is drawn uniformly on [0, 1) and kept (with its
    sampled value) only if it exceeds ``threshold``; the diagonal is zero.
    Deterministic for a given seed.
    """
    if n < 1:
        raise ValueError("cannot generate an empty network (n must be >= 1)")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    rng = np.random.default_rng(rng_seed)
    u = rng.random((n, n))
    g = np.where(u > threshold, u, 0.0)
    np.fill_diagonal(g, 0.0)
    return g


@dataclass(frozen=True)
class LaplacianPair:
    """A Laplacian together with its symmetric part (L + L^T) / 2."""

    laplacian: np.ndarray
    symmetric_part: np.ndarray


def laplacian(adjacency: np.ndarray) -> LaplacianPair:
    """Build the Laplacian of a directed weighted graph.

    L_ii is the i-th row sum of G and L_ij = -G_ij off the diagonal, so that
    L @ 1 = 0 exactly.
    """
    g = np.asarray(adjacency, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {g.shape}")
    if np.any(np.diagonal(g) != 0.0):
        raise ValueError("adjacency diagonal must be zero")
    if np.any(g < 0.0):
        raise ValueError("adjacency entries must be nonnegative")
    lap = -g.copy()
    np.fill_diagonal(lap, g.sum(axis=1))
    sym = (lap + lap.T) / 2.0
    return LaplacianPair(laplacian=_frozen(lap), symmetric_part=_frozen(sym))


@dataclass(frozen=True)
class DirectedNetwork:
    """One coupled network: adjacency, coupling constants and target state.

    ``node_ids`` are the global node identifiers this network spans, in the
    order used by the adjacency rows/columns (0..n-1 when omitted).
    ``target`` is the consensus state all member nodes should reach (an
    m-vector; scalars are promoted to m = 1).  The Laplacian pair is derived
    eagerly and cached on the instance.
    """

    adjacency: np.ndarray
    coupling_strength: float
    gamma: float = 1.0
    target: float | Sequence[float] | np.ndarray = 0.0
    node_ids: Optional[Sequence[int] | np.ndarray] = None
    n: int = field(init=False)
    lap: LaplacianPair = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.adjacency, dtype=np.float64)
        pair = laplacian(g)  # validates shape, diagonal and sign
        for name in ("coupling_strength", "gamma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        target = np.atleast_1d(np.asarray(self.target, dtype=np.float64))
        if target.ndim != 1:
            raise ValueError("target must be a scalar or 1-d state vector")
        ids = np.arange(len(g)) if self.node_ids is None else self.node_ids
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (g.shape[0],):
            raise ValueError("node_ids length must match adjacency size")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("node_ids must be unique")
        if np.any(ids < 0):
            raise ValueError("node_ids must be >= 0")
        object.__setattr__(self, "adjacency", _frozen(g))
        object.__setattr__(self, "target", _frozen(target))
        object.__setattr__(self, "node_ids", _frozen(ids))
        object.__setattr__(self, "n", int(g.shape[0]))
        object.__setattr__(self, "lap", pair)

    @property
    def state_dim(self) -> int:
        return self.target.shape[0]


@dataclass(frozen=True)
class MembershipProfile:
    """Declarative overlap structure: network sizes plus per-multiplicity counts.

    ``overlap_counts`` maps membership multiplicity (1 = single network,
    2 = shared by two, ...) to the number of nodes in that class.  The counting
    identity sum(sizes) == sum(mult * count) must hold.
    """

    network_sizes: tuple[int, ...]
    overlap_counts: Mapping[int, int]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.network_sizes)
        counts = {int(m): int(c) for m, c in self.overlap_counts.items()}
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("network sizes must all be >= 1")
        k = len(sizes)
        if any(m < 1 or m > k for m in counts) or any(c < 0 for c in counts.values()):
            raise ValueError("overlap multiplicities must lie in 1..K with counts >= 0")
        if sum(m * c for m, c in counts.items()) != sum(sizes):
            raise ValueError(
                "infeasible profile: sum of network sizes must equal "
                "sum(multiplicity * count) over overlap classes"
            )
        object.__setattr__(self, "network_sizes", sizes)
        object.__setattr__(self, "overlap_counts", dict(sorted(counts.items())))

    @property
    def total_nodes(self) -> int:
        return sum(self.overlap_counts.values())

    @property
    def num_networks(self) -> int:
        return len(self.network_sizes)


# Built-in overlap profiles: (network sizes), {multiplicity: node count}.
PROFILES: dict[str, MembershipProfile] = {
    "small-50": MembershipProfile((35, 25, 25), {3: 5, 2: 25, 1: 20}),
    "medium-100": MembershipProfile((70, 50, 50), {3: 10, 2: 50, 1: 40}),
    "large-200": MembershipProfile((140, 100, 100), {3: 20, 2: 100, 1: 80}),
}


def generate_membership(
    n_nodes: int, profile: str | MembershipProfile, rng_seed: int
) -> tuple[frozenset[int], ...]:
    """Assign each node a set of network indices matching ``profile`` exactly.

    Which nodes land in which overlap class, and which networks a shared node
    joins, are randomized given the seed; the class sizes and the per-network
    sizes are exact.  Assignment walks multiplicity classes from largest to
    smallest, always joining the networks with the most remaining capacity
    (random tie-break), which succeeds whenever the profile is feasible.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown profile {profile!r}; built-ins: {sorted(PROFILES)}"
            ) from None
    if profile.total_nodes > n_nodes:
        raise ValueError(
            f"infeasible profile: class counts total {profile.total_nodes} "
            f"nodes but only {n_nodes} exist"
        )
    if profile.total_nodes != n_nodes:
        raise ValueError(
            f"profile covers {profile.total_nodes} nodes but N={n_nodes}; "
            "every node needs a membership"
        )
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(n_nodes)
    caps = np.array(profile.network_sizes, dtype=np.int64)
    memberships: list[set[int]] = [set() for _ in range(n_nodes)]
    pos = 0
    for mult in sorted(profile.overlap_counts, reverse=True):
        for _ in range(profile.overlap_counts[mult]):
            node = int(order[pos])
            pos += 1
            tie = rng.random(len(caps))
            chosen = np.lexsort((tie, -caps))[:mult]
            if caps[chosen].min() <= 0:
                raise ValueError("infeasible profile: ran out of network capacity")
            for k in chosen:
                memberships[node].add(int(k))
            caps[chosen] -= 1
    return tuple(frozenset(m) for m in memberships)


@dataclass(frozen=True)
class MultiNetworkSystem:
    """K networks over the shared global nodes 0..N-1 with composite targets.

    Everything but the networks is derived from their node ids:
    ``memberships[i]`` is the set of networks whose ids contain node i, N is
    one more than the largest id, and ``composite_targets`` holds, per node,
    the mean of the member networks' targets (an (N, m) array).  Every node
    0..N-1 must belong to some network.
    """

    networks: tuple[DirectedNetwork, ...]
    memberships: tuple[frozenset[int], ...] = field(init=False)
    total_nodes: int = field(init=False)
    composite_targets: np.ndarray = field(init=False)

    def __post_init__(self):
        nets = tuple(self.networks)
        if not nets:
            raise ValueError("a system needs at least one network")
        dims = {net.state_dim for net in nets}
        if len(dims) != 1:
            raise ValueError("all networks must share one state dimension m")
        n_total = max((int(net.node_ids.max()) + 1 for net in nets if net.n), default=0)
        memb: list[set[int]] = [set() for _ in range(n_total)]
        total = np.zeros((n_total, dims.pop()))
        for k, net in enumerate(nets):
            for i in net.node_ids.tolist():
                memb[i].add(k)
            total[net.node_ids] += net.target
        for i, m in enumerate(memb):
            if not m:
                raise ValueError(f"orphan node {i}: belongs to no network")
        counts = np.array([len(m) for m in memb], dtype=np.float64)
        object.__setattr__(self, "networks", nets)
        object.__setattr__(self, "memberships", tuple(frozenset(m) for m in memb))
        object.__setattr__(self, "total_nodes", n_total)
        object.__setattr__(self, "composite_targets", _frozen(total / counts[:, None]))

    @property
    def num_networks(self) -> int:
        return len(self.networks)

    @property
    def state_dim(self) -> int:
        return self.networks[0].state_dim


def save_adjacency(path: str | Path, adjacency: np.ndarray) -> None:
    """Write a dense adjacency matrix as CSV with a ``# n=<N>`` header."""
    g = np.asarray(adjacency, dtype=np.float64)
    n = g.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n")
        for row in g:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_adjacency(path: str | Path) -> np.ndarray:
    """Read an adjacency matrix written by :func:`save_adjacency`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n="):
            raise ValueError(f"{path}: missing '# n=<N>' header")
        n = int(header[4:])
        rows = [
            [float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    g = np.array(rows, dtype=np.float64)
    if g.shape != (n, n):
        raise ValueError(f"{path}: expected {n}x{n} matrix, got {g.shape}")
    return g
