"""Genetic search over binary pinning sets with a stability-violation penalty.

A chromosome is one uint8 row with one gene per vehicle (global node): gene j
says whether node j is pinned, and network k reads its pins as
``row[net.node_ids]``.  A pinned overlap vehicle therefore gets feedback in
each of its networks, each at that network's own solved gain.  Pinning a node
in all of its networks keeps the count and can only raise each network's
lambda_min, so this search still holds the best plans that pin a node in some
of its networks only.  Fitness counts the pinned nodes and, when any
network's certificate fails, adds penalty_coeff times the summed stability
violation xi, so the population is pulled toward certifiable sets while
minimizing their size.

Evolution follows tournament selection, uniform (or one-point) crossover,
independent bit-flip mutation, and elitist truncation of parents plus
offspring.  A generation's offspring are bred in array operations, each
kind of random choice (tournaments, crossover decisions, swaps, mutations)
drawn in one Generator call.  Everything is deterministic for a fixed seed.
A generation is a (P, G) gene matrix with parallel pinned-count, xi and
fitness vectors; the fitness of every row is recomputed from its count and
xi at the generation's penalty coefficient, so the adaptive penalty needs no
new certificate test.
Offspring are scored CHUNK_ROWS at a time.  A child is settled, and
dropped, once it is proven that it can neither survive truncation nor become
the best feasible find: its fitness would sort it after population_size
rows already scored, and its pinned count is at or above the best feasible
count or its xi is proven nonzero.  Fitness is at least the pinned count,
so some children are settled untested; the others are settled as soon as a
network's test proves their xi above the threshold, and skip the networks
that follow.  This changes no population, series or reported plan.
Beyond the current generation, the run keeps only the best feasible row it
has seen.  Only the reported chromosomes are read out as per-network gene
vectors and get gains.

The certificate tests go through one ``CertificateTest`` per network, built once
per search at the search gain, with one call per network and chunk on that
network's columns of the chunk's unsettled rows: stacked Cholesky factors
settle the feasible sets, a second factorisation proves xi above a row's
threshold where it can, and only the sets left are eigensolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .network import MultiNetworkSystem
from .stability import (
    CHUNK_ROWS,
    CertificateTest,
    StabilityParams,
    check_gain,
    solve_min_gain,
)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class GaConfig:
    """All evolutionary knobs plus the stability constants used by fitness."""

    population_size: int = 100
    generations: int = 20
    crossover_prob: float = 0.8
    mutation_prob: float = 0.05
    init_prob: float = 0.3
    penalty_coeff: float = 10.0
    tournament_size: int = 2
    rng_seed: int = 0
    stability: StabilityParams = field(default_factory=StabilityParams)
    crossover_op: str = "uniform"
    adaptive_penalty: bool = False
    fixed_gain: Optional[float] = None

    def __post_init__(self):
        for name in ("crossover_prob", "mutation_prob", "init_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.population_size < 1 or self.generations < 0:
            raise ValueError("population_size must be >= 1 and generations >= 0")
        if not (np.isfinite(self.penalty_coeff) and self.penalty_coeff >= 0.0):
            raise ValueError(f"penalty_coeff must be finite and >= 0, got {self.penalty_coeff!r}")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.crossover_op not in ("uniform", "one_point"):
            raise ValueError(f"unknown crossover_op {self.crossover_op!r}")
        gain = self.fixed_gain
        if gain is not None and not (np.isfinite(gain) and gain > 0.0):
            raise ValueError(f"fixed_gain must be finite and > 0 when set, got {gain!r}")


@dataclass(frozen=True)
class Individual:
    """A reported chromosome: its genes split per network, fitness, distinct pins and xi."""

    genes: tuple[np.ndarray, ...]
    fitness: float
    pinned_count: int
    xi: float

    @property
    def feasible(self) -> bool:
        return self.xi == 0.0


def _individual(sys: MultiNetworkSystem, genes: np.ndarray, fit, count, xi) -> Individual:
    """A chromosome row as reported: one gene vector per network."""
    split = tuple(genes[net.node_ids] for net in sys.networks)
    return Individual(genes=split, fitness=float(fit), pinned_count=int(count), xi=float(xi))


def _fitness(counts: np.ndarray, xi: np.ndarray, lam: float) -> np.ndarray:
    """Fitness of each row: its pinned count, plus lam * xi when infeasible."""
    return np.where(xi == 0.0, counts, counts + lam * xi)


def _certificate_tests(sys: MultiNetworkSystem, cfg: GaConfig) -> list[CertificateTest]:
    """One certificate test per network at the search gain: fixed_gain, else c_max."""
    gain = cfg.stability.c_max if cfg.fixed_gain is None else cfg.fixed_gain
    return [
        CertificateTest(
            net.lap.symmetric_part, net.coupling_strength, net.gamma, gain, cfg.stability
        )
        for net in sys.networks
    ]


def _violations(
    genes: np.ndarray,
    tests: Sequence[CertificateTest],
    sys: MultiNetworkSystem,
    settle: np.ndarray,
) -> np.ndarray:
    """Each row's xi, the networks' violations summed in network order, or proof it exceeds settle.

    A row is done once its xi is proven above its threshold in ``settle``:
    it skips the networks that follow, and each network's test gets the
    bound settle * (1 + 8 eps) - (sum so far), above which the rounded sum
    exceeds settle.  Such a row reads a partial sum or inf, above its
    threshold; every other row, and every row with an infinite threshold,
    reads its xi.
    """
    xi = np.zeros(len(genes))
    for test, net in zip(tests, sys.networks):
        live = np.flatnonzero(xi <= settle)
        if live.size == 0:
            break
        bounds = settle[live] * (1.0 + 8.0 * _EPS) - xi[live]
        xi[live] += test.xis(genes[live[:, np.newaxis], net.node_ids], bounds)
    return xi


def _pinned_counts(genes: np.ndarray, sys: MultiNetworkSystem) -> np.ndarray:
    """Pinned nodes per row: its gene sum, each overlap node being one gene."""
    if genes.ndim != 2 or genes.shape[1] != sys.total_nodes:
        raise ValueError(
            f"chromosome rows of shape {genes.shape[1:]} do not match the system: "
            f"they need {sys.total_nodes} genes, one gene per node"
        )
    return genes.sum(axis=1, dtype=np.int64)


def _settling_bounds(
    counts: np.ndarray,
    scored_fitness: np.ndarray,
    size: int,
    lam: float,
    best_count: float,
) -> np.ndarray:
    """The xi above which each offspring, of pinned count c, can change nothing in the run.

    The cut-off F is the size-th smallest fitness of the rows already scored:
    the parents and the offspring kept before these.  They all come first
    in the stable truncation sort, and a row's fitness is never below its
    pinned count, so an offspring whose fitness is at or above F, with
    c >= F, or strictly above it, is dropped.  With c >= F a child is dropped
    whatever its xi; it also cannot replace the best feasible find when
    c >= best_count (that rule is a strict <), so it is settled untested
    (-inf), and otherwise once xi > 0 proves it infeasible (0).  With c < F
    the threshold is an upper bound on (F - c + ulp(F)) / lam, above which
    the rounded c + lam * xi passes F; it is inf when lam is 0 or fewer than
    size rows are scored.
    """
    if len(scored_fitness) < size:
        return np.full(len(counts), np.inf)
    cut = np.partition(scored_fitness, size - 1)[size - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = ((cut - counts) + 2.0 * np.spacing(cut)) / lam * (1.0 + 8.0 * _EPS)
    return np.where(counts >= cut, np.where(counts >= best_count, -np.inf, 0.0), reach)


def _gains(genes: Sequence[np.ndarray], sys: MultiNetworkSystem, cfg: GaConfig):
    """Each network's gain for per-network genes: tested at fixed_gain, else solved."""
    gains = []
    for net, g in zip(sys.networks, genes):
        a = (net.lap.symmetric_part, g.astype(np.float64), net.coupling_strength, net.gamma)
        if cfg.fixed_gain is None:
            result = solve_min_gain(*a, cfg.stability)
        else:
            result = check_gain(*a, cfg.fixed_gain, cfg.stability)
        gains.append(result.gain)
    return tuple(gains)


def init_population(
    cfg: GaConfig, sys: MultiNetworkSystem, rng: np.random.Generator
) -> np.ndarray:
    """population_size chromosome rows with each gene ~ Bernoulli(p_d)."""
    shape = (cfg.population_size, sys.total_nodes)
    return (rng.random(shape) < cfg.init_prob).astype(np.uint8)


def tournament_select(
    fitness: np.ndarray, counts: np.ndarray, k: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Row indices of ``size`` winners, each the best of k uniform draws with replacement.

    All size * k draws come from one Generator call.  Ties break toward fewer
    pinned nodes, then the lower row index.
    """
    if len(fitness) == 0:
        raise ValueError("population must not be empty")
    if k < 1:
        raise ValueError("tournament size must be >= 1")
    # lexsort is stable, so rows of equal (fitness, count) keep index order.
    order = np.lexsort((counts, fitness))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    draws = rng.integers(0, len(fitness), size=(size, k))
    return order[rank[draws].min(axis=1)]


def crossover(
    a: np.ndarray,
    b: np.ndarray,
    p_c: float,
    rng: np.random.Generator,
    op: str = "uniform",
) -> tuple[np.ndarray, np.ndarray]:
    """Mate row i of ``a`` with row i of ``b``: mix them with probability p_c, else copy.

    One call draws every pair's decision and one more every pair's swap:
    uniform crossover swaps each gene between the children with probability
    one half, and one-point crossover swaps the genes from a cut in 1..N-1
    on.  A row of one gene has no cut to draw, and a one-point crossover
    swaps that gene.  The children never share memory with the parents.
    """
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("parents must be two gene matrices of one shape")
    pairs, total = a.shape
    mixed = rng.random(pairs) < p_c
    if op == "uniform":
        swap = rng.random((pairs, total)) < 0.5
    elif op == "one_point":
        cut = rng.integers(1, total, size=pairs) if total > 1 else np.zeros(pairs, np.int64)
        swap = np.arange(total) >= cut[:, np.newaxis]
    else:
        raise ValueError(f"unknown crossover op {op!r}")
    swap &= mixed[:, np.newaxis]
    return np.where(swap, b, a), np.where(swap, a, b)


def mutate(genes: np.ndarray, p_m: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each gene of a gene matrix independently with probability p_m, in one draw."""
    return genes ^ (rng.random(genes.shape) < p_m).astype(np.uint8)


def _breed(
    genes: np.ndarray, fit: np.ndarray, counts: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> np.ndarray:
    """population_size offspring rows by tournament selection, crossover and mutation.

    Parents 2i and 2i + 1 of the tournament winners mate, their children
    take rows 2i and 2i + 1, and an odd population drops the last child.
    Each operator draws the whole generation in one Generator call.
    """
    pairs = -(-cfg.population_size // 2)
    won = genes[tournament_select(fit, counts, cfg.tournament_size, rng, 2 * pairs)]
    children = crossover(won[0::2], won[1::2], cfg.crossover_prob, rng, op=cfg.crossover_op)
    brood = np.stack(children, axis=1).reshape(2 * pairs, -1)[: cfg.population_size]
    return mutate(brood, cfg.mutation_prob, rng)


@dataclass(frozen=True)
class GaReport:
    """Evolution outcome: incumbent, best feasible find and statistics series.

    ``best`` is the lowest-fitness individual of the final population; when
    violations are small the penalty can rank a near-feasible set above a
    feasible one, so ``best_feasible`` separately tracks the lowest-count
    feasible chromosome seen anywhere in the run (None when none was found).
    ``best_gains`` and ``feasible_gains`` are their per-network gains, solved
    after the last generation (None where a network does not certify).  The
    series include the initial population as generation 0, so their length is
    generations + 1.  ``first_feasible_generation`` is the generation in which
    the run first found a feasible chromosome and ``best_feasible_generation``
    the one in which it found ``best_feasible`` (None when none was found).

    The work counters count per network test, not per chromosome.
    ``lmi_evaluations`` counts the certificate tests run: a chromosome is
    tested in network order until it is settled, so it takes between zero
    and num_networks of them.  ``pruned`` counts the offspring settled
    untested, by their pinned count alone.  ``bound_settled`` counts the
    tests whose proof pass settled the chromosome without a spectrum, and
    ``eigensolves`` those that fell through to an eigensolve.  The tests
    neither counts passed the Cholesky test.  ``gain_solves`` counts the
    per-network gains found for the reported chromosomes: a minimal-gain
    solve each, or a ``check_gain`` at the fixed gain.
    """

    best: Individual
    best_feasible: Optional[Individual]
    best_gains: tuple[Optional[float], ...]
    feasible_gains: Optional[tuple[float, ...]]
    generations: np.ndarray
    best_fitness: np.ndarray
    mean_fitness: np.ndarray
    best_pinned_count: np.ndarray
    feasible_fraction: np.ndarray
    first_feasible_generation: Optional[int]
    best_feasible_generation: Optional[int]
    lmi_evaluations: int
    eigensolves: int
    bound_settled: int
    gain_solves: int
    pruned: int

    def to_dict(self) -> dict:
        def bits(ind: Individual) -> list[str]:
            return ["".join(map(str, g.tolist())) for g in ind.genes]

        d = {
            "best_fitness": self.best.fitness,
            "best_pinned_count": self.best.pinned_count,
            "best_is_feasible": self.best.feasible,
            "best_xi": self.best.xi,
            "best_gains": [None if g is None else float(g) for g in self.best_gains],
            "best_genes": bits(self.best),
            "generations": self.generations.tolist(),
            "best_fitness_series": self.best_fitness.tolist(),
            "mean_fitness_series": self.mean_fitness.tolist(),
            "best_pinned_count_series": self.best_pinned_count.tolist(),
            "feasible_fraction_series": self.feasible_fraction.tolist(),
            "first_feasible_generation": self.first_feasible_generation,
            "best_feasible_generation": self.best_feasible_generation,
            "lmi_evaluations": self.lmi_evaluations,
            "eigensolves": self.eigensolves,
            "bound_settled": self.bound_settled,
            "gain_solves": self.gain_solves,
            "pruned": self.pruned,
        }
        if self.best_feasible is None:
            d["feasible_best"] = None
        else:
            d["feasible_best"] = {
                "pinned_count": self.best_feasible.pinned_count,
                "gains": [float(g) for g in self.feasible_gains],
                "genes": bits(self.best_feasible),
            }
        return d

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("generation,best_fitness,mean_fitness,best_pinned_count,feasible_fraction\n")
            for row in zip(
                self.generations,
                self.best_fitness,
                self.mean_fitness,
                self.best_pinned_count,
                self.feasible_fraction,
            ):
                fh.write(
                    f"{row[0]},{row[1]:.17g},{row[2]:.17g},{row[3]},{row[4]:.17g}\n"
                )


def evolve(cfg: GaConfig, sys: MultiNetworkSystem) -> GaReport:
    """Run the full evolutionary loop and report per-generation statistics.

    Generation 0 is the initial draw.  Each later generation breeds
    population_size offspring via tournament selection, crossover and
    mutation, then keeps the best population_size rows of parents and
    offspring combined, ranked by (fitness, pinned count) in a stable sort.
    With adaptive_penalty the coefficient grows linearly to twice its base
    value over the run, and every row is scored at its generation's
    coefficient without a new test.  Offspring are scored CHUNK_ROWS at a
    time against the ``_settling_bounds`` of the rows scored before them, so
    the survival cut-off tightens as the brood is scored; a settled child
    is dropped, untested or as soon as its tests prove it settled.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    tests = _certificate_tests(sys, cfg)
    size = cfg.population_size
    genes = np.zeros((0, sys.total_nodes), dtype=np.uint8)
    counts, xi = np.zeros(0, dtype=np.int64), np.zeros(0)
    # (pinned count, row, generation) of the best feasible find
    best: Optional[tuple[int, np.ndarray, int]] = None
    first_feasible: Optional[int] = None
    pruned = 0
    series = np.zeros((4, cfg.generations + 1))
    for gen in range(cfg.generations + 1):
        growth = gen / cfg.generations if cfg.adaptive_penalty and cfg.generations else 0.0
        lam = cfg.penalty_coeff * (1.0 + growth)
        if gen == 0:
            brood = init_population(cfg, sys, rng)
        else:
            brood = _breed(genes, fit, counts, cfg, rng)
        brood_counts = _pinned_counts(brood, sys)
        brood_xi = np.zeros(len(brood))
        kept = np.ones(len(brood), dtype=bool)
        fits = [_fitness(counts, xi, lam)]
        for start in range(0, len(brood), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            c = brood_counts[rows]
            best_count = np.inf if best is None else best[0]
            settle = _settling_bounds(c, np.concatenate(fits), size, lam, best_count)
            pruned += int(np.count_nonzero(settle < 0.0))
            chunk_xi = _violations(brood[rows], tests, sys, settle)
            scored = chunk_xi <= settle
            kept[rows], brood_xi[rows] = scored, chunk_xi
            fits.append(_fitness(c[scored], chunk_xi[scored], lam))
            feasible = np.flatnonzero(scored & (chunk_xi == 0.0))
            if feasible.size:
                i = feasible[np.argmin(c[feasible])]
                if c[i] < best_count:
                    best = int(c[i]), brood[start + i], gen
                    first_feasible = gen if first_feasible is None else first_feasible
        counts = np.concatenate([counts, brood_counts[kept]])
        xi = np.concatenate([xi, brood_xi[kept]])
        fit = np.concatenate(fits)
        keep = np.lexsort((counts, fit))[:size]
        genes = np.concatenate([genes, brood[kept]])[keep]
        counts, xi, fit = counts[keep], xi[keep], fit[keep]
        series[:, gen] = fit[0], fit.mean(), counts[0], np.mean(xi == 0.0)

    top = _individual(sys, genes[0], fit[0], counts[0], xi[0])
    best_feasible = None if best is None else _individual(sys, best[1], best[0], best[0], 0.0)
    return GaReport(
        best=top,
        best_feasible=best_feasible,
        best_gains=_gains(top.genes, sys, cfg),
        feasible_gains=None if best is None else _gains(best_feasible.genes, sys, cfg),
        generations=np.arange(cfg.generations + 1),
        best_fitness=series[0],
        mean_fitness=series[1],
        best_pinned_count=series[2].astype(np.int64),
        feasible_fraction=series[3],
        first_feasible_generation=first_feasible,
        best_feasible_generation=None if best is None else best[2],
        lmi_evaluations=sum(test.tested for test in tests),
        eigensolves=sum(test.eigensolves for test in tests),
        bound_settled=sum(test.bound_settled for test in tests),
        gain_solves=sys.num_networks * (1 if best is None else 2),
        pruned=pruned,
    )
