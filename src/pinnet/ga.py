"""Genetic search over binary pinning sets with a stability-violation penalty.

A chromosome holds one bit per (node, member network) pair: bit k/i says
whether node i is pinned inside network k.  Positions outside a node's
membership do not exist.  Fitness counts the distinct pinned nodes (an overlap
node pinned in several networks counts once) and, when any network's gain
search fails, adds penalty_coeff times the summed stability violation, so the
population is pulled toward certifiable sets while minimizing their size.

Evolution follows tournament selection, uniform (or one-point) crossover,
independent bit-flip mutation, and elitist truncation of parents plus
offspring.  Everything is deterministic for a fixed seed.  Every chromosome
bred gets one certificate test per network, with no store of past
evaluations; beyond the current population, the run keeps only the best
feasible individual it has seen.  Only the reported chromosomes get gains.

The certificate tests go through one ``CertificateTest`` per network, built once
per search at the search gain.  Each generation is scored with one call per
network on the matrix of its pin sets: a Cholesky factor settles a feasible
set, and only the sets it rejects are eigensolved.  Crossover and mutation
draw their random numbers for the whole chromosome at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .network import MultiNetworkSystem
from .stability import (
    CertificateTest,
    PinningPlan,
    StabilityParams,
    check_gain,
    solve_min_gain,
)


@dataclass(frozen=True)
class Chromosome:
    """Per-network binary pin indicators, aligned with each network's nodes."""

    genes: tuple[np.ndarray, ...]  # uint8 arrays


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
        if self.penalty_coeff < 0.0:
            raise ValueError("penalty_coeff must be >= 0")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.crossover_op not in ("uniform", "one_point"):
            raise ValueError(f"unknown crossover_op {self.crossover_op!r}")
        if self.fixed_gain is not None and self.fixed_gain <= 0.0:
            raise ValueError("fixed_gain must be > 0 when set")


@dataclass(frozen=True)
class FitnessDetails:
    """One chromosome's evaluation: distinct pin count and summed violation."""

    pinned_count: int
    xi: float
    feasible: bool

    def score(self, penalty_coeff: float) -> float:
        """Fitness: the pinned count, plus penalty_coeff * xi when infeasible."""
        if self.feasible:
            return float(self.pinned_count)
        return float(self.pinned_count) + penalty_coeff * self.xi


def fitness(
    ch: Chromosome,
    sys: MultiNetworkSystem,
    cfg: GaConfig,
    penalty_coeff: Optional[float] = None,
) -> tuple[float, FitnessDetails]:
    """Evaluate one chromosome: distinct-pin count plus violation penalty.

    Tests each network's certificate at cfg.fixed_gain when set, else at c_max,
    which certifies exactly the sets that some gain up to c_max does (lambda_min
    does not fall as the gain grows).  Feasible sets score their pinned count.
    """
    lam = cfg.penalty_coeff if penalty_coeff is None else penalty_coeff
    return _score([ch], sys, _certificate_tests(sys, cfg), lam)[0]


def _certificate_tests(sys: MultiNetworkSystem, cfg: GaConfig) -> list[CertificateTest]:
    """One certificate test per network at the search gain: fixed_gain, else c_max."""
    gain = cfg.stability.c_max if cfg.fixed_gain is None else cfg.fixed_gain
    return [
        CertificateTest(
            net.lap.symmetric_part, net.coupling_strength, net.gamma, gain, cfg.stability
        )
        for net in sys.networks
    ]


def _score(
    chromosomes: Sequence[Chromosome],
    sys: MultiNetworkSystem,
    tests: Sequence[CertificateTest],
    lam: float,
) -> list[tuple[float, FitnessDetails]]:
    """Fitness and details of each chromosome, with one certificate call per network.

    xi is the sum of the networks' violations, in network order; the pinned
    count ORs each network's pins into one (B, N) array of global nodes.
    """
    xi = np.zeros(len(chromosomes))
    pinned = np.zeros((len(chromosomes), sys.total_nodes), dtype=bool)
    for net, test, genes in zip(sys.networks, tests, _gene_rows(chromosomes, sys)):
        xi += test.xis(genes)
        pinned[:, net.node_ids] |= genes == 1
    scored = []
    for x, count in zip(xi.tolist(), pinned.sum(axis=1).tolist()):
        details = FitnessDetails(pinned_count=count, xi=x, feasible=x == 0.0)
        scored.append((details.score(lam), details))
    return scored


def _gene_rows(chromosomes: Sequence[Chromosome], sys: MultiNetworkSystem) -> list[np.ndarray]:
    """Each network's genes as a (B, n) matrix, one row per chromosome."""
    if any(len(ch.genes) != sys.num_networks for ch in chromosomes):
        raise ValueError(f"a chromosome needs one gene array per network ({sys.num_networks})")
    rows = []
    for k, net in enumerate(sys.networks):
        try:
            genes = np.stack([ch.genes[k] for ch in chromosomes])
        except ValueError:  # gene arrays of different shapes
            genes = None
        if genes is None or genes.shape[1:] != (net.n,):
            raise ValueError("chromosome shape does not match the system")
        rows.append(genes)
    return rows


def _certify(ch: Chromosome, sys: MultiNetworkSystem, stab: StabilityParams, gain):
    """Each network's result for the chromosome: tested at ``gain``, or solved if None."""
    results = []
    for net, (genes,) in zip(sys.networks, _gene_rows([ch], sys)):
        pins = genes.astype(np.float64)
        a = (net.lap.symmetric_part, pins, net.coupling_strength, net.gamma)
        results.append(solve_min_gain(*a, stab) if gain is None else check_gain(*a, gain, stab))
    return results


@dataclass(frozen=True)
class Individual:
    """A chromosome with its evaluated fitness, as ranked by the GA."""

    chromosome: Chromosome
    fitness: float
    details: FitnessDetails


def init_population(cfg: GaConfig, sys: MultiNetworkSystem, rng: np.random.Generator) -> list[Chromosome]:
    """Draw population_size chromosomes with each defined gene ~ Bernoulli(p_d)."""
    pop = []
    for _ in range(cfg.population_size):
        genes = tuple(
            (rng.random(net.n) < cfg.init_prob).astype(np.uint8) for net in sys.networks
        )
        pop.append(Chromosome(genes=genes))
    return pop


def tournament_select(
    population: Sequence[Individual], k: int, rng: np.random.Generator
) -> Individual:
    """Best of k uniform draws with replacement.

    Ties break toward fewer pinned nodes, then the lower population index.
    """
    if len(population) == 0:
        raise ValueError("population must not be empty")
    if k < 1:
        raise ValueError("tournament size must be >= 1")
    idx = rng.integers(0, len(population), size=k)
    best = min(idx, key=lambda i: (population[i].fitness, population[i].details.pinned_count, i))
    return population[best]


def crossover(
    a: Chromosome,
    b: Chromosome,
    p_c: float,
    rng: np.random.Generator,
    op: str = "uniform",
) -> tuple[Chromosome, Chromosome]:
    """With probability p_c, mix two parents; otherwise return copies.

    Uniform crossover swaps each gene between the children with probability
    one half; one-point crossover splits the concatenated gene string once.
    Either works on the concatenated string, so uniform crossover draws its
    coins for the whole chromosome at once.
    """
    if len(a.genes) != len(b.genes) or any(
        x.shape != y.shape for x, y in zip(a.genes, b.genes)
    ):
        raise ValueError("parents must have matching gene shapes")
    flat_a, flat_b = np.concatenate(a.genes), np.concatenate(b.genes)
    if rng.random() >= p_c:
        return _split(flat_a, a), _split(flat_b, b)
    total = len(flat_a)
    if op == "uniform":
        swap = rng.random(total) < 0.5
    elif op == "one_point":
        point = int(rng.integers(1, total)) if total > 1 else 0
        swap = np.arange(total) >= point
    else:
        raise ValueError(f"unknown crossover op {op!r}")
    return (
        _split(np.where(swap, flat_b, flat_a), a),
        _split(np.where(swap, flat_a, flat_b), b),
    )


def mutate(ch: Chromosome, p_m: float, rng: np.random.Generator) -> Chromosome:
    """Flip each defined gene independently with probability p_m."""
    flat = np.concatenate(ch.genes)
    flips = rng.random(len(flat)) < p_m
    return _split(flat ^ flips.astype(np.uint8), ch)


def _split(flat: np.ndarray, like: Chromosome) -> Chromosome:
    """A chromosome cut from a concatenated gene string, shaped like ``like``."""
    genes, start = [], 0
    for g in like.genes:
        genes.append(flat[start : start + len(g)])
        start += len(g)
    return Chromosome(genes=tuple(genes))


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
    generations + 1.  ``lmi_evaluations`` counts the certificate tests, one per
    network for each chromosome bred: population_size * (generations + 1)
    * num_networks.  ``eigensolves`` counts those the Cholesky test did not
    settle, which fell through to an eigensolve.
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
    lmi_evaluations: int
    eigensolves: int

    def best_plan(self, sys: MultiNetworkSystem) -> PinningPlan:
        """Pins and solved gains of the best feasible chromosome."""
        if self.best_feasible is None:
            raise ValueError("no feasible chromosome was found; nothing to plan with")
        genes = self.best_feasible.chromosome.genes
        return PinningPlan.from_genes(sys, genes, self.feasible_gains)

    def to_dict(self) -> dict:
        det = self.best.details
        d = {
            "best_fitness": float(self.best.fitness),
            "best_pinned_count": det.pinned_count,
            "best_is_feasible": det.feasible,
            "best_xi": det.xi,
            "best_gains": [None if g is None else float(g) for g in self.best_gains],
            "best_genes": ["".join(str(int(b)) for b in g) for g in self.best.chromosome.genes],
            "generations": self.generations.tolist(),
            "best_fitness_series": self.best_fitness.tolist(),
            "mean_fitness_series": self.mean_fitness.tolist(),
            "best_pinned_count_series": self.best_pinned_count.tolist(),
            "feasible_fraction_series": self.feasible_fraction.tolist(),
            "lmi_evaluations": self.lmi_evaluations,
            "eigensolves": self.eigensolves,
        }
        if self.best_feasible is None:
            d["feasible_best"] = None
        else:
            d["feasible_best"] = {
                "pinned_count": self.best_feasible.details.pinned_count,
                "gains": [float(g) for g in self.feasible_gains],
                "genes": [
                    "".join(str(int(b)) for b in g)
                    for g in self.best_feasible.chromosome.genes
                ],
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

    Each generation breeds population_size offspring via tournament selection,
    crossover and mutation, then keeps the best population_size individuals of
    parents and offspring combined.  With adaptive_penalty the coefficient
    grows linearly to twice its base value over the run, and the kept parents
    are re-scored at each generation's coefficient without a new solve.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    tests = _certificate_tests(sys, cfg)
    best_feasible: Optional[Individual] = None
    lmi_evaluations = 0

    def evaluate(chromosomes: list[Chromosome], lam: float) -> list[Individual]:
        nonlocal best_feasible, lmi_evaluations
        lmi_evaluations += len(chromosomes) * sys.num_networks
        individuals = []
        for ch, (fit, det) in zip(chromosomes, _score(chromosomes, sys, tests, lam)):
            ind = Individual(chromosome=ch, fitness=fit, details=det)
            if det.feasible and (
                best_feasible is None or det.pinned_count < best_feasible.details.pinned_count
            ):
                best_feasible = ind
            individuals.append(ind)
        return individuals

    def lam_at(gen: int) -> float:
        if not cfg.adaptive_penalty or cfg.generations == 0:
            return cfg.penalty_coeff
        return cfg.penalty_coeff * (1.0 + gen / cfg.generations)

    population = evaluate(init_population(cfg, sys, rng), lam_at(0))
    population.sort(key=lambda ind: (ind.fitness, ind.details.pinned_count))

    def gains(ind: Individual) -> tuple[Optional[float], ...]:
        return tuple(r.gain for r in _certify(ind.chromosome, sys, cfg.stability, cfg.fixed_gain))

    stats = {"best": [], "mean": [], "count": [], "feasible": []}

    def record(pop: list[Individual]) -> None:
        stats["best"].append(pop[0].fitness)
        stats["mean"].append(float(np.mean([i.fitness for i in pop])))
        stats["count"].append(pop[0].details.pinned_count)
        stats["feasible"].append(
            float(np.mean([1.0 if i.details.feasible else 0.0 for i in pop]))
        )

    record(population)

    for gen in range(1, cfg.generations + 1):
        lam = lam_at(gen)
        offspring: list[Chromosome] = []
        while len(offspring) < cfg.population_size:
            p1 = tournament_select(population, cfg.tournament_size, rng)
            p2 = tournament_select(population, cfg.tournament_size, rng)
            c1, c2 = crossover(
                p1.chromosome, p2.chromosome, cfg.crossover_prob, rng, op=cfg.crossover_op
            )
            offspring.append(mutate(c1, cfg.mutation_prob, rng))
            offspring.append(mutate(c2, cfg.mutation_prob, rng))
        evaluated = evaluate(offspring[: cfg.population_size], lam)
        if cfg.adaptive_penalty:
            population = [replace(i, fitness=i.details.score(lam)) for i in population]
        combined = population + evaluated
        combined.sort(key=lambda ind: (ind.fitness, ind.details.pinned_count))
        population = combined[: cfg.population_size]
        record(population)

    return GaReport(
        best=population[0],
        best_feasible=best_feasible,
        best_gains=gains(population[0]),
        feasible_gains=None if best_feasible is None else gains(best_feasible),
        generations=np.arange(cfg.generations + 1),
        best_fitness=np.array(stats["best"]),
        mean_fitness=np.array(stats["mean"]),
        best_pinned_count=np.array(stats["count"], dtype=np.int64),
        feasible_fraction=np.array(stats["feasible"]),
        lmi_evaluations=lmi_evaluations,
        eigensolves=sum(test.eigensolves for test in tests),
    )
