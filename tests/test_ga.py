"""Genetic operators, fitness semantics and the evolution loop."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from pinnet import ga
from pinnet.ga import (
    Chromosome,
    FitnessDetails,
    GaConfig,
    Individual,
    crossover,
    evolve,
    fitness,
    init_population,
    mutate,
    tournament_select,
)
from pinnet.harness import build_system, builtin_scenario
from pinnet.network import (
    build_multinetwork,
    generate_adjacency,
    make_network,
    single_network_system,
)
from pinnet.stability import CertificateTest, StabilityParams


def small_system(n=6, seed=0, threshold=0.4):
    net = make_network(generate_adjacency(n, threshold, seed), 0.8, 1.0, 10.0)
    return single_network_system(net)


def overlap_system(seed=0):
    """Two 3-node networks sharing node 2 (5 global nodes)."""
    rng_ids = [np.array([0, 1, 2]), np.array([2, 3, 4])]
    nets = []
    for k, ids in enumerate(rng_ids):
        g = generate_adjacency(3, 0.3, seed * 10 + k)
        nets.append(
            make_network(g, 0.8, 1.0, float(10 * (k + 1)), node_ids=ids)
        )
    memberships = [
        frozenset({0}),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({1}),
        frozenset({1}),
    ]
    return build_multinetwork(nets, memberships)


def dummy_individual(fit: float, count: int) -> Individual:
    ch = Chromosome(genes=(np.zeros(1, dtype=np.uint8),))
    det = FitnessDetails(pinned_count=count, xi=0.0, feasible=True)
    return Individual(chromosome=ch, fitness=fit, details=det)


class TestInitPopulation:
    def test_all_zero_and_all_one_extremes(self):
        sys = small_system()
        rng = np.random.default_rng(0)
        for p, value in ((0.0, 0), (1.0, 1)):
            cfg = GaConfig(population_size=5, init_prob=p)
            pop = init_population(cfg, sys, rng)
            assert all(np.all(ch.genes[0] == value) for ch in pop)

    def test_binomial_mean_pinned_count(self):
        sys = small_system(n=50, threshold=0.5)
        cfg = GaConfig(population_size=10000, init_prob=0.2)
        pop = init_population(cfg, sys, np.random.default_rng(42))
        counts = np.array([ch.genes[0].sum() for ch in pop], dtype=float)
        assert abs(counts.mean() - 10.0) <= 0.3


class TestFitness:
    def test_all_pinned_fit_equals_node_count(self):
        sys = small_system()
        cfg = GaConfig()
        ch = Chromosome(genes=(np.ones(6, dtype=np.uint8),))
        fit, det = fitness(ch, sys, cfg)
        assert det.feasible and det.xi == 0.0
        assert fit == 6.0 == float(det.pinned_count)

    def test_all_zero_pays_pure_penalty(self):
        # empty 4-node graph: no coupling, no pins, violation delta*sqrt(n)
        net = make_network(np.zeros((4, 4)), 1.0, 1.0, 0.0)
        sys = single_network_system(net)
        cfg = GaConfig(penalty_coeff=10.0, stability=StabilityParams(delta=1.0))
        ch = Chromosome(genes=(np.zeros(4, dtype=np.uint8),))
        fit, det = fitness(ch, sys, cfg)
        assert not det.feasible
        assert det.pinned_count == 0
        assert fit == 10.0 * 2.0  # lambda * delta * sqrt(4)

    def test_exhaustive_n5_matches_independent_recomputation(self):
        sys = small_system(n=5, seed=3, threshold=0.5)
        net = sys.networks[0]
        cfg = GaConfig(penalty_coeff=10.0, stability=StabilityParams(delta=1.0, c_max=50.0))
        l_sym = net.lap.symmetric_part

        def recompute(bits):
            pins = np.array(bits, dtype=float)
            m_top = 2.0 * 0.8 * l_sym + 2.0 * 50.0 * np.diag(pins)
            lam = np.linalg.eigvalsh(m_top)
            count = float(pins.sum())
            if lam[0] >= 1.0:
                return count
            short = np.maximum(0.0, 1.0 - lam)
            return count + 10.0 * float(np.sqrt((short**2).sum()))

        module_fits, oracle_fits = [], []
        for bits in itertools.product((0, 1), repeat=5):
            ch = Chromosome(genes=(np.array(bits, dtype=np.uint8),))
            fit, _ = fitness(ch, sys, cfg)
            module_fits.append(fit)
            oracle_fits.append(recompute(bits))
        assert np.allclose(module_fits, oracle_fits, rtol=1e-10, atol=1e-10)
        assert np.array_equal(np.argsort(module_fits), np.argsort(oracle_fits))

    def test_overlap_node_counted_once(self):
        sys = overlap_system()
        cfg = GaConfig()
        genes = (
            np.array([0, 0, 1], dtype=np.uint8),
            np.array([1, 0, 0], dtype=np.uint8),
        )  # node 2 pinned in both networks
        _, det = fitness(Chromosome(genes=genes), sys, cfg)
        assert det.pinned_count == 1

    def test_shape_mismatch_rejected(self):
        sys = small_system()
        with pytest.raises(ValueError):
            fitness(Chromosome(genes=(np.ones(4, dtype=np.uint8),)), sys, GaConfig())

    def test_gene_arrays_must_match_the_networks(self):
        sys = build_system(builtin_scenario("multi-50"))
        cfg = GaConfig()
        whole = tuple(np.ones(net.n, dtype=np.uint8) for net in sys.networks)
        assert fitness(Chromosome(genes=whole), sys, cfg)[1].pinned_count == sys.total_nodes
        clipped = whole[:2] + (whole[2][:-1],)  # 35/25/24 genes for 35/25/25 nodes
        for genes in (whole[:1], whole[:2], whole + whole[:1], clipped):
            with pytest.raises(ValueError):
                fitness(Chromosome(genes=genes), sys, cfg)

    def test_gene_outside_zero_one_rejected(self):
        sys = small_system()
        genes = np.ones(6, dtype=np.uint8)
        genes[3] = 2  # all other genes pinned, so the set would certify
        with pytest.raises(ValueError, match="0 or 1"):
            fitness(Chromosome(genes=(genes,)), sys, GaConfig())


class TestTournament:
    def test_k1_is_uniform_draw(self):
        pop = [dummy_individual(float(f), 1) for f in (1, 2, 3, 4)]
        rng = np.random.default_rng(0)
        picks = np.array(
            [tournament_select(pop, 1, rng).fitness for _ in range(8000)]
        )
        freqs = [np.mean(picks == f) for f in (1.0, 2.0, 3.0, 4.0)]
        assert all(abs(f - 0.25) < 0.02 for f in freqs)

    def test_k2_rank_probabilities(self):
        # best-of-two with replacement over 4 distinct ranks: {7,5,3,1}/16
        pop = [dummy_individual(float(f), 1) for f in (1, 2, 3, 4)]
        rng = np.random.default_rng(1)
        picks = np.array(
            [tournament_select(pop, 2, rng).fitness for _ in range(10000)]
        )
        expected = np.array([7, 5, 3, 1]) / 16.0
        for f, p in zip((1.0, 2.0, 3.0, 4.0), expected):
            assert abs(np.mean(picks == f) - p) < 0.02

    def test_ties_prefer_fewer_pins_then_lower_index(self):
        pop = [dummy_individual(2.0, 5), dummy_individual(2.0, 3), dummy_individual(2.0, 3)]
        rng = np.random.default_rng(2)
        pick = tournament_select(pop, len(pop) * 20, rng)
        assert pick is pop[1]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_select([], 2, np.random.default_rng(0))


class TestCrossover:
    def test_identical_parents_unchanged(self):
        genes = (np.array([1, 0, 1, 1], dtype=np.uint8),)
        a = Chromosome(genes=genes)
        c1, c2 = crossover(a, a, 1.0, np.random.default_rng(0))
        assert np.array_equal(c1.genes[0], genes[0])
        assert np.array_equal(c2.genes[0], genes[0])

    def test_pc_zero_copies(self):
        a = Chromosome(genes=(np.array([1, 1, 0, 0], dtype=np.uint8),))
        b = Chromosome(genes=(np.array([0, 0, 1, 1], dtype=np.uint8),))
        c1, c2 = crossover(a, b, 0.0, np.random.default_rng(0))
        assert np.array_equal(c1.genes[0], a.genes[0])
        assert np.array_equal(c2.genes[0], b.genes[0])

    def test_complementary_parents_mix_half(self):
        n = 50
        a = Chromosome(genes=(np.zeros(n, dtype=np.uint8),))
        b = Chromosome(genes=(np.ones(n, dtype=np.uint8),))
        rng = np.random.default_rng(3)
        freq = np.zeros(n)
        trials = 10000
        for _ in range(trials):
            c1, _ = crossover(a, b, 1.0, rng)
            freq += c1.genes[0]
        freq /= trials
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_one_point_variant(self):
        a = Chromosome(genes=(np.zeros(6, dtype=np.uint8), np.zeros(4, dtype=np.uint8)))
        b = Chromosome(genes=(np.ones(6, dtype=np.uint8), np.ones(4, dtype=np.uint8)))
        c1, c2 = crossover(a, b, 1.0, np.random.default_rng(5), op="one_point")
        flat1 = np.concatenate(c1.genes)
        flat2 = np.concatenate(c2.genes)
        # one contiguous block swapped: exactly one 0->1 transition overall
        assert np.sum(np.abs(np.diff(flat1.astype(int)))) == 1
        assert np.array_equal(flat1 ^ 1, flat2)

    def test_shape_mismatch_rejected(self):
        a = Chromosome(genes=(np.zeros(3, dtype=np.uint8),))
        b = Chromosome(genes=(np.zeros(4, dtype=np.uint8),))
        with pytest.raises(ValueError):
            crossover(a, b, 1.0, np.random.default_rng(0))


class TestMutate:
    def test_identity_and_complement(self):
        ch = Chromosome(genes=(np.array([1, 0, 1], dtype=np.uint8),))
        rng = np.random.default_rng(0)
        same = mutate(ch, 0.0, rng)
        assert np.array_equal(same.genes[0], ch.genes[0])
        flipped = mutate(ch, 1.0, rng)
        assert np.array_equal(flipped.genes[0], ch.genes[0] ^ 1)

    def test_binomial_mean_flip_count(self):
        ch = Chromosome(genes=(np.zeros(200, dtype=np.uint8),))
        rng = np.random.default_rng(7)
        flips = np.array([mutate(ch, 0.05, rng).genes[0].sum() for _ in range(10000)])
        assert abs(flips.mean() - 10.0) <= 0.5


class TestEvolve:
    def _cfg(self, **kw):
        defaults = dict(
            population_size=16,
            generations=8,
            rng_seed=5,
            stability=StabilityParams(delta=1.0),
        )
        defaults.update(kw)
        return GaConfig(**defaults)

    def test_zero_generations_returns_best_initial(self):
        sys = small_system(n=5, seed=1, threshold=0.5)
        cfg = self._cfg(generations=0)
        report = evolve(cfg, sys)
        assert len(report.best_fitness) == 1
        pop = init_population(cfg, sys, np.random.default_rng(cfg.rng_seed))
        fits = [fitness(ch, sys, cfg)[0] for ch in pop]
        assert report.best.fitness == min(fits)

    def test_matches_exhaustive_minimum_on_small_instances(self):
        params = StabilityParams(delta=1.0, c_max=50.0)
        hits = 0
        for seed in range(5):
            sys = small_system(n=5, seed=seed, threshold=0.5)
            net = sys.networks[0]
            best_count = None
            for bits in itertools.product((0, 1), repeat=5):
                ch = Chromosome(genes=(np.array(bits, dtype=np.uint8),))
                _, det = fitness(ch, sys, GaConfig(stability=params))
                if det.feasible:
                    c = det.pinned_count
                    best_count = c if best_count is None else min(best_count, c)
            cfg = self._cfg(population_size=32, generations=30, rng_seed=100 + seed)
            report = evolve(cfg, sys)
            assert report.best_feasible is not None
            found = report.best_feasible.details.pinned_count
            assert found >= best_count
            hits += found == best_count
        assert hits >= 4

    def test_elitism_series_non_increasing(self):
        sys = small_system(n=6, seed=2)
        report = evolve(self._cfg(), sys)
        assert np.all(np.diff(report.best_fitness) <= 0.0)

    def test_deterministic_per_seed(self):
        sys = overlap_system(seed=4)
        cfg = self._cfg(generations=5)
        a = evolve(cfg, sys).to_dict()
        b = evolve(cfg, sys).to_dict()
        assert a == b

    def test_feasible_fitness_equals_pinned_count(self):
        sys = small_system(n=6, seed=3)
        report = evolve(self._cfg(), sys)
        ind = report.best_feasible
        assert ind is not None
        assert ind.fitness == float(ind.details.pinned_count)

    def test_report_serialization_and_plan(self, tmp_path):
        sys = overlap_system(seed=1)
        report = evolve(self._cfg(generations=6), sys)
        d = report.to_dict()
        assert len(d["best_genes"]) == 2
        assert d["lmi_evaluations"] > 0
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("generation,best_fitness")
        assert len(lines) == 1 + len(report.generations)
        if report.best_feasible is not None:
            plan = report.best_plan(sys)
            assert plan.pinned_count == report.best_feasible.details.pinned_count

    def test_adaptive_penalty_runs(self, monkeypatch):
        tests, solves, parents = [], [], []
        verdicts, solve, select = CertificateTest.xis, ga.solve_min_gain, ga.tournament_select

        def spy_verdicts(test, pins):
            tests.extend(pins)
            return verdicts(test, pins)

        monkeypatch.setattr(CertificateTest, "xis", spy_verdicts)
        monkeypatch.setattr(ga, "solve_min_gain", lambda *a: solves.append(a) or solve(*a))

        def spy_select(population, k, rng):
            if not parents or parents[-1] is not population:
                parents.append(population)
            return select(population, k, rng)

        monkeypatch.setattr(ga, "tournament_select", spy_select)
        sys = small_system(n=5, seed=6, threshold=0.6)
        cfg = self._cfg(adaptive_penalty=True, generations=4)
        report = evolve(cfg, sys)
        assert len(report.best_fitness) == 5
        # one certificate test per network per chromosome bred; gains are
        # solved only for the two reported chromosomes
        assert len(tests) == report.lmi_evaluations
        assert 0 < report.eigensolves < report.lmi_evaluations
        assert len(solves) <= 2 * sys.num_networks
        # generation g breeds from the population ranked at generation g - 1,
        # whose coefficient is penalty_coeff * (1 + (g - 1) / generations)
        assert len(parents) == cfg.generations
        for gen, population in enumerate(parents):
            lam = cfg.penalty_coeff * (1.0 + gen / cfg.generations)
            assert all(i.fitness == i.details.score(lam) for i in population)
        assert report.best.fitness == report.best.details.score(2.0 * cfg.penalty_coeff)
        assert report.best_fitness[-1] == report.best.fitness

    def test_chromosomes_that_miss_a_network_are_rejected(self, monkeypatch):
        sys = overlap_system(seed=3)
        draw = ga.init_population

        def short(cfg, sys, rng):
            return [Chromosome(genes=ch.genes[:1]) for ch in draw(cfg, sys, rng)]

        monkeypatch.setattr(ga, "init_population", short)
        with pytest.raises(ValueError, match="one gene array per network"):
            evolve(self._cfg(), sys)

    def test_seeded_multi50_reports_match_the_recording(self):
        # Recorded before generations were scored in one call per network and
        # bred from one draw per chromosome: the random stream, the verdicts
        # and the fitness values must not move.
        sc = builtin_scenario("multi-50")
        sys = build_system(sc)
        cfg = replace(sc.ga, population_size=20, generations=5, rng_seed=7)
        variants = {
            "uniform": cfg,
            "one_point": replace(cfg, crossover_op="one_point"),
            "adaptive_penalty": replace(cfg, adaptive_penalty=True),
        }
        for name, variant in variants.items():
            assert evolve(variant, sys).to_dict() == RECORDED_MULTI50[name], name

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_every_bred_chromosome_is_solved(self, adaptive):
        sys = overlap_system(seed=2)
        cfg = self._cfg(adaptive_penalty=adaptive, generations=5)
        report = evolve(cfg, sys)
        expected = cfg.population_size * (cfg.generations + 1) * sys.num_networks
        assert report.lmi_evaluations == expected

    def test_fixed_gain_mode_certifies_at_that_gain(self):
        sys = small_system(n=5, seed=2, threshold=0.5)
        cfg = self._cfg(fixed_gain=50.0, generations=10)
        report = evolve(cfg, sys)
        if report.best.details.feasible:
            assert report.best_gains == (50.0,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(crossover_prob=1.5)
        with pytest.raises(ValueError):
            GaConfig(population_size=0)
        with pytest.raises(ValueError):
            GaConfig(fixed_gain=0.0)
        with pytest.raises(ValueError):
            GaConfig(crossover_op="two_point")


# evolve(...).to_dict() for built-in multi-50 (trial 0), population 20, 5 generations, seed 7.
RECORDED_MULTI50 = {'adaptive_penalty': {'best_fitness': 19.0,
                                         'best_fitness_series': [22.0,
                                                                 20.0,
                                                                 20.0,
                                                                 19.0,
                                                                 19.0,
                                                                 19.0],
                                         'best_gains': [23.542543984422654,
                                                        31.40094756477618,
                                                        20.35808725790079],
                                         'best_genes': ['00100010001011001001010000000000101',
                                                        '1010000000001001001001011',
                                                        '0001001101011001100000000'],
                                         'best_is_feasible': True,
                                         'best_pinned_count': 19,
                                         'best_pinned_count_series': [22, 20, 20, 19, 19, 19],
                                         'best_xi': 0.0,
                                         'eigensolves': 54,
                                         'feasible_best': {'gains': [23.542543984422654,
                                                                     31.40094756477618,
                                                                     20.35808725790079],
                                                           'genes': ['00100010001011001001010000000000101',
                                                                     '1010000000001001001001011',
                                                                     '0001001101011001100000000'],
                                                           'pinned_count': 19},
                                         'feasible_fraction_series': [0.25,
                                                                      0.7,
                                                                      0.95,
                                                                      0.95,
                                                                      1.0,
                                                                      1.0],
                                         'generations': [0, 1, 2, 3, 4, 5],
                                         'lmi_evaluations': 360,
                                         'mean_fitness_series': [52.47163228731033,
                                                                 26.634713791188197,
                                                                 24.51499787462016,
                                                                 22.696309501427244,
                                                                 22.05,
                                                                 21.65]},
                    'one_point': {'best_fitness': 21.0,
                                  'best_fitness_series': [22.0, 22.0, 22.0, 22.0, 21.0, 21.0],
                                  'best_gains': [23.26710093192958,
                                                 28.36395043137417,
                                                 25.441875912865125],
                                  'best_genes': ['00010000000110001000110110000001110',
                                                 '1010110000010000010110000',
                                                 '0001000101101001011000000'],
                                  'best_is_feasible': True,
                                  'best_pinned_count': 21,
                                  'best_pinned_count_series': [22, 22, 22, 22, 21, 21],
                                  'best_xi': 0.0,
                                  'eigensolves': 29,
                                  'feasible_best': {'gains': [23.26710093192958,
                                                              28.36395043137417,
                                                              25.441875912865125],
                                                    'genes': ['00010000000110001000110110000001110',
                                                              '1010110000010000010110000',
                                                              '0001000101101001011000000'],
                                                    'pinned_count': 21},
                                  'feasible_fraction_series': [0.25, 0.8, 0.95, 1.0, 1.0, 1.0],
                                  'generations': [0, 1, 2, 3, 4, 5],
                                  'lmi_evaluations': 360,
                                  'mean_fitness_series': [52.47163228731033,
                                                          25.458861311465935,
                                                          23.72065000010531,
                                                          22.9,
                                                          22.5,
                                                          22.25]},
                    'uniform': {'best_fitness': 19.0,
                                'best_fitness_series': [22.0, 20.0, 20.0, 19.0, 19.0, 19.0],
                                'best_gains': [35.737745534816256,
                                               29.206566338650216,
                                               17.065497730376777],
                                'best_genes': ['01000110000000100000000100000010010',
                                               '0110010101000010000000010',
                                               '0000010101010000010111010'],
                                'best_is_feasible': True,
                                'best_pinned_count': 19,
                                'best_pinned_count_series': [22, 20, 20, 19, 19, 19],
                                'best_xi': 0.0,
                                'eigensolves': 51,
                                'feasible_best': {'gains': [35.737745534816256,
                                                            29.206566338650216,
                                                            17.065497730376777],
                                                  'genes': ['01000110000000100000000100000010010',
                                                            '0110010101000010000000010',
                                                            '0000010101010000010111010'],
                                                  'pinned_count': 19},
                                'feasible_fraction_series': [0.25, 0.7, 0.9, 0.9, 0.95, 1.0],
                                'generations': [0, 1, 2, 3, 4, 5],
                                'lmi_evaluations': 360,
                                'mean_fitness_series': [52.47163228731033,
                                                        26.220594825990162,
                                                        23.517077053405423,
                                                        22.446574079863204,
                                                        21.696427053300116,
                                                        20.8]}}
