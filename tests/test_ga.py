"""Genetic operators, fitness semantics and the evolution loop."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from pinnet import ga
from pinnet.ga import (
    GaConfig,
    crossover,
    evolve,
    init_population,
    mutate,
    tournament_select,
)
from pinnet.harness import build_system, builtin_scenario
from pinnet.network import DirectedNetwork, MultiNetworkSystem, generate_adjacency
from pinnet.stability import CertificateTest, StabilityParams

from property_checks import score_row


def small_system(n=6, seed=0, threshold=0.4):
    net = DirectedNetwork(generate_adjacency(n, threshold, seed), 0.8, 1.0, 10.0)
    return MultiNetworkSystem((net,))


def overlap_system(seed=0):
    """Two 3-node networks sharing node 2 (5 global nodes)."""
    nets = [
        DirectedNetwork(generate_adjacency(3, 0.3, seed * 10 + k), 0.8, 1.0, 10.0 * (k + 1), ids)
        for k, ids in enumerate(([0, 1, 2], [2, 3, 4]))
    ]
    return MultiNetworkSystem(tuple(nets))


def genes(*bits):
    return np.array(bits, dtype=np.uint8)


class TestInitPopulation:
    def test_all_zero_and_all_one_extremes(self):
        sys = overlap_system()
        rng = np.random.default_rng(0)
        for p, value in ((0.0, 0), (1.0, 1)):
            cfg = GaConfig(population_size=5, init_prob=p)
            pop = init_population(cfg, sys, rng)
            assert pop.shape == (5, 5) and pop.dtype == np.uint8
            assert np.all(pop == value)

    def test_binomial_mean_pinned_count(self):
        sys = small_system(n=50, threshold=0.5)
        cfg = GaConfig(population_size=10000, init_prob=0.2)
        pop = init_population(cfg, sys, np.random.default_rng(42))
        counts = pop.sum(axis=1, dtype=float)
        assert abs(counts.mean() - 10.0) <= 0.3


class TestFitness:
    def test_all_pinned_fit_equals_node_count(self):
        sys = small_system()
        ind = score_row(np.ones(6, dtype=np.uint8), sys, GaConfig())
        assert ind.feasible and ind.xi == 0.0
        assert ind.fitness == 6.0 == float(ind.pinned_count)

    def test_all_zero_pays_pure_penalty(self):
        # empty 4-node graph: no coupling, no pins, violation delta*sqrt(n)
        sys = MultiNetworkSystem((DirectedNetwork(np.zeros((4, 4)), 1.0, 1.0, 0.0),))
        cfg = GaConfig(penalty_coeff=10.0, stability=StabilityParams(delta=1.0))
        ind = score_row(np.zeros(4, dtype=np.uint8), sys, cfg)
        assert not ind.feasible
        assert ind.pinned_count == 0
        assert ind.fitness == 10.0 * 2.0  # lambda * delta * sqrt(4)

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
            module_fits.append(score_row(genes(*bits), sys, cfg).fitness)
            oracle_fits.append(recompute(bits))
        assert np.allclose(module_fits, oracle_fits, rtol=1e-10, atol=1e-10)
        assert np.array_equal(np.argsort(module_fits), np.argsort(oracle_fits))

    def test_overlap_node_counted_once(self):
        sys = overlap_system()
        # node 2 is the last node of network 0 and the first of network 1
        ind = score_row(genes(0, 0, 1, 0, 0), sys, GaConfig())
        assert ind.pinned_count == 1
        assert [g.tolist() for g in ind.genes] == [[0, 0, 1], [1, 0, 0]]

    def test_multi_network_xi_is_the_sum_of_network_violations(self):
        delta, c_max = 1.0, 2.0
        cfg = GaConfig(stability=StabilityParams(delta=delta, c_max=c_max))
        rng = np.random.default_rng(2)
        seen = {True: 0, False: 0}
        for seed in range(6):
            sys = overlap_system(seed)
            row = (rng.random(sys.total_nodes) < 0.7).astype(np.uint8)
            expected = 0.0
            for net in sys.networks:
                pins = row[net.node_ids].astype(float)
                m_top = 2.0 * 0.8 * net.lap.symmetric_part + 2.0 * c_max * np.diag(pins)
                short = np.maximum(0.0, delta - np.linalg.eigvalsh(m_top))
                expected += float(np.sqrt((short**2).sum()))
            assert abs(score_row(row, sys, cfg).xi - expected) <= 1e-12
            seen[expected == 0.0] += 1
        assert seen[True] > 0 and seen[False] > 0  # both branches are exercised

    def test_shape_mismatch_rejected(self):
        sys = small_system()
        with pytest.raises(ValueError):
            score_row(np.ones(4, dtype=np.uint8), sys, GaConfig())

    def test_gene_arrays_must_match_the_networks(self):
        sys = build_system(builtin_scenario("multi-50"))
        cfg = GaConfig()
        total = sys.total_nodes  # 50 genes for networks of 35, 25 and 25 nodes
        whole = np.ones(total, dtype=np.uint8)
        assert score_row(whole, sys, cfg).pinned_count == total
        for size in (35, 85, total + 35, total - 1):
            with pytest.raises(ValueError, match="one gene per node"):
                score_row(np.ones(size, dtype=np.uint8), sys, cfg)
        with pytest.raises(ValueError):
            score_row(np.ones((1, total), dtype=np.uint8), sys, cfg)

    def test_no_chromosomes_score_without_a_certificate_call(self, monkeypatch):
        sys = overlap_system(seed=1)
        tests = ga._certificate_tests(sys, GaConfig())
        monkeypatch.setattr(CertificateTest, "xis", lambda *a: pytest.fail("xis called"))
        xi = ga._violations(np.zeros((0, 5), dtype=np.uint8), tests, sys, np.zeros(0))
        assert xi.shape == (0,)

    def test_gene_outside_zero_one_rejected(self):
        sys = small_system()
        row = np.ones(6, dtype=np.uint8)
        row[3] = 2  # all other genes pinned, so the set would certify
        with pytest.raises(ValueError, match="0 or 1"):
            score_row(row, sys, GaConfig())


class TestTournament:
    def test_k1_is_uniform_draw(self):
        fit, counts = np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=np.int64)
        picks = tournament_select(fit, counts, 1, np.random.default_rng(0), 8000)
        freqs = [np.mean(picks == i) for i in range(4)]
        assert all(abs(f - 0.25) < 0.02 for f in freqs)

    def test_k2_rank_probabilities(self):
        # best-of-two with replacement over 4 distinct ranks: {7,5,3,1}/16
        fit, counts = np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=np.int64)
        picks = tournament_select(fit, counts, 2, np.random.default_rng(1), 10000)
        expected = np.array([7, 5, 3, 1]) / 16.0
        for i, p in enumerate(expected):
            assert abs(np.mean(picks == i) - p) < 0.02

    def test_ties_prefer_fewer_pins_then_lower_index(self):
        fit, counts = np.array([2.0, 2.0, 2.0]), np.array([5, 3, 3])
        rng = np.random.default_rng(2)
        assert np.all(tournament_select(fit, counts, len(fit) * 20, rng, 50) == 1)
        # fitness ranks first: fewer pins do not beat a lower fitness
        fit, counts = np.array([2.0, 1.0, 1.0]), np.array([0, 9, 9])
        assert np.all(tournament_select(fit, counts, 60, rng, 50) == 1)

    def test_tournament_larger_than_the_population(self):
        # best of 10 draws over 3 ranks: 1 - (2/3)^10, (2/3)^10 - (1/3)^10, (1/3)^10
        fit, counts = np.array([3.0, 1.0, 2.0]), np.zeros(3, dtype=np.int64)
        picks = tournament_select(fit, counts, 10, np.random.default_rng(3), 20000)
        assert set(picks.tolist()) <= {0, 1, 2}
        assert abs(np.mean(picks == 1) - (1.0 - (2.0 / 3.0) ** 10)) < 0.005
        assert abs(np.mean(picks == 2) - ((2.0 / 3.0) ** 10 - (1.0 / 3.0) ** 10)) < 0.005

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_select(np.zeros(0), np.zeros(0), 2, np.random.default_rng(0), 4)


class TestCrossover:
    def test_identical_parents_unchanged(self):
        a = np.tile(genes(1, 0, 1, 1), (8, 1))
        for op in ("uniform", "one_point"):
            c1, c2 = crossover(a, a, 1.0, np.random.default_rng(0), op=op)
            assert np.array_equal(c1, a)
            assert np.array_equal(c2, a)

    def test_pc_zero_copies(self):
        a = np.tile(genes(1, 1, 0, 0), (8, 1))
        b = np.tile(genes(0, 0, 1, 1), (8, 1))
        for op in ("uniform", "one_point"):
            c1, c2 = crossover(a, b, 0.0, np.random.default_rng(0), op=op)
            assert np.array_equal(c1, a) and not np.shares_memory(c1, a)
            assert np.array_equal(c2, b) and not np.shares_memory(c2, b)

    def test_complementary_parents_mix_half(self):
        pairs, n = 10000, 50
        a, b = np.zeros((pairs, n), dtype=np.uint8), np.ones((pairs, n), dtype=np.uint8)
        c1, c2 = crossover(a, b, 1.0, np.random.default_rng(3))
        assert np.all(np.abs(c1.mean(axis=0) - 0.5) < 0.02)
        assert abs(c1.sum(axis=1).mean() - n / 2) < 0.2
        assert np.array_equal(c1 ^ 1, c2)

    def test_one_point_variant(self):
        a, b = np.zeros((200, 10), dtype=np.uint8), np.ones((200, 10), dtype=np.uint8)
        c1, c2 = crossover(a, b, 1.0, np.random.default_rng(5), op="one_point")
        # one contiguous block swapped from a cut in 1..9: exactly one 0->1
        # transition in every row, after its first gene and by its last
        assert np.all(np.sum(np.abs(np.diff(c1.astype(int), axis=1)), axis=1) == 1)
        assert np.all(c1[:, 0] == 0) and np.all(c1[:, -1] == 1)
        assert np.array_equal(c1 ^ 1, c2)
        assert len(set(c1.sum(axis=1).tolist())) == 9  # every cut is drawn

    def test_one_point_swaps_a_single_gene(self):
        a, b = np.zeros((5, 1), dtype=np.uint8), np.ones((5, 1), dtype=np.uint8)
        c1, c2 = crossover(a, b, 1.0, np.random.default_rng(6), op="one_point")
        assert np.array_equal(c1, b) and np.array_equal(c2, a)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            crossover(np.zeros((2, 3), np.uint8), np.zeros((2, 4), np.uint8), 1.0, rng)
        with pytest.raises(ValueError):
            crossover(genes(0, 0, 0), genes(0, 0, 0), 1.0, rng)


class TestMutate:
    def test_identity_and_complement(self):
        rows = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
        rng = np.random.default_rng(0)
        assert np.array_equal(mutate(rows, 0.0, rng), rows)
        assert np.array_equal(mutate(rows, 1.0, rng), rows ^ 1)

    def test_binomial_mean_flip_count(self):
        rows = np.zeros((10000, 200), dtype=np.uint8)
        flips = mutate(rows, 0.05, np.random.default_rng(7)).sum(axis=1)
        assert abs(flips.mean() - 10.0) <= 0.5


class Recording:
    """A Generator that logs each call's method and arguments before making it."""

    def __init__(self, seed):
        self.calls = []
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return call


class TestBreed:
    @pytest.mark.parametrize("op", ["uniform", "one_point"])
    @pytest.mark.parametrize("population", [6, 7])
    def test_one_generator_call_per_operator_in_order(self, op, population):
        n, k, pairs = 9, 3, (population + 1) // 2
        cfg = GaConfig(population_size=population, tournament_size=k, crossover_op=op)
        draw = np.random.default_rng(11)
        parents = (draw.random((population, n)) < 0.5).astype(np.uint8)
        fit = draw.integers(0, 4, size=population).astype(float)
        counts = parents.sum(axis=1, dtype=np.int64)
        rng = Recording(12)
        brood = ga._breed(parents, fit, counts, cfg, rng)
        assert brood.shape == (population, n) and brood.dtype == np.uint8
        cut = ("integers", (1, n), {"size": pairs})
        assert rng.calls == [
            ("integers", (0, population), {"size": (2 * pairs, k)}),
            ("random", (pairs,), {}),
            ("random", ((pairs, n),), {}) if op == "uniform" else cut,
            ("random", ((population, n),), {}),
        ]
        # the same draws, bred one tournament and one pair at a time
        ref = np.random.default_rng(12)
        draws = ref.integers(0, population, size=(2 * pairs, k))
        won = [min(row.tolist(), key=lambda i: (fit[i], counts[i], i)) for row in draws]
        mixed = ref.random(pairs) < cfg.crossover_prob
        if op == "uniform":
            swaps = ref.random((pairs, n)) < 0.5
        else:
            swaps = np.arange(n) >= ref.integers(1, n, size=pairs)[:, None]
        flips = (ref.random((population, n)) < cfg.mutation_prob).astype(np.uint8)
        children = []
        for i in range(pairs):
            a, b = parents[won[2 * i]], parents[won[2 * i + 1]]
            swap = swaps[i] & mixed[i]
            children += [np.where(swap, b, a), np.where(swap, a, b)]
        assert np.array_equal(brood, np.array(children[:population]) ^ flips)


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
        fits = [score_row(row, sys, cfg).fitness for row in pop]
        assert report.best.fitness == min(fits)

    def test_matches_exhaustive_minimum_on_small_instances(self):
        params = StabilityParams(delta=1.0, c_max=50.0)
        hits = 0
        for seed in range(5):
            sys = small_system(n=5, seed=seed, threshold=0.5)
            best_count = None
            for bits in itertools.product((0, 1), repeat=5):
                ind = score_row(genes(*bits), sys, GaConfig(stability=params))
                if ind.feasible:
                    c = ind.pinned_count
                    best_count = c if best_count is None else min(best_count, c)
            cfg = self._cfg(population_size=32, generations=30, rng_seed=100 + seed)
            report = evolve(cfg, sys)
            assert report.best_feasible is not None
            found = report.best_feasible.pinned_count
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
        assert ind.fitness == float(ind.pinned_count)

    def test_report_serialization_and_plan(self, tmp_path):
        sys = overlap_system(seed=1)
        report = evolve(self._cfg(generations=6), sys)
        d = report.to_dict()
        assert [len(g) for g in d["best_genes"]] == [3, 3]
        assert d["lmi_evaluations"] > 0
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("generation,best_fitness")
        assert len(lines) == 1 + len(report.generations)
        if report.best_feasible is not None:
            # the plan is one gene vector per network, an overlap node counted once
            plan = report.best_feasible.genes
            pinned = {int(i) for net, g in zip(sys.networks, plan) for i in net.node_ids[g == 1]}
            assert len(pinned) == report.best_feasible.pinned_count
            assert len(report.feasible_gains) == sys.num_networks

    def test_adaptive_penalty_runs(self, monkeypatch):
        tests, solves, parents = [], [], []
        verdicts, solve, breed = CertificateTest.xis, ga.solve_min_gain, ga._breed

        def spy_verdicts(test, pins, bounds=None):
            tests.extend(pins)
            return verdicts(test, pins, bounds)

        def spy_breed(genes, fit, counts, cfg, rng):
            parents.append((genes.copy(), fit.copy(), counts.copy()))
            return breed(genes, fit, counts, cfg, rng)

        monkeypatch.setattr(CertificateTest, "xis", spy_verdicts)
        monkeypatch.setattr(ga, "solve_min_gain", lambda *a: solves.append(a) or solve(*a))
        monkeypatch.setattr(ga, "_breed", spy_breed)
        sys = small_system(n=5, seed=6, threshold=0.6)
        cfg = self._cfg(adaptive_penalty=True, generations=4)
        report = evolve(cfg, sys)
        assert len(report.best_fitness) == 5
        # lmi_evaluations counts the rows tested; gains are solved only for
        # the two reported chromosomes
        assert len(tests) == report.lmi_evaluations
        assert 0 < report.eigensolves < report.lmi_evaluations
        assert len(solves) <= 2 * sys.num_networks
        # generation g breeds from the population ranked at generation g - 1,
        # whose coefficient is penalty_coeff * (1 + (g - 1) / generations):
        # every parent row scores exactly what evaluating it alone at that
        # coefficient gives
        assert len(parents) == cfg.generations
        penalized = 0
        for gen, (genes, fit, counts) in enumerate(parents):
            lam = cfg.penalty_coeff * (1.0 + gen / cfg.generations)
            for row, f, c in zip(genes, fit.tolist(), counts.tolist()):
                ind = score_row(row, sys, cfg, penalty_coeff=lam)
                assert f == ind.fitness
                assert c == ind.pinned_count
                penalized += not ind.feasible
        assert penalized > 0
        best = report.best
        lam = 2.0 * cfg.penalty_coeff
        final = score_row(np.concatenate(best.genes), sys, cfg, penalty_coeff=lam)
        assert best.fitness == final.fitness == best.pinned_count + lam * best.xi
        assert report.best_fitness[-1] == report.best.fitness

    def test_chromosomes_that_miss_a_network_are_rejected(self, monkeypatch):
        sys = overlap_system(seed=3)
        draw = ga.init_population

        def short(cfg, sys, rng):
            return draw(cfg, sys, rng)[:, : sys.networks[0].n]

        monkeypatch.setattr(ga, "init_population", short)
        with pytest.raises(ValueError, match="one gene per node"):
            evolve(self._cfg(), sys)

    def test_odd_population_breeds_that_many_rows(self, monkeypatch):
        shapes, breed = [], ga._breed

        def spy_breed(genes, fit, counts, cfg, rng):
            brood = breed(genes, fit, counts, cfg, rng)
            shapes.append(brood.shape)
            return brood

        monkeypatch.setattr(ga, "_breed", spy_breed)
        cfg = self._cfg(population_size=7)
        report = evolve(cfg, small_system(n=6, seed=2))
        assert shapes == [(7, 6)] * cfg.generations
        assert report.lmi_evaluations == 7 * (cfg.generations + 1) - report.pruned

    def test_seeded_multi50_reports_match_the_recording(self):
        # Recorded when breeding began to draw a generation in one call per
        # operator: the random stream, the verdicts and the fitness values
        # must not move.  The work counters (lmi_evaluations, eigensolves,
        # bound_settled, gain_solves, pruned) were re-recorded, alone, when
        # the scorer began to settle offspring against a running cut-off.
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

    def test_seeded_single50_fixed_gain_report_matches_the_recording(self):
        # The fixed-gain path: no set certifies at gain 5, so the best is
        # infeasible, its gain is None and there is no feasible find.
        sc = builtin_scenario("single-50")
        cfg = replace(sc.ga, population_size=20, generations=5, rng_seed=7, fixed_gain=5.0)
        assert evolve(cfg, build_system(sc)).to_dict() == RECORDED_SINGLE50_FIXED

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_each_unpruned_chromosome_is_tested_at_most_once_per_network(
        self, adaptive, monkeypatch
    ):
        calls = []
        verdicts = CertificateTest.xis

        def spy_verdicts(test, pins, bounds=None):
            calls.append((test, len(pins)))
            return verdicts(test, pins, bounds)

        monkeypatch.setattr(CertificateTest, "xis", spy_verdicts)
        sys = overlap_system(seed=2)
        cfg = self._cfg(adaptive_penalty=adaptive)
        report = evolve(cfg, sys)
        bred = cfg.population_size * (cfg.generations + 1)
        tests = list(dict.fromkeys(test for test, _ in calls))
        first = sum(rows for test, rows in calls if test is tests[0])
        assert 0 < report.pruned < bred
        # every unpruned chromosome is tested in the first network, and a
        # later network skips those whose earlier tests settled them
        assert first == bred - report.pruned
        assert sum(rows for _, rows in calls) == report.lmi_evaluations
        assert first <= report.lmi_evaluations <= first * sys.num_networks

    def test_fixed_gain_mode_certifies_at_that_gain(self):
        sys = small_system(n=5, seed=2, threshold=0.5)
        cfg = self._cfg(fixed_gain=50.0, generations=10)
        report = evolve(cfg, sys)
        if report.best.feasible:
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
RECORDED_MULTI50 = {'adaptive_penalty': {'best_fitness': 11.0,
                                         'best_fitness_series': [15.0,
                                                                 12.0,
                                                                 12.0,
                                                                 11.0,
                                                                 11.0,
                                                                 11.0],
                                         'best_gains': [26.381674849757797,
                                                        34.33143151917343,
                                                        38.85968267833798],
                                         'best_genes': ['01000111000000100001000100000000001',
                                                        '0100010000010110000001000',
                                                        '0010001110001001010000000'],
                                         'best_is_feasible': True,
                                         'best_pinned_count': 11,
                                         'best_pinned_count_series': [15, 12, 12, 11, 11, 11],
                                         'best_xi': 0.0,
                                         'eigensolves': 27,
                                         'bound_settled': 8,
                                         'feasible_best': {'gains': [26.381674849757797,
                                                                     34.33143151917343,
                                                                     38.85968267833798],
                                                           'genes': ['01000111000000100001000100000000001',
                                                                     '0100010000010110000001000',
                                                                     '0010001110001001010000000'],
                                                           'pinned_count': 11},
                                         'first_feasible_generation': 0,
                                         'best_feasible_generation': 3,
                                         'feasible_fraction_series': [0.35,
                                                                      0.9,
                                                                      0.9,
                                                                      0.95,
                                                                      1.0,
                                                                      0.95],
                                         'gain_solves': 6,
                                         'generations': [0, 1, 2, 3, 4, 5],
                                         'lmi_evaluations': 278,
                                         'mean_fitness_series': [53.19525350252504,
                                                                 17.420219846368774,
                                                                 15.533740290768412,
                                                                 14.420608757162402,
                                                                 12.9,
                                                                 12.292599969007663],
                                         'pruned': 25},
                    'one_point': {'best_fitness': 12.0,
                                  'best_fitness_series': [15.0, 14.0, 13.0, 13.0, 12.0, 12.0],
                                  'best_gains': [27.215869619005087,
                                                 38.468757086028425,
                                                 41.27802841414743],
                                  'best_genes': ['00010001110100100010000100000000000',
                                                 '0001011100010010010000100',
                                                 '0001000100001010010010100'],
                                  'best_is_feasible': True,
                                  'best_pinned_count': 12,
                                  'best_pinned_count_series': [15, 14, 13, 13, 12, 12],
                                  'best_xi': 0.0,
                                  'eigensolves': 25,
                                  'bound_settled': 14,
                                  'feasible_best': {'gains': [27.215869619005087,
                                                              38.468757086028425,
                                                              41.27802841414743],
                                                    'genes': ['00010001110100100010000100000000000',
                                                              '0001011100010010010000100',
                                                              '0001000100001010010010100'],
                                                    'pinned_count': 12},
                                  'first_feasible_generation': 0,
                                  'best_feasible_generation': 4,
                                  'feasible_fraction_series': [0.35, 0.95, 0.9, 0.95, 0.95, 1.0],
                                  'gain_solves': 6,
                                  'generations': [0, 1, 2, 3, 4, 5],
                                  'lmi_evaluations': 285,
                                  'mean_fitness_series': [53.19525350252504,
                                                          17.501398305893794,
                                                          16.085346640836917,
                                                          15.483948334943122,
                                                          14.683948334943121,
                                                          14.05],
                                  'pruned': 21},
                    'uniform': {'best_fitness': 11.0,
                                'best_fitness_series': [15.0, 12.0, 12.0, 11.0, 11.0, 11.0],
                                'best_gains': [26.381674849757797,
                                               34.33143151917343,
                                               38.85968267833798],
                                'best_genes': ['01000111000000100001000100000000001',
                                               '0100010000010110000001000',
                                               '0010001110001001010000000'],
                                'best_is_feasible': True,
                                'best_pinned_count': 11,
                                'best_pinned_count_series': [15, 12, 12, 11, 11, 11],
                                'best_xi': 0.0,
                                'eigensolves': 27,
                                'bound_settled': 10,
                                'feasible_best': {'gains': [26.381674849757797,
                                                            34.33143151917343,
                                                            38.85968267833798],
                                                  'genes': ['01000111000000100001000100000000001',
                                                            '0100010000010110000001000',
                                                            '0010001110001001010000000'],
                                                  'pinned_count': 11},
                                'first_feasible_generation': 0,
                                'best_feasible_generation': 3,
                                'feasible_fraction_series': [0.35, 0.9, 0.9, 0.95, 0.95, 1.0],
                                'gain_solves': 6,
                                'generations': [0, 1, 2, 3, 4, 5],
                                'lmi_evaluations': 282,
                                'mean_fitness_series': [53.19525350252504,
                                                        17.375183205307316,
                                                        15.495528779120296,
                                                        14.3941304732265,
                                                        12.7941304732265,
                                                        12.15],
                                'pruned': 23}}

# evolve(...).to_dict() for built-in single-50 (trial 0), fixed gain 5.0, population 20,
# 5 generations, seed 7.
RECORDED_SINGLE50_FIXED = {'best_fitness': 52.57514633705439,
                           'best_fitness_series': [59.90520989379259,
                                                   59.157006075203384,
                                                   58.11254222274761,
                                                   58.023931752965936,
                                                   53.98434781669191,
                                                   52.57514633705439],
                           'best_gains': [None],
                           'best_genes': ['11111110000110111111111001111110001001100001100101'],
                           'best_is_feasible': False,
                           'best_pinned_count': 31,
                           'best_pinned_count_series': [23, 23, 26, 25, 28, 31],
                           'best_xi': 2.157514633705439,
                           'eigensolves': 112,
                           'bound_settled': 8,
                           'feasible_best': None,
                           'first_feasible_generation': None,
                           'best_feasible_generation': None,
                           'feasible_fraction_series': [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                           'gain_solves': 1,
                           'generations': [0, 1, 2, 3, 4, 5],
                           'lmi_evaluations': 120,
                           'mean_fitness_series': [68.37632307763523,
                                                   64.87042814788515,
                                                   61.77636384742134,
                                                   59.71754595458562,
                                                   57.8815356689669,
                                                   56.51527098120586],
                           'pruned': 0}
