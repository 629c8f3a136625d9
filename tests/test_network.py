"""Network construction: adjacency sampling, Laplacians, overlap structure."""

import numpy as np
import pytest

from pinnet.network import (
    PROFILES,
    DirectedNetwork,
    MembershipProfile,
    MultiNetworkSystem,
    generate_adjacency,
    generate_membership,
    laplacian,
    load_adjacency,
    make_network,
    save_adjacency,
    single_network_system,
)


def char_poly_roots(m: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial, rooted via the companion
    matrix: an eigenvalue oracle independent of the symmetric solver."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = m.copy()
    for k in range(1, n + 1):
        if k > 1:
            mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(mk) / k)
    return np.roots(coeffs)


class TestGenerateAdjacency:
    def test_threshold_one_gives_zero_matrix(self):
        for seed in (0, 7, 991):
            g = generate_adjacency(3, 1.0, seed)
            assert np.array_equal(g, np.zeros((3, 3)))

    def test_zero_diagonal_and_range(self):
        for seed in range(20):
            g = generate_adjacency(10, 0.3, seed)
            assert np.all(np.diagonal(g) == 0.0)
            assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_half_threshold_density_and_kept_weights(self):
        for seed in range(5):
            g = generate_adjacency(50, 0.5, seed)
            off = g[~np.eye(50, dtype=bool)]
            kept = off[off > 0]
            assert 0.45 <= kept.size / off.size <= 0.55
            assert np.all(kept > 0.5) and np.all(kept <= 1.0)
            assert abs(kept.mean() - 0.75) < 0.02

    def test_mean_sparsity_over_1000_seeds(self):
        # Monte-Carlo estimate: each off-diagonal is zero iff its uniform draw
        # fell at or below 0.8, so the zero fraction concentrates at 0.8.
        mask = ~np.eye(100, dtype=bool)
        zero_fracs = []
        for seed in range(1000):
            g = generate_adjacency(100, 0.8, seed)
            zero_fracs.append(np.mean(g[mask] == 0.0))
        assert 0.78 <= np.mean(zero_fracs) <= 0.82

    def test_deterministic_per_seed(self):
        a = generate_adjacency(20, 0.6, 123)
        b = generate_adjacency(20, 0.6, 123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_adjacency(20, 0.6, 124))

    def test_rejects_empty_and_bad_threshold(self):
        with pytest.raises(ValueError):
            generate_adjacency(0, 0.5, 0)
        with pytest.raises(ValueError):
            generate_adjacency(3, 1.5, 0)
        with pytest.raises(ValueError):
            generate_adjacency(3, -0.1, 0)


class TestLaplacian:
    def test_zero_graph(self):
        pair = laplacian(np.zeros((3, 3)))
        assert np.array_equal(pair.laplacian, np.zeros((3, 3)))
        assert np.array_equal(pair.symmetric_part, np.zeros((3, 3)))

    def test_two_node_edge(self):
        pair = laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(pair.laplacian, np.array([[1.0, -1.0], [0.0, 0.0]]))
        assert np.array_equal(
            pair.symmetric_part, np.array([[1.0, -0.5], [-0.5, 0.0]])
        )

    def test_row_sums_and_real_symmetric_spectrum(self):
        for seed in range(10):
            g = generate_adjacency(4, 0.4, seed)
            pair = laplacian(g)
            assert np.max(np.abs(pair.laplacian @ np.ones(4))) <= 1e-12
            roots = char_poly_roots(pair.symmetric_part)
            assert np.max(np.abs(roots.imag)) <= 1e-8
            direct = np.sort(np.linalg.eigvalsh(pair.symmetric_part))
            assert np.max(np.abs(np.sort(roots.real) - direct)) <= 1e-8

    def test_symmetric_part_idempotent(self):
        g = generate_adjacency(6, 0.5, 3)
        ls = laplacian(g).symmetric_part
        assert np.array_equal((ls + ls.T) / 2.0, ls)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            laplacian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            laplacian(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
        with pytest.raises(ValueError):
            laplacian(np.array([[0.0, -0.5], [0.0, 0.0]]))  # negative weight


class TestDirectedNetwork:
    def test_constructor_validates(self):
        g = generate_adjacency(4, 0.5, 0)
        with pytest.raises(ValueError):
            make_network(g, coupling_strength=0.0)
        with pytest.raises(ValueError):
            make_network(g, coupling_strength=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            DirectedNetwork(
                adjacency=g,
                coupling_strength=1.0,
                gamma=1.0,
                target=np.array([1.0]),
                node_ids=np.array([0, 1, 2]),  # wrong length
            )

    def test_arrays_are_immutable(self):
        net = make_network(generate_adjacency(4, 0.5, 1), 0.8)
        with pytest.raises(ValueError):
            net.adjacency[0, 1] = 5.0


class TestMultiNetwork:
    def _two_nets(self, targets=(50.0, 70.0)):
        g = np.zeros((2, 2))
        net0 = make_network(g, 1.0, 1.0, targets[0], node_ids=[0, 1])
        net1 = DirectedNetwork(
            adjacency=np.zeros((1, 1)),
            coupling_strength=1.0,
            gamma=1.0,
            target=np.array([targets[1]]),
            node_ids=np.array([1]),
        )
        memberships = [frozenset({0}), frozenset({0, 1})]
        return MultiNetworkSystem(networks=[net0, net1], memberships=memberships)

    def test_composite_is_mean_of_two(self):
        sys = self._two_nets((50.0, 70.0))
        assert sys.composite_targets[1, 0] == 60.0
        assert sys.composite_targets[0, 0] == 50.0
        assert sys.overlap_set == frozenset({1})

    def test_composite_is_mean_of_three(self):
        nets = []
        for k, t in enumerate((50.0, 70.0, 120.0)):
            nets.append(
                DirectedNetwork(
                    adjacency=np.zeros((1, 1)),
                    coupling_strength=1.0,
                    gamma=1.0,
                    target=np.array([t]),
                    node_ids=np.array([0]),
                )
            )
        sys = MultiNetworkSystem(networks=nets, memberships=[frozenset({0, 1, 2})])
        assert sys.composite_targets[0, 0] == 80.0

    def test_equal_targets_compose_to_same(self):
        sys = self._two_nets((60.0, 60.0))
        assert sys.composite_targets[1, 0] == 60.0

    def test_orphan_node_rejected(self):
        net = make_network(np.zeros((1, 1)), 1.0, 1.0, 5.0, node_ids=[0])
        with pytest.raises(ValueError, match="orphan"):
            MultiNetworkSystem(networks=[net], memberships=[frozenset({0}), frozenset()])

    def test_inconsistent_span_rejected(self):
        # network claims nodes {0, 1} but memberships put node 2 in it too
        net = make_network(np.zeros((2, 2)), 1.0, 1.0, 5.0, node_ids=[0, 1])
        with pytest.raises(ValueError, match="inconsistent"):
            MultiNetworkSystem(
                networks=[net], memberships=[frozenset({0}), frozenset({0}), frozenset({0})]
            )

    def test_unknown_network_index_rejected(self):
        net = make_network(np.zeros((1, 1)), 1.0, 1.0, 5.0, node_ids=[0])
        with pytest.raises(ValueError, match="unknown network"):
            MultiNetworkSystem(networks=[net], memberships=[frozenset({0, 3})])

    def test_single_network_wrapper(self):
        net = make_network(generate_adjacency(5, 0.5, 2), 0.8, 1.0, 90.0)
        sys = single_network_system(net)
        assert sys.num_networks == 1
        assert sys.total_nodes == 5
        assert sys.overlap_set == frozenset()
        assert np.all(sys.composite_targets == 90.0)


class TestMembershipProfiles:
    @pytest.mark.parametrize(
        "name,sizes,counts",
        [
            ("small-50", (35, 25, 25), {3: 5, 2: 25, 1: 20}),
            ("medium-100", (70, 50, 50), {3: 10, 2: 50, 1: 40}),
            ("large-200", (140, 100, 100), {3: 20, 2: 100, 1: 80}),
        ],
    )
    def test_builtin_profiles_exact(self, name, sizes, counts):
        prof = PROFILES[name]
        n = prof.total_nodes
        for seed in range(3):
            memb = generate_membership(n, name, seed)
            assert len(memb) == n
            for k, size in enumerate(sizes):
                assert sum(1 for m in memb if k in m) == size
            for mult, count in counts.items():
                assert sum(1 for m in memb if len(m) == mult) == count

    def test_counting_identity(self):
        # sum over networks of member counts = N + doubles + 2 * triples
        for name in PROFILES:
            prof = PROFILES[name]
            memb = generate_membership(prof.total_nodes, name, 11)
            span_total = sum(len(m) for m in memb)
            doubles = sum(1 for m in memb if len(m) == 2)
            triples = sum(1 for m in memb if len(m) == 3)
            assert span_total == prof.total_nodes + doubles + 2 * triples

    def test_assignment_is_randomized_but_seeded(self):
        a = generate_membership(50, "small-50", 5)
        b = generate_membership(50, "small-50", 5)
        c = generate_membership(50, "small-50", 6)
        assert a == b
        assert a != c

    def test_custom_single_network(self):
        prof = MembershipProfile((4,), {1: 4})
        memb = generate_membership(4, prof, 0)
        assert all(m == frozenset({0}) for m in memb)
        assert not [i for i, m in enumerate(memb) if len(m) >= 2]

    def test_infeasible_profiles_rejected(self):
        with pytest.raises(ValueError):
            MembershipProfile((4, 4), {2: 5})  # identity violated
        prof = MembershipProfile((3, 3), {2: 3})
        with pytest.raises(ValueError, match="infeasible"):
            generate_membership(2, prof, 0)  # more class nodes than N
        with pytest.raises(ValueError):
            generate_membership(5, prof, 0)  # uncovered nodes

    def test_unknown_profile_name(self):
        with pytest.raises(ValueError, match="unknown profile"):
            generate_membership(50, "tiny-7", 0)


class TestAdjacencyCsv:
    def test_roundtrip(self, tmp_path):
        g = generate_adjacency(7, 0.4, 99)
        path = tmp_path / "adj.csv"
        save_adjacency(path, g)
        text = path.read_text().splitlines()
        assert text[0] == "# n=7"
        assert np.array_equal(load_adjacency(path), g)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            load_adjacency(path)
