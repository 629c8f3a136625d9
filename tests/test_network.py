"""Network construction: adjacency sampling, Laplacians, overlap structure."""

import functools
import itertools

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
            DirectedNetwork(g, coupling_strength=0.0)
        with pytest.raises(ValueError):
            DirectedNetwork(g, coupling_strength=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            DirectedNetwork(
                adjacency=g,
                coupling_strength=1.0,
                gamma=1.0,
                target=np.array([1.0]),
                node_ids=np.array([0, 1, 2]),  # wrong length
            )
        with pytest.raises(ValueError, match="unique"):
            DirectedNetwork(g, 1.0, node_ids=[0, 1, 1, 2])
        with pytest.raises(ValueError, match=">= 0"):
            DirectedNetwork(g, 1.0, node_ids=[-1, 0, 1, 2])

    @pytest.mark.parametrize(
        "coupling,gamma",
        [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf), (np.nan, np.inf)],
    )
    def test_non_finite_constants_rejected(self, coupling, gamma):
        with pytest.raises(ValueError, match="finite"):
            DirectedNetwork(np.zeros((2, 2)), coupling, gamma)

    def test_defaults(self):
        net = DirectedNetwork(generate_adjacency(4, 0.5, 1), 0.8)
        assert net.gamma == 1.0
        assert net.target.tolist() == [0.0]
        assert net.node_ids.tolist() == [0, 1, 2, 3] and net.node_ids.dtype == np.int64

    def test_arrays_are_immutable(self):
        net = DirectedNetwork(generate_adjacency(4, 0.5, 1), 0.8)
        with pytest.raises(ValueError):
            net.adjacency[0, 1] = 5.0


class TestMultiNetwork:
    def _two_nets(self, targets=(50.0, 70.0)):
        net0 = DirectedNetwork(np.zeros((2, 2)), 1.0, 1.0, targets[0], [0, 1])
        net1 = DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, targets[1], [1])
        return MultiNetworkSystem((net0, net1))

    def test_composite_is_mean_of_two(self):
        sys = self._two_nets((50.0, 70.0))
        assert sys.composite_targets[1, 0] == 60.0
        assert sys.composite_targets[0, 0] == 50.0
        assert sys.memberships == (frozenset({0}), frozenset({0, 1}))
        assert sys.total_nodes == 2

    def test_composite_is_mean_of_three(self):
        nets = [DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, t, [0]) for t in (50.0, 70.0, 120.0)]
        sys = MultiNetworkSystem(tuple(nets))
        assert sys.composite_targets[0, 0] == 80.0
        assert sys.memberships == (frozenset({0, 1, 2}),)

    def test_equal_targets_compose_to_same(self):
        sys = self._two_nets((60.0, 60.0))
        assert sys.composite_targets[1, 0] == 60.0

    def test_orphan_node_rejected(self):
        # the ids cover nodes 0 and 2, so node 1 belongs to no network
        net = DirectedNetwork(np.zeros((2, 2)), 1.0, 1.0, 5.0, [0, 2])
        with pytest.raises(ValueError, match="orphan node 1"):
            MultiNetworkSystem((net,))
        nets = [DirectedNetwork(np.zeros((1, 1)), 1.0, 1.0, 5.0, [i]) for i in (3, 0, 1)]
        with pytest.raises(ValueError, match="orphan node 2"):
            MultiNetworkSystem(tuple(nets))

    def test_single_network_wrapper(self):
        net = DirectedNetwork(generate_adjacency(5, 0.5, 2), 0.8, 1.0, 90.0)
        sys = MultiNetworkSystem((net,))
        assert sys.num_networks == 1
        assert sys.total_nodes == 5
        assert sys.memberships == (frozenset({0}),) * 5
        assert np.all(sys.composite_targets == 90.0)

    def test_composite_of_vector_targets_is_the_member_mean_per_component(self):
        # node 2 is in all three; (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit
        targets = ((50.0, 0.1), (70.0, 0.2), (120.0, 0.3))
        node_ids = ([0, 1, 2, 4], [1, 2, 3], [2, 3])
        nets = [
            DirectedNetwork(np.zeros((len(ids), len(ids))), 1.0, 1.0, t, ids)
            for t, ids in zip(targets, node_ids)
        ]
        sys = MultiNetworkSystem(tuple(nets))
        assert sys.state_dim == 2 and sys.composite_targets.shape == (5, 2)
        for i, memb in enumerate(sys.memberships):
            want = np.mean([targets[k] for k in sorted(memb)], axis=0)
            assert sys.composite_targets[i].tobytes() == want.tobytes()
        assert sys.composite_targets[2].tolist() == [80.0, (0.1 + 0.2 + 0.3) / 3]

    def test_node_means_of_scalars(self):
        sys = self._two_nets()
        means = sys.node_means([4.0, 7.0])
        assert means.shape == (2,) and means.tolist() == [4.0, 5.5]
        with pytest.raises(ValueError):
            sys.node_means([4.0])  # one value per network

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_memberships_are_the_generated_ones(self, name):
        prof = PROFILES[name]
        for seed in range(3):
            node_ids = generate_membership(prof, seed)
            nets = [
                DirectedNetwork(np.zeros((len(ids), len(ids))), 1.0, 1.0, 10.0 * k, ids)
                for k, ids in enumerate(node_ids)
            ]
            sys = MultiNetworkSystem(tuple(nets))
            memb = per_node(node_ids, prof.total_nodes)
            assert sys.memberships == memb
            assert sys.total_nodes == prof.total_nodes
            means = [np.mean([10.0 * k for k in sorted(m)]) for m in memb]
            assert sys.composite_targets[:, 0].tolist() == means


def per_node(node_ids, n: int) -> tuple[frozenset[int], ...]:
    """Each node's set of networks, from each network's node ids."""
    return tuple(frozenset(k for k, ids in enumerate(node_ids) if i in ids) for i in range(n))


def per_node_draw(profile: MembershipProfile, rng_seed: int) -> tuple[frozenset[int], ...]:
    """The per-node membership draw generate_membership replaced, kept as its oracle."""
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(profile.total_nodes)
    caps = np.array(profile.network_sizes, dtype=np.int64)
    memberships: list[set[int]] = [set() for _ in range(profile.total_nodes)]
    pos = 0
    for mult in sorted(profile.overlap_counts, reverse=True):
        for _ in range(profile.overlap_counts[mult]):
            node = int(order[pos])
            pos += 1
            tie = rng.random(len(caps))
            chosen = np.lexsort((tie, -caps))[:mult]
            for k in chosen:
                memberships[node].add(int(k))
            caps[chosen] -= 1
    return tuple(frozenset(m) for m in memberships)


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
            node_ids = generate_membership(prof, seed)
            assert [len(ids) for ids in node_ids] == list(sizes)
            for ids in node_ids:
                assert ids.tolist() == sorted(set(ids.tolist())) and 0 <= ids[0] and ids[-1] < n
            memb = per_node(node_ids, n)
            for mult, count in counts.items():
                assert sum(1 for m in memb if len(m) == mult) == count

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_ids_are_the_per_node_draw_regrouped(self, name):
        # the same generator calls in the same order as the per-node draw
        prof = PROFILES[name]
        for seed in range(3):
            assert per_node(generate_membership(prof, seed), prof.total_nodes) == per_node_draw(
                prof, seed
            )

    def test_counting_identity(self):
        # sum over networks of member counts = N + doubles + 2 * triples
        for name in PROFILES:
            prof = PROFILES[name]
            node_ids = generate_membership(prof, 11)
            memb = per_node(node_ids, prof.total_nodes)
            span_total = sum(len(ids) for ids in node_ids)
            doubles = sum(1 for m in memb if len(m) == 2)
            triples = sum(1 for m in memb if len(m) == 3)
            assert span_total == prof.total_nodes + doubles + 2 * triples

    def test_assignment_is_randomized_but_seeded(self):
        prof = PROFILES["small-50"]
        a, b, c = (generate_membership(prof, seed) for seed in (5, 5, 6))
        assert [ids.tolist() for ids in a] == [ids.tolist() for ids in b]
        assert [ids.tolist() for ids in a] != [ids.tolist() for ids in c]

    def test_custom_single_network(self):
        prof = MembershipProfile((4,), {1: 4})
        (ids,) = generate_membership(prof, 0)
        assert ids.tolist() == [0, 1, 2, 3]

    def test_infeasible_profiles_rejected(self):
        with pytest.raises(ValueError):
            MembershipProfile((4, 4), {2: 5})  # identity violated
        # the identity holds, but two nodes in both networks overfill the one-node network
        with pytest.raises(ValueError, match=r"^infeasible profile: sizes \(3, 1\) cannot hold"):
            MembershipProfile((3, 1), {2: 2})

    def test_profiles_load_exactly_when_an_assignment_exists(self):
        # Every profile with K <= 3 networks of sizes <= 3 that meets the
        # counting identity; the exhaustive search below is the oracle.
        seen = {True: 0, False: 0}
        for k in (1, 2, 3):
            for sizes in itertools.product((1, 2, 3), repeat=k):
                for counts in itertools.product(range(sum(sizes) + 1), repeat=k):
                    if sum(m * c for m, c in enumerate(counts, 1)) != sum(sizes):
                        continue
                    classes = {m: c for m, c in enumerate(counts, 1) if c}
                    mults = tuple(m for m, c in classes.items() for _ in range(c))
                    meetable = assignable(sizes, mults)
                    try:
                        prof = MembershipProfile(sizes, classes)
                    except ValueError as exc:
                        assert not meetable and "infeasible" in str(exc), (sizes, classes)
                    else:
                        assert meetable, (sizes, classes)
                        for seed in range(3):
                            ids = generate_membership(prof, seed)
                            assert [len(i) for i in ids] == list(sizes), (sizes, classes)
                    seen[meetable] += 1
        assert min(seen.values()) > 0, seen


@functools.cache
def assignable(room: tuple[int, ...], mults: tuple[int, ...]) -> bool:
    """Whether nodes of these multiplicities can fill networks of this room
    exactly, each node in distinct networks: an exhaustive search."""
    if not mults:
        return not any(room)
    for nets in itertools.combinations(range(len(room)), mults[0]):
        if all(room[j] for j in nets):
            rest = tuple(r - (j in nets) for j, r in enumerate(room))
            if assignable(rest, mults[1:]):
                return True
    return False
