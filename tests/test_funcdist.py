import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paritylab import funcdist as fd
from paritylab import netcore as nc
from paritylab import sla
from _util import brute_force_girth


class TestEvalFunction:
    def test_empty_subset_is_plus_one(self):
        f = fd.ParitySubset(4, 0)
        for j in range(16):
            x = fd.bits_to_pm([(j >> i) & 1 for i in range(4)])
            assert f.evaluate(x) == 1.0

    def test_hand_product(self):
        # 1-based s = {1, 3} -> 0-based coordinates {0, 2}
        f = fd.ParitySubset(4, 0b0101)
        x = np.array([-1.0, 1.0, -1.0, 1.0])
        assert f.evaluate(x) == 1.0
        assert f.evaluate(np.array([-1.0, 1.0, 1.0, 1.0])) == -1.0

    def test_random_table_deterministic(self):
        f = fd.RandomTable(6, seed=7)
        x = fd.bits_to_pm([1, 0, 1, 1, 0, 0])
        assert f.evaluate(x) == f.evaluate(x)
        assert fd.RandomTable(6, seed=7).evaluate(x) == f.evaluate(x)
        assert f.evaluate(x) in (-1.0, 1.0)

    def test_random_table_batch_matches_scalar(self):
        f = fd.RandomTable(5, seed=3)
        xs = fd.all_inputs_pm(5)
        batch = f.evaluate_batch(xs)
        assert np.array_equal(batch, [f.evaluate(x) for x in xs])

    def test_constants(self):
        x = np.ones(3)
        assert fd.ConstPlus(3).evaluate(x) == 1.0
        assert fd.ConstMinus(3).evaluate(x) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(nc.DimensionMismatch):
            fd.ParitySubset(4, 0b1).evaluate(np.ones(3))

    def test_monomial_popcount_enforced(self):
        with pytest.raises(ValueError):
            fd.MonomialSubset(4, 0b0111, 2)


_M64 = (1 << 64) - 1


def _mix64_ref(x):
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _random_table_ref(n, seed, x):
    """RandomTable's value at x, from its definition in plain Python ints."""
    k0 = _mix64_ref(seed)
    k1 = _mix64_ref(k0 ^ 0x9E3779B97F4A7C15)
    bits = sum(1 << i for i in range(n) if x[i] < 0)
    h = k0
    for j in range(max(1, -(-n // 64))):
        h = _mix64_ref(h ^ ((bits >> (64 * j)) & _M64))
    return -1.0 if _mix64_ref(h ^ k1) >> 63 else 1.0


class TestRandomTableDefinition:
    SEEDS = (0, 1, 2 ** 62 - 1, 2 ** 64 - 1,
             int(np.random.default_rng(23).integers(0, 2 ** 64, dtype=np.uint64)))

    @pytest.mark.parametrize("n", [0, 1, 5, 16, 63, 64, 65, 130])
    def test_matches_plain_int_reference(self, n):
        rng = np.random.default_rng(n)
        xs = fd.all_inputs_pm(n) if n <= 8 else fd.UniformInputs(n).sample(rng, 200)
        for seed in self.SEEDS:
            table = fd.RandomTable(n, seed)
            expected = [_random_table_ref(n, seed, x) for x in xs]
            assert table.evaluate_batch(xs).tolist() == expected
            assert [table.evaluate(x) for x in xs[:20]] == expected[:20]

    @pytest.mark.parametrize("seeds", [
        [int(s) for s in np.random.default_rng(12).integers(0, 2 ** 64, size=1000,
                                                             dtype=np.uint64)],
        list(range(1000)),
    ], ids=["random", "0-999"])
    def test_tables_look_independent(self, seeds):
        """Over all 2^12 inputs, distinct tables correlate as independent
        uniform functions do (mean squared correlation 2^-12), and each
        table's mean is within 5 standard deviations (5 * 2^-6) of 0."""
        xs = fd.all_inputs_pm(12)
        values = np.array([fd.RandomTable(12, s).evaluate_batch(xs) for s in seeds])
        corr = values @ values.T / len(xs)
        off = corr[~np.eye(len(seeds), dtype=bool)]
        assert 0.8 <= np.mean(off ** 2) * 2 ** 12 <= 1.25
        assert np.max(np.abs(values.mean(axis=1))) <= 5 * 2.0 ** -6

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64)])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            fd.RandomTable(4, seed)


class TestDrawFunction:
    def test_explicit_point_mass(self):
        f = fd.ParitySubset(3, 0b010)
        dist = fd.Explicit(((f, 1.0),))
        for seed in range(5):
            assert dist.draw(np.random.default_rng(seed)) == f

    def test_monomial_support(self):
        dist = fd.MonomialK(6, 2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = dist.draw(rng)
            assert f.mask.bit_count() == 2

    def test_constant_mixture_boundary(self):
        dist = fd.ConstantMixture(5, 0.5)
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = dist.draw(rng)
            assert isinstance(f, (fd.ConstPlus, fd.ConstMinus))

    def test_parity_uniform_frequencies(self):
        dist = fd.ParityUniform(4)
        rng = np.random.default_rng(2)
        counts = np.zeros(16)
        n_draws = 100_000
        for _ in range(n_draws):
            counts[dist.draw(rng).mask] += 1
        p = 1.0 / 16
        sigma = math.sqrt(n_draws * p * (1 - p))
        assert np.all(np.abs(counts - n_draws * p) <= 3 * sigma + 1)

    def test_explicit_probability_sum_checked(self):
        f = fd.ParitySubset(2, 0b01)
        with pytest.raises(ValueError):
            fd.Explicit(((f, 0.5),))


class TestSampleSource:
    def test_planted_empty_parity_constant_label(self):
        src = fd.SampleSource.planted(fd.ParitySubset(3, 0), fd.UniformInputs(3), seed=0)
        for _ in range(20):
            _, y = src.next_sample()
            assert y == 1.0

    def test_null_fairness(self):
        src = fd.SampleSource.null(fd.UniformInputs(4), seed=3)
        n_draws = 100_000
        total = sum(src.next_sample()[1] == 1.0 for _ in range(n_draws))
        sigma = math.sqrt(n_draws * 0.25)
        assert abs(total - n_draws / 2) <= 3 * sigma

    def test_planted_parity_balance(self):
        src = fd.SampleSource.planted(fd.ParitySubset(5, 0b10110),
                                      fd.UniformInputs(5), seed=4)
        n_draws = 100_000
        mean = np.mean([src.next_sample()[1] for _ in range(n_draws)])
        assert abs(mean) <= 3 / math.sqrt(n_draws)

    def test_exhaust_raises(self):
        xs = fd.bits_to_pm(np.array([[0, 1], [1, 0]]))
        src = fd.SampleSource.planted(fd.ParitySubset(2, 0b11), fd.FiniteInputs(xs),
                                      seed=0, sampling="exhaust")
        src.next_sample()
        src.next_sample()
        with pytest.raises(fd.SourceExhausted):
            src.next_sample()

    def test_epoch_reshuffles_full_passes(self):
        xs = fd.bits_to_pm(np.eye(4, dtype=int))
        src = fd.SampleSource.planted(fd.ParitySubset(4, 0b1111), fd.FiniteInputs(xs),
                                      seed=0, sampling="epoch")
        seen = [tuple(src.next_sample()[0]) for _ in range(8)]
        assert sorted(seen[:4]) == sorted(seen[4:])  # each pass covers the set

    def test_with_seed_reproduces(self):
        src = fd.SampleSource.null(fd.UniformInputs(3), seed=9)
        a = [src.next_sample() for _ in range(5)]
        b_src = src.with_seed(9)
        b = [b_src.next_sample() for _ in range(5)]
        for (xa, ya), (xb, yb) in zip(a, b):
            assert np.array_equal(xa, xb) and ya == yb


def _samples_digest(src, count=1000):
    h = hashlib.sha256()
    for x, y in (src.next_sample() for _ in range(count)):
        h.update(np.asarray(x, dtype=np.float64).tobytes())
        h.update(np.float64(y).tobytes())
    return h.hexdigest()


class TestSampleStreamsPinned:
    """Digests of 1,000 samples per source, taken before next_sample was made
    cheaper: the draws, their order and the labels are unchanged."""

    def test_planted_iid(self):
        src = fd.SampleSource.planted(fd.ParitySubset(16, 0b1011000000100101),
                                      fd.UniformInputs(16), seed=41)
        assert _samples_digest(src) == (
            "33341cfa5c5a329d14132ee18883326892eb56695833d8e9dfabc86cd9b3f802")

    def test_null_iid(self):
        src = fd.SampleSource.null(fd.UniformInputs(16), seed=42)
        assert _samples_digest(src) == (
            "c47bf2876edcc32d708eb4c4ecb3e80b1012a0e68e2382324eacadbf2ae5180a")

    def test_planted_epoch(self):
        xs = fd.UniformInputs(7).sample(np.random.default_rng(43), 50)
        src = fd.SampleSource.planted(fd.ParitySubset(7, 0b1010011), fd.FiniteInputs(xs),
                                      seed=44, sampling="epoch")
        assert _samples_digest(src) == (
            "f0297caa0ba213cc50164c309bb7c87d064d134a3cb32edf72e0e4bea0fecc7b")

    def test_null_exhaust(self):
        xs = fd.UniformInputs(7).sample(np.random.default_rng(45), 1000)
        src = fd.SampleSource.null(fd.FiniteInputs(xs), seed=46, sampling="exhaust")
        assert _samples_digest(src) == (
            "d69bc9f5cd24a61151c2059a52b9dde45c02dc7e655bd49fd62f7711d1589c46")

    def test_random_table_values(self):
        table = fd.RandomTable(12, 0x5DEECE66D)
        xs = fd.all_inputs_pm(12)
        values = table.evaluate_batch(xs)
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "f2006e31af39479f0b11007b65e18653dd45b570cb153b36ccbafde06584c880")
        assert [table.evaluate(x) for x in xs[:64]] == values[:64].tolist()

    def test_parity_indices_fixed_at_construction(self):
        f = fd.MonomialSubset(6, 0b101001, 3)
        assert f.indices.tolist() == [0, 3, 5]
        assert f.indices is f.indices and not f.indices.flags.writeable
        assert f == fd.MonomialSubset(6, 0b101001, 3)


def _take_matches_next_sample(make, count):
    """source.take(count) returns count next_sample calls' samples, x bitwise
    and labels as equal Python floats, and leaves an equal generator state."""
    block, stream = make(), make()
    xs, ys = block.take(count)
    zs = [stream.next_sample() for _ in range(count)]
    assert xs.shape == (count, block.n)
    assert xs.tobytes() == np.array([x for x, _ in zs]).reshape(count, block.n).tobytes()
    labels = ys.tolist()
    assert all(type(y) is float for y in labels)
    assert labels == [y for _, y in zs]
    assert block._rng.bit_generator.state == stream._rng.bit_generator.state


class TestTake:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        count=st.integers(1, 64),
        kind=st.sampled_from(["parity", "table", "const", "null"]),
        seed=st.integers(0, 2 ** 32 - 1),
        before=st.integers(0, 3),
    )
    def test_uniform_iid_block_equals_stream(self, n, count, kind, seed, before):
        """One block draw per source; odd n leaves half of a 64-bit word in
        the bit generator, carried over from the samples drawn before."""
        inputs = fd.UniformInputs(n)
        f = {"parity": fd.ParitySubset(n, seed % (1 << n)),
             "table": fd.RandomTable(n, seed),
             "const": fd.ConstMinus(n)}.get(kind)

        def make():
            src = (fd.SampleSource.null(inputs, seed=seed) if f is None
                   else fd.SampleSource.planted(f, inputs, seed=seed))
            for _ in range(before):
                src.next_sample()
            return src

        _take_matches_next_sample(make, count)

    @pytest.mark.parametrize("sampling", ["iid", "exhaust", "epoch"])
    @pytest.mark.parametrize("planted", [True, False])
    def test_finite_inputs_follow_next_sample(self, sampling, planted):
        xs = fd.UniformInputs(5).sample(np.random.default_rng(3), 12)
        f = fd.ParitySubset(5, 0b10110)

        def make():
            inputs = fd.FiniteInputs(xs)
            return (fd.SampleSource.planted(f, inputs, seed=8, sampling=sampling) if planted
                    else fd.SampleSource.null(inputs, seed=8, sampling=sampling))

        _take_matches_next_sample(make, 12 if sampling == "exhaust" else 30)

    def test_point_mass_follows_next_sample(self):
        inputs = fd.PointMassInput((1.0, -1.0, -1.0))
        _take_matches_next_sample(
            lambda: fd.SampleSource.planted(fd.ParitySubset(3, 0b011), inputs, seed=2), 9)
        _take_matches_next_sample(lambda: fd.SampleSource.null(inputs, seed=2), 9)

    def test_exhaust_source_raises_when_depleted(self):
        xs = fd.bits_to_pm(np.array([[0, 1], [1, 0], [1, 1]]))
        src = fd.SampleSource.null(fd.FiniteInputs(xs), seed=0, sampling="exhaust")
        with pytest.raises(fd.SourceExhausted):
            src.take(4)
        src = fd.SampleSource.null(fd.FiniteInputs(xs), seed=0, sampling="exhaust")
        src.take(2)
        with pytest.raises(fd.SourceExhausted):
            src.take(2)


class TestParityOrthogonality:
    def test_exhaustive_small_n(self):
        for n in (2, 4, 6):
            xs = fd.all_inputs_pm(n)
            for s in range(2 ** n):
                for t in range(s + 1, 2 ** n):
                    dot = np.dot(fd.ParitySubset(n, s).evaluate_batch(xs),
                                 fd.ParitySubset(n, t).evaluate_batch(xs))
                    assert dot == 0.0

    def test_sampled_n10(self):
        xs = fd.all_inputs_pm(10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s, t = rng.integers(0, 2 ** 10, size=2)
            if s == t:
                continue
            dot = np.dot(fd.ParitySubset(10, int(s)).evaluate_batch(xs),
                         fd.ParitySubset(10, int(t)).evaluate_batch(xs))
            assert dot == 0.0


class TestNullPlantedFirstMoment:
    def test_average_agreement_bound(self):
        # |E_null g - avg_s E_planted g| <= 2^(-n/2) sqrt(E g^2), exhaustively
        n = 6
        rng = np.random.default_rng(5)
        xs = fd.all_inputs_pm(n)
        for _ in range(20):
            g = rng.normal(size=(2 ** n, 2))
            e_null = g.mean()
            e_sq = float((g ** 2).mean())
            planted = []
            for s in range(2 ** n):
                bits = ((1.0 - fd.ParitySubset(n, s).evaluate_batch(xs)) / 2).astype(int)
                planted.append(g[np.arange(2 ** n), bits].mean())
            gap = abs(e_null - np.mean(planted))
            assert gap <= 2.0 ** (-n / 2) * math.sqrt(e_sq) + 1e-12


class TestGf2Recover:
    def test_standard_basis_rows(self):
        # e1, e2, e3 labeled (1, 0, 1) in F2 -> s = {1, 3} (mask 0b101)
        samples = []
        for i, label_bit in enumerate((1, 0, 1)):
            bits = [0, 0, 0]
            bits[i] = 1
            samples.append((fd.bits_to_pm(bits), 1.0 - 2.0 * label_bit))
        assert fd.gf2_recover(samples) == 0b101

    def test_rank_deficient(self):
        x = fd.bits_to_pm([0, 0, 0])
        with pytest.raises(fd.NotIdentifiable):
            fd.gf2_recover([(x, 1.0), (x, 1.0), (x, 1.0)])

    def test_inconsistent(self):
        x = fd.bits_to_pm([1, 0])
        with pytest.raises(fd.Inconsistent):
            fd.gf2_recover([(x, 1.0), (x, -1.0)])

    def test_recovers_hidden_subset(self):
        n, mask = 8, 0b10110001
        f = fd.ParitySubset(n, mask)
        src = fd.SampleSource.planted(f, fd.UniformInputs(n), seed=12)
        samples = [src.next_sample() for _ in range(28)]
        assert fd.gf2_recover(samples) == mask

    def test_succeeds_for_any_consistent_labels(self):
        # full-rank inputs, labels from several different parities
        rng = np.random.default_rng(1)
        n = 6
        xs = fd.bits_to_pm(rng.integers(0, 2, size=(40, n)))
        for mask in (0, 0b111111, 0b010101):
            f = fd.ParitySubset(n, mask)
            samples = [(x, f.evaluate(x)) for x in xs]
            assert fd.gf2_recover(samples) == mask


class TestGf2Eliminator:
    """funcdist's one GF(2) eliminator, which gf2_recover and gf2_solver_sla share."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 2 ** 12 - 1), st.integers(0, 1)),
                         max_size=30))
    def test_solution_satisfies_every_absorbed_row(self, rows):
        system, absorbed = (), []
        for mask, rhs in rows:
            s = fd.gf2_solution(system)
            grown = fd.gf2_absorb(system, mask, rhs)
            if grown is None:
                # 0 = 1: the row is a sum of absorbed rows with the other rhs
                assert (s & mask).bit_count() % 2 != rhs
                continue
            system = grown
            absorbed.append((mask, rhs))
            # sorted, and each pivot column set in its own row only
            assert list(system) == sorted(system)
            for col, _, _ in system:
                assert [c for c, other, _ in system if (other >> col) & 1] == [col]
            s = fd.gf2_solution(system)
            assert all((s & m).bit_count() % 2 == r for m, r in absorbed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_full_rank_planted_stream_recovers_the_mask(self, data):
        """In any row order, with any extra rows, through gf2_recover and
        through gf2_solver_sla's final system."""
        n = data.draw(st.integers(1, 10))
        mask = data.draw(st.integers(0, 2 ** n - 1))
        # n rows of full rank (row i's lowest set bit is i), then any extra rows
        high = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n))
        basis = [(1 << i) | (h >> (i + 1) << (i + 1)) for i, h in enumerate(high)]
        extra = data.draw(st.lists(st.integers(0, 2 ** n - 1), max_size=8))
        rows = data.draw(st.permutations(basis + extra))
        f = fd.ParitySubset(n, mask)
        xs = [fd.bits_to_pm([(r >> i) & 1 for i in range(n)]) for r in rows]
        samples = [(x, f.evaluate(x)) for x in xs]
        assert fd.gf2_recover(samples) == mask
        machine, symbols = sla.gf2_solver_sla(n), []
        for z in samples:
            symbols.append(machine.update(z, symbols))
        assert fd.gf2_solution(symbols[-1][0]) == mask and len(symbols[-1][0]) == n

    @settings(max_examples=60, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), max_size=80))
    def test_pm_to_mask_sets_the_minus_one_coordinates(self, bits):
        assert fd.pm_to_mask(fd.bits_to_pm(bits)) == sum(b << i for i, b in enumerate(bits))


class TestGridDataset:
    def test_label_is_xor_of_cells(self):
        images, labels = fd.grid_dataset(fd.GridDatasetSpec(4, 200, seed=0))
        expected = np.bitwise_xor.reduce(images, axis=1)
        assert np.array_equal(labels, expected)

    def test_all_white_and_single_black(self):
        assert (np.zeros(9, dtype=np.uint8).sum() & 1) == 0
        one = np.zeros(9, dtype=np.uint8)
        one[4] = 1
        assert (one.sum() & 1) == 1

    def test_label_balance(self):
        _, labels = fd.grid_dataset(fd.GridDatasetSpec(5, 10_000, seed=1))
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(labels.sum() - 5000) <= 3 * sigma

    def test_deterministic(self):
        a = fd.grid_dataset(fd.GridDatasetSpec(3, 50, seed=9))
        b = fd.grid_dataset(fd.GridDatasetSpec(3, 50, seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestAerGraphs:
    def test_r3_simple_and_trivially_ok(self):
        g = fd.aer_sample(20, 8.0, 3, seed=0)
        assert all(u != v for u, v in g.edges)
        assert brute_force_girth(g) >= 3

    def test_no_triangles_at_r4(self):
        for seed in range(5):
            g = fd.aer_sample(30, 10 * math.log(30), 4, seed=seed)
            adj = g.adjacency()
            for u, v in g.edges:
                assert not (adj[u] & adj[v]), "triangle survived"

    def test_girth_at_least_r(self):
        for seed, (n, m, r) in enumerate([(25, 8.0, 4), (30, 12.0, 5), (40, 10.0, 6)]):
            g = fd.aer_sample(n, m, r, seed=seed)
            assert brute_force_girth(g) >= r

    def test_internal_girth_matches_oracle(self):
        for seed in range(10):
            g = fd.aer_sample(18, 6.0, 4, seed=seed)
            assert fd.girth(g) == brute_force_girth(g)

    def test_connectivity_label(self):
        assert fd.connectivity_label(fd.Graph(2, frozenset())) is False
        path = fd.Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert fd.connectivity_label(path) is True

    def test_connectivity_vs_union_find(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            edges = set()
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.15:
                        edges.add((u, v))
            g = fd.Graph(n, frozenset(edges))
            parent = list(range(n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for u, v in edges:
                parent[find(u)] = find(v)
            oracle = len({find(v) for v in range(n)}) == 1
            assert fd.connectivity_label(g) == oracle

    def test_patched_pair_disconnected(self):
        g1 = fd.aer_sample(15, 30.0, 3, seed=1)  # dense -> connected
        g2 = fd.aer_sample(15, 30.0, 3, seed=2)
        assert fd.connectivity_label(g1) and fd.connectivity_label(g2)
        patched = fd.patched_pair(g1, g2, seed=3)
        assert fd.connectivity_label(patched) is False

    def test_graph_io_round_trip(self, tmp_path):
        g = fd.aer_sample(12, 5.0, 4, seed=4)
        path = tmp_path / "g.txt"
        fd.write_graph(path, g)
        assert fd.read_graph(path) == g

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            fd.aer_sample(10, 5.0, 2, seed=0)
        with pytest.raises(ValueError):
            fd.aer_sample(0, 5.0, 3, seed=0)


class TestBitConventions:
    def test_bit_map(self):
        bits = np.array([0, 1, 1, 0])
        assert np.array_equal(fd.bits_to_pm(bits), [1.0, -1.0, -1.0, 1.0])

    def test_parity_equals_xor(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits = rng.integers(0, 2, size=6)
            mask = int(rng.integers(0, 64))
            f = fd.ParitySubset(6, mask)
            xor = 0
            for i in range(6):
                if (mask >> i) & 1:
                    xor ^= int(bits[i])
            assert f.evaluate(fd.bits_to_pm(bits)) == 1.0 - 2.0 * xor

    def test_subset_to_mask(self):
        assert fd.subset_to_mask({0, 1, 3}) == 0b1011


class TestDatasetFiles:
    def test_csv_round_trip(self, tmp_path):
        images, labels = fd.grid_dataset(fd.GridDatasetSpec(3, 25, seed=2))
        path = tmp_path / "grid.csv"
        fd.write_dataset_csv(path, images, labels)
        first = path.read_text().splitlines()[0]
        assert first.endswith(",label") and first.startswith("x0,")
        bits, lab = fd.read_dataset_csv(path)
        assert np.array_equal(bits, images)
        assert np.array_equal(lab, labels)
