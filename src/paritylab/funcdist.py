"""Function families, labeled-sample sources, datasets, and non-net baselines.

Inputs and labels live in {+1, -1} internally; file formats use bits with the
fixed map b -> 1 - 2b (0 -> +1, 1 -> -1).  A parity over subset s is the
product of the selected +-1 coordinates, equivalently the XOR of the bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .netcore import DimensionMismatch


class TooLarge(Exception):
    """Exhaustive path requested beyond the configured size caps."""


class SourceExhausted(Exception):
    """A finite sample set was depleted in no-replacement mode."""


class NotIdentifiable(Exception):
    """The GF(2) system is rank-deficient: several parities fit the samples."""


class Inconsistent(Exception):
    """No parity function is consistent with the labeled samples."""


# ---------------------------------------------------------------------------
# bit conventions
# ---------------------------------------------------------------------------

def bits_to_pm(bits):
    """Canonical bit map: 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


_PM_OF_BIT = np.array([1.0, -1.0])  # bits_to_pm as a lookup table for 0/1 ints


def all_inputs_pm(n: int, cap: int = 24) -> np.ndarray:
    """All of {+1,-1}^n, row j having coordinate i = bit i of j."""
    if n > cap:
        raise TooLarge(f"cannot enumerate {{+1,-1}}^{n}")
    idx = np.arange(2 ** n, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return bits_to_pm(bits)


def subset_to_mask(subset: Iterable[int]) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << int(i)
    return mask


# ---------------------------------------------------------------------------
# function ids
# ---------------------------------------------------------------------------

class FunctionId:
    """A deterministic, evaluable +-1 function on {+1,-1}^n."""

    n: int

    def evaluate(self, x) -> float:
        """f(x) for one input: evaluate_batch on a one-row batch."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"input shape {x.shape} != ({self.n},)")
        return float(self.evaluate_batch(x[None])[0])

    def evaluate_batch(self, xs) -> np.ndarray:
        """f of each row of a (rows, n) input block, exactly +-1."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ParitySubset(FunctionId):
    """p_s(x) = prod_{i in s} x_i, s given as a bit mask over coordinates."""

    n: int
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >= (1 << self.n):
            raise ValueError("subset mask out of range")
        indices = np.array(
            [i for i in range(self.n) if (self.mask >> i) & 1], dtype=np.intp
        )
        indices.setflags(write=False)
        object.__setattr__(self, "_indices", indices)

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def evaluate_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        odd = np.count_nonzero(xs[:, self._indices] < 0, axis=1) & 1
        return 1.0 - 2.0 * odd

    def describe(self) -> dict:
        return {"kind": "parity", "n": self.n, "mask": self.mask}


@dataclass(frozen=True)
class MonomialSubset(ParitySubset):
    """A parity constrained to |s| = k (a degree-k monomial)."""

    k: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.mask.bit_count() != self.k:
            raise ValueError("monomial mask popcount must equal k")

    def describe(self) -> dict:
        return {"kind": "monomial", "n": self.n, "mask": self.mask, "k": self.k}


_MIX_M1, _MIX_M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(h: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea & Flood 2014), in place on a uint64
    array, all arithmetic mod 2^64."""
    h ^= h >> 30
    h *= _MIX_M1
    h ^= h >> 27
    h *= _MIX_M2
    h ^= h >> 31
    return h


def _mix64_int(x: int) -> int:
    """_mix64 of one Python int in [0, 2^64), for a table's keys: on a
    one-element array the same rounds cost several times as much."""
    x = (x ^ x >> 30) * _MIX_M1 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ x >> 27) * _MIX_M2 & 0xFFFFFFFFFFFFFFFF
    return x ^ x >> 31


@dataclass(frozen=True)
class RandomTable(FunctionId):
    """A uniformly random function, lazily materialized via a keyed hash so
    that large n stays usable without storing 2^n entries.

    With k0 = mix64(seed) and k1 = mix64(k0 ^ 0x9E3779B97F4A7C15), an input's
    bits [x_i < 0], packed little-endian into W = max(1, ceil(n / 64)) words
    u_j (the last zero-padded), give h = k0, then h = mix64(h ^ u_j) for each
    word; f(x) = -1 iff bit 63 of mix64(h ^ k1) is set."""

    n: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"random table seed must be in [0, 2^64), got {self.seed}")
        k0 = _mix64_int(self.seed)
        object.__setattr__(self, "_k0", k0)
        object.__setattr__(self, "_k1", _mix64_int(k0 ^ 0x9E3779B97F4A7C15))

    def evaluate_batch(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        rows, words = xs.shape[0], max(1, -(-self.n // 64))
        # each row padded to whole words: one flat packbits is a row-wise one
        bits = np.zeros((rows, 64 * words), dtype=bool)
        np.less(xs, 0, out=bits[:, :self.n])
        u = np.packbits(bits, bitorder="little").view("<u8").reshape(rows, words)
        h = np.full(rows, self._k0, dtype=np.uint64)
        for j in range(words):
            h ^= u[:, j]
            _mix64(h)
        h ^= self._k1
        return _PM_OF_BIT[_mix64(h) >> 63]

    def describe(self) -> dict:
        return {"kind": "random_table", "n": self.n, "seed": self.seed}


@dataclass(frozen=True)
class ConstPlus(FunctionId):
    n: int

    def evaluate_batch(self, xs) -> np.ndarray:
        return np.ones(np.asarray(xs).shape[0])

    def describe(self) -> dict:
        return {"kind": "const", "n": self.n, "sign": 1}


@dataclass(frozen=True)
class ConstMinus(FunctionId):
    n: int

    def evaluate_batch(self, xs) -> np.ndarray:
        return -np.ones(np.asarray(xs).shape[0])

    def describe(self) -> dict:
        return {"kind": "const", "n": self.n, "sign": -1}


# ---------------------------------------------------------------------------
# function distributions
# ---------------------------------------------------------------------------

MAX_ENUM_FUNCTIONS = 4096  # the largest support enumerate() lists
MAX_EXHAUSTIVE_N = 12  # the largest n whose 2^n inputs an exact sum or evaluation visits


class FunctionDistribution:
    """A samplable family of labeling functions."""

    n: int

    def __post_init__(self):
        # run by the dataclass families' __init__, unless they override it
        if self.n < 1:
            raise ValueError(f"need n >= 1 inputs, got {self.n}")

    def draw(self, rng: np.random.Generator) -> FunctionId:
        raise NotImplementedError

    def enumerate(self) -> List[Tuple[FunctionId, float]]:
        """Explicit (function, probability) support, for exact computations."""
        raise TooLarge(f"{type(self).__name__} support is not enumerable")

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ParityUniform(FunctionDistribution):
    """Uniform over all 2^n parity functions."""

    n: int

    def draw(self, rng) -> ParitySubset:
        mask = int(rng.integers(0, 2 ** self.n))
        return ParitySubset(self.n, mask)

    def enumerate(self):
        if 2 ** self.n > MAX_ENUM_FUNCTIONS:
            raise TooLarge(f"2^{self.n} parities exceed the enumeration cap")
        prob = 2.0 ** (-self.n)
        return [(ParitySubset(self.n, m), prob) for m in range(2 ** self.n)]

    def describe(self):
        return {"kind": "parity_uniform", "n": self.n}


@dataclass(frozen=True)
class MonomialK(FunctionDistribution):
    """Uniform over the C(n, k) degree-k monomials."""

    n: int
    k: int

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.k <= self.n):
            raise ValueError("need 0 <= k <= n")

    def draw(self, rng) -> MonomialSubset:
        # uniform k-subset without enumerating all C(n, k) masks
        idx = rng.choice(self.n, size=self.k, replace=False)
        return MonomialSubset(self.n, subset_to_mask(idx), self.k)

    def enumerate(self):
        count = math.comb(self.n, self.k)
        if count > MAX_ENUM_FUNCTIONS:
            raise TooLarge(f"C({self.n},{self.k}) = {count} exceeds the enumeration cap")
        prob = 1.0 / count
        return [(MonomialSubset(self.n, subset_to_mask(c), self.k), prob)
                for c in itertools.combinations(range(self.n), self.k)]

    def describe(self):
        return {"kind": "monomial_k", "n": self.n, "k": self.k}


@dataclass(frozen=True)
class UniformAll(FunctionDistribution):
    """Uniform over all 2^(2^n) functions; sampled lazily, never enumerated."""

    n: int

    def draw(self, rng) -> RandomTable:
        return RandomTable(self.n, int(rng.integers(0, 2 ** 62)))

    def describe(self):
        return {"kind": "uniform_all", "n": self.n}


@dataclass(frozen=True)
class ConstantMixture(FunctionDistribution):
    """Each constant function with probability p_const, else a uniform function."""

    n: int
    p_const: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.p_const <= 0.5):
            raise ValueError("p_const must be in [0, 1/2]")

    def draw(self, rng) -> FunctionId:
        u = rng.random()
        if u < self.p_const:
            return ConstPlus(self.n)
        if u < 2 * self.p_const:
            return ConstMinus(self.n)
        return RandomTable(self.n, int(rng.integers(0, 2 ** 62)))

    def describe(self):
        return {"kind": "constant_mixture", "n": self.n, "p_const": self.p_const}


@dataclass(frozen=True)
class Explicit(FunctionDistribution):
    """An explicit finite (function, probability) list.  Probabilities that
    sum to 1 within 1e-12 are normalized by their sum, which leaves a list
    that sums to exactly 1 as given."""

    items: tuple

    def __post_init__(self):
        items = tuple((f, float(p)) for f, p in self.items)
        if not items:
            raise ValueError("empty explicit distribution")
        total = math.fsum(p for _, p in items)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        ns = {f.n for f, _ in items}
        if len(ns) != 1:
            raise ValueError("all functions must share one input size")
        object.__setattr__(self, "items", tuple((f, p / total) for f, p in items))
        object.__setattr__(self, "n", items[0][0].n)

    def draw(self, rng) -> FunctionId:
        u = rng.random()
        acc = 0.0
        for f, p in self.items:
            acc += p
            if u < acc:
                return f
        return self.items[-1][0]

    def enumerate(self):
        return list(self.items)

    def describe(self):
        return {"kind": "explicit", "n": self.n, "support": len(self.items)}


# ---------------------------------------------------------------------------
# input distributions and sample sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformInputs:
    n: int

    def sample(self, rng, size: int) -> np.ndarray:
        return bits_to_pm(rng.integers(0, 2, size=(size, self.n)))

    def sample_one(self, rng) -> np.ndarray:
        """sample(rng, 1)[0], from the same draws of rng."""
        return _PM_OF_BIT[rng.integers(0, 2, size=self.n)]


@dataclass(frozen=True)
class PointMassInput:
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))

    @property
    def n(self) -> int:
        return len(self.x)

    def sample(self, rng, size: int) -> np.ndarray:
        return np.tile(np.array(self.x), (size, 1))


@dataclass(frozen=True)
class FiniteInputs:
    xs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] == 0:
            raise DimensionMismatch("finite input set must be a non-empty matrix")
        xs = xs.copy()
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)

    @property
    def n(self) -> int:
        return int(self.xs.shape[1])

    def sample(self, rng, size: int) -> np.ndarray:
        return self.xs[rng.integers(0, self.xs.shape[0], size=size)]


class SampleSource:
    """Stream of labeled pairs: planted (X, f(X)) or null (X, fair coin).

    For finite input sets, ``sampling`` is 'iid' (with replacement, default),
    'exhaust' (without replacement; SourceExhausted when depleted), or 'epoch'
    (reshuffled full passes).
    """

    def __init__(self, mode, input_dist, f: Optional[FunctionId] = None,
                 seed: int = 0, sampling: str = "iid"):
        if mode not in ("planted", "null"):
            raise ValueError(f"unknown source mode {mode!r}")
        if mode == "planted":
            if f is None:
                raise ValueError("planted source requires a function")
            if f.n != input_dist.n:
                raise DimensionMismatch("function and input dimensions differ")
        if sampling not in ("iid", "exhaust", "epoch"):
            raise ValueError(f"unknown sampling policy {sampling!r}")
        if sampling != "iid" and not isinstance(input_dist, FiniteInputs):
            raise ValueError("exhaust/epoch sampling needs a finite input set")
        self.mode = mode
        self.input_dist = input_dist
        self.f = f
        self.seed = seed
        self.sampling = sampling
        self._rng = np.random.default_rng(seed)
        self._order: Optional[np.ndarray] = None
        self._cursor = 0

    @classmethod
    def planted(cls, f: FunctionId, input_dist, seed: int = 0, sampling: str = "iid"):
        return cls("planted", input_dist, f=f, seed=seed, sampling=sampling)

    @classmethod
    def null(cls, input_dist, seed: int = 0, sampling: str = "iid"):
        return cls("null", input_dist, seed=seed, sampling=sampling)

    @property
    def n(self) -> int:
        return self.input_dist.n

    def with_seed(self, seed: int) -> "SampleSource":
        return SampleSource(self.mode, self.input_dist, f=self.f,
                            seed=seed, sampling=self.sampling)

    def _next_x(self) -> np.ndarray:
        if self.sampling == "iid":
            if isinstance(self.input_dist, UniformInputs):
                return self.input_dist.sample_one(self._rng)
            return self.input_dist.sample(self._rng, 1)[0]
        xs = self.input_dist.xs
        if self.sampling == "exhaust" and self._cursor >= xs.shape[0]:
            raise SourceExhausted("finite sample set depleted")
        # one permutation per pass: exhaust makes one pass, epoch reshuffles
        if self._order is None or self._cursor >= xs.shape[0]:
            self._order = self._rng.permutation(xs.shape[0])
            self._cursor = 0
        x = xs[self._order[self._cursor]]
        self._cursor += 1
        return x

    def next_sample(self) -> Tuple[np.ndarray, float]:
        x = self._next_x()
        if self.mode == "planted":
            return x, float(self.f.evaluate(x))
        return x, 1.0 - 2.0 * int(self._rng.integers(0, 2))

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``count`` samples as a (count, n) input block and a
        (count,) label array: what ``count`` next_sample calls return, from
        the same draws, leaving the generator in the same state.  A uniform
        iid source draws its block in one call: each 0/1 draw takes one
        32-bit word of the bit generator, whatever the call boundaries."""
        if self.sampling == "iid" and isinstance(self.input_dist, UniformInputs):
            n = self.n
            if self.mode == "planted":
                xs = _PM_OF_BIT[self._rng.integers(0, 2, size=(count, n))]
                return xs, self.f.evaluate_batch(xs)
            bits = self._rng.integers(0, 2, size=(count, n + 1))
            return _PM_OF_BIT[bits[:, :n]], 1.0 - 2.0 * bits[:, n]
        zs = [self.next_sample() for _ in range(count)]
        return np.array([x for x, _ in zs]), np.array([y for _, y in zs])


# ---------------------------------------------------------------------------
# GF(2) parity recovery
# ---------------------------------------------------------------------------

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def pm_to_mask(x) -> int:
    """The bit mask of a +-1 input: bit i set where x[i] < 0 (bit 1 -> -1)."""
    digits = (np.asarray(x) < 0).tobytes()[::-1].translate(_BIT_DIGITS)  # bit n-1 first
    return int(digits or b"0", 2)


def gf2_absorb(system: tuple, mask: int, rhs: int) -> Optional[tuple]:
    """``system`` plus the equation <mask, s> = rhs over GF(2), or None when
    the row reduces to 0 = 1.

    A system is a sorted tuple of (pivot column, row mask, rhs), fully
    reduced: each pivot column is set in its own row only.  A row that
    reduces to 0 = 0 returns ``system`` itself."""
    for col, pmask, prhs in system:
        if (mask >> col) & 1:
            mask ^= pmask
            rhs ^= prhs
    if mask == 0:
        return None if rhs else system
    col = (mask & -mask).bit_length() - 1
    return tuple(sorted([(c, pmask ^ mask, prhs ^ rhs) if (pmask >> col) & 1 else (c, pmask, prhs)
                         for c, pmask, prhs in system] + [(col, mask, rhs)]))


def gf2_solution(system: tuple) -> int:
    """The solution mask of a reduced system, its free columns set to 0."""
    s = 0
    for col, _, rhs in system:
        if rhs:
            s |= 1 << col
    return s


def gf2_recover(samples) -> int:
    """Recover the planted parity subset from labeled samples.

    Converts +-1 values to bits via b = (1 - v) / 2 and eliminates the
    augmented system [X | y] over GF(2) with gf2_absorb.  Returns the subset
    mask when the sample matrix has full column rank; raises Inconsistent when
    no parity fits and NotIdentifiable on rank deficiency.
    """
    samples = list(samples)
    if not samples:
        raise NotIdentifiable("no samples")
    n = len(np.asarray(samples[0][0]))
    rows = []
    for x, y in samples:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise DimensionMismatch("sample dimensions differ")
        rows.append((pm_to_mask(x), 1 if y < 0 else 0))
    system = ()
    for mask, rhs in rows:
        system = gf2_absorb(system, mask, rhs)
        if system is None:
            raise Inconsistent("labels are not any parity of the inputs")
    if len(system) < n:
        raise NotIdentifiable(f"rank {len(system)} < {n}: several parities fit the samples")
    return gf2_solution(system)


# ---------------------------------------------------------------------------
# grid-parity dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDatasetSpec:
    """count random k x k bit images, labeled by the parity of their ones."""

    grid_k: int
    count: int
    seed: int

    def __post_init__(self):
        if self.grid_k < 1 or self.count < 0:
            raise ValueError("grid_k must be >= 1 and count >= 0")


def grid_dataset(spec: GridDatasetSpec):
    """Returns (images, labels) as bit arrays; label = XOR of all cells."""
    rng = np.random.default_rng(spec.seed)
    images = rng.integers(0, 2, size=(spec.count, spec.grid_k ** 2), dtype=np.uint8)
    labels = (images.sum(axis=1) & 1).astype(np.uint8)
    return images, labels


def write_dataset_csv(path, bits, labels):
    """Dataset file format: header row, one row per sample, bits as 0/1,
    label column last."""
    bits = np.asarray(bits)
    labels = np.asarray(labels)
    if bits.ndim != 2 or labels.shape != (bits.shape[0],):
        raise DimensionMismatch("dataset arrays have inconsistent shapes")
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(bits.shape[1])) + ",label\n")
        for row, label in zip(bits, labels):
            fh.write(",".join(str(int(b)) for b in row) + f",{int(label)}\n")


def read_dataset_csv(path):
    """Inverse of write_dataset_csv: (bits, labels) as uint8 arrays."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[-1] != "label":
            raise ValueError("dataset file must end with a label column")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    data = np.array([[int(v) for v in row] for row in rows], dtype=np.uint8)
    if data.size == 0:
        return np.zeros((0, len(header) - 1), dtype=np.uint8), np.zeros(0, np.uint8)
    return data[:, :-1], data[:, -1]


# ---------------------------------------------------------------------------
# graphs: AER distribution and connectivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        norm = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.edges
        )
        for u, v in norm:
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge ({u},{v})")
        object.__setattr__(self, "edges", norm)

    def adjacency(self) -> dict:
        adj = {v: set() for v in range(self.n)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _bfs_dist(adj, start, goal, cutoff, banned=None):
    """Length of the shortest start-goal path avoiding the banned edge, or None."""
    if start == goal:
        return 0
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d < cutoff:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if banned is not None and (min(u, w), max(u, w)) == banned:
                    continue
                if w not in dist:
                    dist[w] = d
                    if w == goal:
                        return d
                    nxt.append(w)
        frontier = nxt
    return None


def _randbelow(rng, total: int) -> int:
    """Uniform integer in [0, total) for arbitrarily large totals."""
    if total <= 0:
        raise ValueError("total must be positive")
    bits = total.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << bits) - 1)
        if value < total:
            return value


def _sample_shortest_path(adj, u, v, banned, rng):
    """Uniform shortest u-v path in the graph minus the banned edge."""
    dist = {u: 0}
    count = {u: 1}
    frontier = [u]
    while frontier and v not in dist:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if (min(a, b), max(a, b)) == banned:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    count[b] = 0
                    nxt.append(b)
                if dist[b] == dist[a] + 1:
                    count[b] += count[a]
        frontier = nxt
    path = [v]
    node = v
    while node != u:
        preds = [
            a
            for a in adj[node]
            if (min(a, node), max(a, node)) != banned
            and dist.get(a, -2) == dist[node] - 1
        ]
        weights = [count[a] for a in preds]
        total = sum(weights)
        r = _randbelow(rng, total)
        acc = 0
        for a, w in zip(preds, weights):
            acc += w
            if r < acc:
                node = a
                break
        path.append(node)
    path.reverse()
    return path


def aer_sample(n: int, m: float, r: int, seed: int) -> Graph:
    """Erdos-Renyi(n, m/n) pruned of short cycles until girth >= r.

    While some cycle shorter than r exists: pick a uniformly random edge among
    those lying on such a cycle, pick a uniformly random shortest cycle
    through it, and delete a uniformly random edge of that cycle.  Which
    short cycle to prune is underdetermined; this sampler is the documented
    choice (also flagged in run manifests).  Edge probability is min(1, m/n),
    clamped because useful settings like m = 10 ln(n) exceed n at small n.
    """
    if n < 1 or not m >= 0 or r < 3:  # NaN fails too
        raise ValueError("need n >= 1, m >= 0, r >= 3")
    rng = np.random.default_rng(seed)
    p = min(1.0, m / n)
    adj = {v: set() for v in range(n)}
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))

    def on_short_cycle(e):
        return _bfs_dist(adj, e[0], e[1], r - 2, banned=e) is not None

    while edges and r > 3:
        edge = None
        for _ in range(32):
            cand = edges[int(rng.integers(len(edges)))]
            if on_short_cycle(cand):
                edge = cand
                break
        if edge is None:
            short = [e for e in edges if on_short_cycle(e)]
            if not short:
                break
            edge = short[int(rng.integers(len(short)))]
        path = _sample_shortest_path(adj, edge[0], edge[1], edge, rng)
        cycle = [
            (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
        ] + [edge]
        doomed = cycle[int(rng.integers(len(cycle)))]
        adj[doomed[0]].discard(doomed[1])
        adj[doomed[1]].discard(doomed[0])
        edges.remove(doomed)
    return Graph(n, frozenset(edges))


def connectivity_label(graph: Graph) -> bool:
    """True iff the graph has exactly one connected component."""
    if graph.n == 0:
        return True
    adj = graph.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == graph.n


def girth(graph: Graph) -> float:
    """Length of the shortest cycle (math.inf if acyclic)."""
    adj = graph.adjacency()
    best = math.inf
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and dist[w] >= dist[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


def patched_pair(g1: Graph, g2: Graph, seed: int) -> Graph:
    """Disjoint union of two graphs under a uniformly random relabeling."""
    n = g1.n + g2.n
    perm = np.random.default_rng(seed).permutation(n)
    edges = [(perm[u], perm[v]) for u, v in g1.edges]
    edges += [(perm[g1.n + u], perm[g1.n + v]) for u, v in g2.edges]
    return Graph(n, frozenset((int(a), int(b)) for a, b in edges))


def write_graph(path, graph: Graph):
    """Edge-list text format: 'n <count>' header, then one 'u v' line per edge."""
    with open(path, "w") as fh:
        fh.write(f"n {graph.n}\n")
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")


def read_graph(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError("bad graph header")
        n = int(header[1])
        edges = []
        for line in fh:
            if line.strip():
                u, v = line.split()
                edges.append((int(u), int(v)))
    return Graph(n, frozenset(edges))
