import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nsgap import ascent, markov, rayleigh
from nsgap.errors import (
    BadExponentRange,
    ConstantConfiguration,
    DegenerateGap,
    InstanceTooLarge,
    LengthMismatch,
    MismatchedStationary,
    PoweredDistanceRange,
    UnsupportedSpace,
    ValidationError,
)
from nsgap.spaces import Configuration, EllipsoidNorm, MetricSpace, pair_norms


def flip_chain():
    return markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))


def four_cycle():
    A = np.array([[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]])
    return markov.build_reversible_chain(A)


def two_point_metric():
    return MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]]))


def path_metric_four_cycle():
    return MetricSpace.finite(
        np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
    )


def identity_chain(n):
    return markov.build_reversible_chain(np.eye(n), np.full(n, 1.0 / n))


# --- quotient ----------------------------------------------------------------

def test_quotient_flip_two_point():
    x = Configuration(two_point_metric(), [0, 1])
    assert rayleigh.rayleigh_quotient(x, flip_chain(), 1.0) == pytest.approx(2.0)


def test_quotient_identity_chain_is_zero():
    x = Configuration(MetricSpace.lp(2.0, 1), [[0.0], [1.0], [2.0]])
    assert rayleigh.rayleigh_quotient(x, identity_chain(3), 2.0) == 0.0


def test_quotient_roots_of_unity():
    angles = 2.0 * np.pi * np.arange(4) / 4.0
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    x = Configuration(MetricSpace.lp(2.0, 2), pts)
    assert rayleigh.rayleigh_quotient(x, four_cycle(), 2.0) == pytest.approx(1.0, abs=1e-12)


def test_quotient_rejects_constant():
    x = Configuration(two_point_metric(), [1, 1])
    with pytest.raises(ConstantConfiguration):
        rayleigh.rayleigh_quotient(x, flip_chain(), 1.0)


# --- exact and brute force -----------------------------------------------------

def test_gamma_hilbert_exact_values():
    assert rayleigh.gamma_hilbert_exact(four_cycle()).value == pytest.approx(1.0)
    k3 = markov.build_reversible_chain((np.ones((3, 3)) - np.eye(3)) / 2.0)
    assert rayleigh.gamma_hilbert_exact(k3).value == pytest.approx(2.0 / 3.0)
    assert rayleigh.gamma_hilbert_exact(identity_chain(3)).value == float("inf")


def test_gamma_hilbert_witness_reproduces_value():
    rng = np.random.default_rng(0)
    chain = markov.random_reversible_chain(5, rng)
    est = rayleigh.gamma_hilbert_exact(chain)
    r = rayleigh.rayleigh_quotient(est.witness, chain, 2.0)
    assert 1.0 / r == pytest.approx(est.value, rel=1e-9)


def test_gamma_bruteforce_flip():
    for p in (1.0, 2.0, 3.0):
        est = rayleigh.gamma_bruteforce(flip_chain(), two_point_metric(), p)
        assert est.value == 0.5
        assert np.any(est.witness.points != est.witness.points[0])


def test_estimate_gap_methods():
    exact = rayleigh.estimate_gap(four_cycle(), MetricSpace.lp(2.0, 2), 2.0, "exact")
    assert exact.to_json()["provenance"] == "exact" and exact.value == pytest.approx(1.0)
    brute = rayleigh.estimate_gap(flip_chain(), two_point_metric(), 1.0)
    assert brute.kind == "brute_force" and brute.to_json()["provenance"] == "brute_force"
    with pytest.raises(UnsupportedSpace):
        rayleigh.estimate_gap(four_cycle(), MetricSpace.lp(2.0, 2, theta=0.5), 2.0, "exact")
    with pytest.raises(ValidationError):
        rayleigh.estimate_gap(four_cycle(), MetricSpace.lp(2.0, 2), 2.0, "closed_form")
    assert rayleigh.weakest_provenance("exact_hilbert", "brute_force") == "brute_force"


def test_gamma_bruteforce_identity_infinite():
    est = rayleigh.gamma_bruteforce(identity_chain(2), two_point_metric(), 1.0)
    assert est.value == float("inf")


def test_gamma_bruteforce_matches_manual_enumeration():
    """Independent oracle: plain python loops over all 4^4 configurations."""
    chain = four_cycle()
    space = path_metric_four_cycle()
    est = rayleigh.gamma_bruteforce(chain, space, 1.0)
    best = 0.0
    for cfg in itertools.product(range(4), repeat=4):
        num = sum(chain.pi[i] * chain.A[i, j] * space.dist[cfg[i], cfg[j]]
                  for i in range(4) for j in range(4))
        den = sum(chain.pi[i] * chain.pi[j] * space.dist[cfg[i], cfg[j]]
                  for i in range(4) for j in range(4))
        if den > 0:
            best = max(best, den / num)
    assert est.value == pytest.approx(best, rel=1e-12)


def test_gamma_bruteforce_caps():
    big = MetricSpace.finite(1.0 - np.eye(9) + np.eye(9) * 0.0)
    with pytest.raises(InstanceTooLarge):
        rayleigh.gamma_bruteforce(flip_chain(), big, 1.0)


def _reference_sums(chain, space, p, pairs):
    """Numerators and denominators over a full table of configurations (K x K
    pairs for the absolute gap) by an n^2 gather loop in (i, j) order, the
    powered distances and the configurations."""
    m, n = space.n_points, chain.n
    powered = (space.dist**space.theta) ** p
    configs = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    K = configs.shape[0]
    w = chain.pi[:, None] * chain.A
    u = np.outer(chain.pi, chain.pi)
    shape = (K, K) if pairs else (K,)
    num, den = np.zeros(shape), np.zeros(shape)
    for i in range(n):
        for j in range(n):
            if pairs:
                vals = powered[configs[:, i][:, None], configs[None, :, j]]
            else:
                vals = powered[configs[:, i], configs[:, j]]
            num += w[i, j] * vals
            den += u[i, j] * vals
    return num, den, powered, configs


def _reference_enumeration(chain, space, p, pairs):
    """The two enumerations before they shared one kernel: the reference
    sums, the zero-quotient test (a quotient num/den below ZERO_QUOTIENT, as
    the heuristic reports it) and a first-index arg-max.  Returns the value
    (-inf when every configuration is constant) and the witness digits."""
    num, den, powered, configs = _reference_sums(chain, space, p, pairs)
    shape = num.shape
    live = den > 0
    zero_num = live & (num < rayleigh.ZERO_QUOTIENT * den)
    if np.any(zero_num):
        value, k = float("inf"), int(np.argmax(zero_num))
    else:
        ratios = np.where(live, den / np.where(live, num, 1.0), -np.inf)
        k = int(np.argmax(ratios))
        value = float(ratios.ravel()[k])
    return value, np.concatenate([configs[c] for c in np.unravel_index(k, shape)])


def _enumeration_instances():
    rng = np.random.default_rng(12)
    for trial in range(60):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if trial % 12 == 0:
            chain = identity_chain(n)  # infinite gaps
        elif trial % 12 == 6:  # tiny positive numerators, below the zero test
            A = np.full((n, n), 1e-17) + (1.0 - n * 1e-17) * np.eye(n)
            chain = markov.build_reversible_chain(A, np.full(n, 1.0 / n))
        elif trial % 6 == 1:
            chain = markov.build_reversible_chain(np.full((n, n), 1.0 / n))
        else:
            chain = markov.random_reversible_chain(n, rng)
        if trial % 2:  # integer path metric: many tied quotients
            dist = np.abs(np.subtract.outer(np.arange(m), np.arange(m))).astype(float)
        else:
            dist = rng.uniform(1.0, 2.0, size=(m, m))
            dist = (dist + dist.T) / 2.0
            np.fill_diagonal(dist, 0.0)
        yield chain, MetricSpace.finite(dist), (1.0, 2.0, 3.5)[trial % 3]


@pytest.mark.parametrize("chunk", [4, 64, 2**14])
def test_enumeration_matches_reference_bit_for_bit(monkeypatch, chunk):
    """Both public enumerations reproduce the reference value and witness
    exactly; small chunks make the scan cross block boundaries."""
    monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
    kinds = set()
    for chain, space, p in _enumeration_instances():
        n = chain.n
        value, digits = _reference_enumeration(chain, space, p, pairs=False)
        est = rayleigh.gamma_bruteforce(chain, space, p)
        assert est.value == value
        np.testing.assert_array_equal(est.witness.points, digits)
        if space.n_points ** (2 * n) > 5_000:
            continue
        value, digits = _reference_enumeration(chain, space, p, pairs=True)
        est = rayleigh.gamma_plus_bruteforce(chain, space, p)
        assert est.value == value
        np.testing.assert_array_equal(est.witness[0].points, digits[:n])
        np.testing.assert_array_equal(est.witness[1].points, digits[n:])
        kinds.add(math.isinf(value))
    assert kinds == {True, False}


@pytest.mark.parametrize("pairs, m, n, chunk", [
    (False, 5, 5, 125), (False, 5, 5, 625), (False, 8, 5, 512), (False, 3, 6, 2**14),
    (True, 3, 4, 4), (True, 3, 4, 2**14), (True, 4, 3, 2**14), (True, 2, 5, 2**14)])
def test_block_streams_equal_the_reference_sums(monkeypatch, pairs, m, n, chunk):
    """Every numerator and denominator the scans yield equals the reference's
    sum bit for bit: an add taken out of (i, j) order changes some of them
    even where the winning quotient keeps its value.  The gap scan yields
    every block in row-major order.  The pair scan yields one block per
    kept x, in ascending order and under its x, and so the whole row-major
    stream when every x is kept."""
    monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
    chain, space = _benchmark_shape(m, n, 80 + m + n)
    num, den, powered, _ = _reference_sums(chain, space, 1.5, pairs)
    w, u = chain.pi[:, None] * chain.A, np.outer(chain.pi, chain.pi)
    tables = np.stack([w, u])[:, :, :, None, None] * powered
    if not pairs:
        blocks = [(a.copy(), b.copy()) for a, b in rayleigh._config_blocks(tables, m, n)]
        np.testing.assert_array_equal(np.concatenate([a for a, _ in blocks]), num.ravel())
        np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), den.ravel())
        return
    rng = np.random.default_rng(m + n + chunk)
    last = np.arange(m**n) == m**n - 1
    for keep in (np.ones(m**n, dtype=bool), rng.random(m**n) < 0.2, last, ~last):
        xs = np.flatnonzero(keep)
        blocks = [(x, a.copy(), b.copy()) for x, a, b in rayleigh._pair_blocks(tables, m, n, xs)]
        size = m**n
        assert [x for x, _, _ in blocks] == list(xs)
        for x, a, b in blocks:
            np.testing.assert_array_equal(a, num.ravel()[x * size:(x + 1) * size])
            np.testing.assert_array_equal(b, den.ravel()[x * size:(x + 1) * size])
        if keep.all():
            np.testing.assert_array_equal(np.concatenate([a for _, a, _ in blocks]), num.ravel())
            np.testing.assert_array_equal(np.concatenate([b for _, _, b in blocks]), den.ravel())


def _benchmark_shape(m, n, seed):
    rng = np.random.default_rng(seed)
    chain = (markov.random_reversible_chain(n, rng) if n > 1
             else markov.build_reversible_chain(np.ones((1, 1))))
    return chain, _random_metric(m, rng) if m > 1 else MetricSpace.finite(np.zeros((1, 1)))


@pytest.mark.parametrize("m, n", [(8, 6), (7, 6), (5, 4), (8, 1), (1, 6)])
def test_gap_at_benchmark_shapes_matches_reference(m, n):
    """m8n6, m7n6 and m5n4 are the gap-brute classes of the finite benchmark
    mix; m8n6 and m7n6 have two head digits at the default block size.  With
    one state or one point every configuration is constant."""
    chain, space = _benchmark_shape(m, n, 40 + m + n)
    value, digits = _reference_enumeration(chain, space, 2.0, pairs=False)
    if n == 1 or m == 1:
        assert value == -np.inf
        with pytest.raises(ConstantConfiguration):
            rayleigh.gamma_bruteforce(chain, space, 2.0)
        return
    est = rayleigh.gamma_bruteforce(chain, space, 2.0)
    assert math.isfinite(value) and est.value == value
    np.testing.assert_array_equal(est.witness.points, digits)


def _isolated_state_chain(n):
    """State 0 never moves and the others mix uniformly: (c, d, ..., d) with
    c != d has a zero numerator, and the first such configuration,
    (0, 1, ..., 1), lies past the first block once there are two head digits."""
    A = np.zeros((n, n))
    A[0, 0] = 1.0
    A[1:, 1:] = 1.0 / (n - 1)
    return markov.build_reversible_chain(A, np.full(n, 1.0 / n))


@pytest.mark.parametrize("m, n, chunk", [(5, 5, 125), (5, 5, 625), (7, 5, 343),
                                         (7, 5, 2401), (8, 5, 64), (8, 5, 512)])
def test_gap_scan_with_head_digits_matches_reference(monkeypatch, m, n, chunk):
    """Blocks of L = log_m(chunk) digits under one or more head digits, with
    the t materialized trailing digits equal to L or fewer, so every operand
    is picked per block by its head digits.  Random, identity, near-identity
    and isolated-state chains run the block test's fast path, its low-index
    path (the constant configurations) and its zero test."""
    L = round(math.log(chunk, m))
    assert n - L >= 1 and rayleigh._run_digits(m, n) <= L
    monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng(100 * m + chunk)
    space = _random_metric(m, rng)
    near = np.full((n, n), 1e-17) + (1.0 - n * 1e-17) * np.eye(n)
    chains = [markov.random_reversible_chain(n, rng), identity_chain(n),
              markov.build_reversible_chain(near, np.full(n, 1.0 / n)),
              _isolated_state_chain(n)]
    values = []
    for chain, p in zip(chains, (2.0, 1.0, 3.5, 2.0)):
        value, digits = _reference_enumeration(chain, space, p, pairs=False)
        est = rayleigh.gamma_bruteforce(chain, space, p)
        assert est.value == value
        np.testing.assert_array_equal(est.witness.points, digits)
        values.append(value)
    assert math.isfinite(values[0]) and all(map(math.isinf, values[1:]))
    np.testing.assert_array_equal(digits, [0] + [1] * (n - 1))


def test_gap_at_m8_n6_traced_peak_under_half_mb():
    """One (2, m^L) block and the term table; the gather scan before it held
    n index rows per block and peaked at 0.64 MB."""
    chain, space = _benchmark_shape(8, 6, 54)
    tracemalloc.start()
    try:
        rayleigh.gamma_bruteforce(chain, space, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_gap_traced_peak_under_1mb_at_every_accepted_shape():
    """Every shape the gap scan accepts (m <= 8, n <= 6, m^n <= ENUM_CAP) holds
    one block, its materialized term operands and the term table in 1 MB."""
    peaks = {}
    for m, n in itertools.product(range(2, 9), range(2, 7)):
        if m**n > rayleigh.ENUM_CAP:
            continue
        chain, space = _benchmark_shape(m, n, 60 + m + n)
        tracemalloc.start()
        try:
            rayleigh.gamma_bruteforce(chain, space, 2.0)
            peaks[m, n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    worst = max(peaks, key=peaks.get)
    assert len(peaks) == 35 and peaks[worst] <= 2**20, (worst, peaks[worst])


def test_degenerate_enumeration_raises():
    """With every configuration constant there is no quotient to maximise;
    the enumerations used to report -inf, which printed as "inf"."""
    one_point = MetricSpace.finite(np.zeros((1, 1)))
    with pytest.raises(ConstantConfiguration):
        rayleigh.gamma_bruteforce(four_cycle(), one_point, 1.0)
    with pytest.raises(ConstantConfiguration):
        rayleigh.gamma_plus_bruteforce(four_cycle(), one_point, 2.0)
    single_state = markov.build_reversible_chain(np.ones((1, 1)))
    with pytest.raises(ConstantConfiguration):
        rayleigh.gamma_bruteforce(single_state, two_point_metric(), 1.0)
    assert rayleigh.gamma_plus_bruteforce(single_state, two_point_metric(), 1.0).value == 1.0


def _clustered_metric(eps):
    """Points 0 and 1 eps apart, both at distance 1 from point 2."""
    return MetricSpace.finite(np.array([[0.0, eps, 1.0], [eps, 0.0, 1.0], [1.0, 1.0, 0.0]]))


def test_clustered_points_keep_the_two_point_gaps():
    """At p = 2 the distances of points 0 and 1, 2^-24 apart, square to
    2^-48, which scales both sums exactly: a configuration on those two
    points has the quotient of the two-point metric, bit for bit, far above
    ZERO_QUOTIENT.  A zero rule relative to the largest distance counted it
    as zero and reported inf."""
    chain = markov.random_reversible_chain(3, np.random.default_rng(3))
    clustered = _clustered_metric(2.0**-24)
    for f, value in ((rayleigh.gamma_bruteforce, 0.9685916092784254),
                     (rayleigh.gamma_plus_bruteforce, 1.3068135771382294)):
        assert f(chain, two_point_metric(), 2.0).value == value
        est = f(chain, clustered, 2.0)
        assert est.value == value
        witness = est.witness if isinstance(est.witness, tuple) else (est.witness,)
        assert all(set(c.points.tolist()) == {0, 1} for c in witness)


def test_a_diagonal_within_the_tolerance_reads_as_zero():
    """The validator accepts diagonal entries up to 1e-12 and stores them as
    0, so constant configurations stay 0/0: with the diagonal kept the flip
    chain's gap read 1.0 (a constant configuration's quotient), and under a
    zero rule relative to the largest distance inf, instead of 0.5."""
    space = MetricSpace.finite(np.array([[1e-13, 1.0], [1.0, 1e-13]]))
    assert space.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    for f in (rayleigh.gamma_bruteforce, rayleigh.gamma_plus_bruteforce):
        assert f(flip_chain(), space, 2.0).value == f(flip_chain(), two_point_metric(), 2.0).value
    assert rayleigh.gamma_bruteforce(flip_chain(), space, 2.0).value == 0.5


def _scaled_path(scale):
    dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
    dist[0, 1] = dist[1, 0] = 1.3
    return MetricSpace.finite(dist * scale)


@pytest.mark.parametrize("scale", [1e40, 1e-40, 1e-50])
def test_powered_distances_out_of_range_are_refused(scale):
    """At p = 8 distances near 1e40 overflow, distances near 1e-40 fall below
    the normal doubles and distances near 1e-50 underflow to zero: both
    scans refuse them, without a warning."""
    chain = markov.random_reversible_chain(3, np.random.default_rng(3))
    for f in (rayleigh.gamma_bruteforce, rayleigh.gamma_plus_bruteforce):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoweredDistanceRange, match="theta p = 8 are out of range"):
                f(chain, _scaled_path(scale), 8.0)


@pytest.mark.parametrize("scale, plus", [(1e38, 2.9355477908472376), (1e-38, 2.9355477908472385)])
def test_powered_distances_at_the_range_edges_keep_their_values(scale, plus):
    """The same instance at 1e38 and 1e-38 is scanned as before the check."""
    chain = markov.random_reversible_chain(3, np.random.default_rng(3))
    est = rayleigh.gamma_bruteforce(chain, _scaled_path(scale), 8.0)
    assert est.value == 1.224279231807134
    assert est.witness.points.tolist() == [2, 1, 3]
    est = rayleigh.gamma_plus_bruteforce(chain, _scaled_path(scale), 8.0)
    assert est.value == plus
    assert [c.points.tolist() for c in est.witness] == [[0, 2, 2], [3, 1, 1]]


def _chunked_pair_reference(chain, space, p, chunk=2**14):
    """The absolute-gap scan without its bound: blocks of at most `chunk`
    pairs in row-major (x, y) order, each summing the n^2 gathered terms
    w_ij P[x_i, y_j] in row-major (i, j) order, with the zero-quotient test
    of `_reference_enumeration`."""
    m, n = space.n_points, chain.n
    powered = (space.dist**space.theta) ** p
    w, u = chain.pi[:, None] * chain.A, np.outer(chain.pi, chain.pi)
    L = max(L for L in range(2 * n + 1) if m**L <= chunk)
    size = m**L
    cfg = np.empty((2 * n, size), dtype=np.intp)
    cfg[2 * n - L:] = np.indices((m,) * L).reshape(L, size)
    best, best_k = -np.inf, -1
    for h, head in enumerate(np.ndindex((m,) * (2 * n - L))):
        cfg[:2 * n - L] = np.reshape(head, (-1, 1))
        num, den = np.zeros(size), np.zeros(size)
        for i in range(n):
            for j in range(n):
                vals = powered.ravel()[cfg[i] * m + cfg[n + j]]
                num += vals * w[i, j]
                den += vals * u[i, j]
        live = den > 0
        zero = live & (num < rayleigh.ZERO_QUOTIENT * den)
        if zero.any():
            best, best_k = float("inf"), h * size + int(np.argmax(zero))
            break
        ratio = np.where(live, den / np.where(live, num, 1.0), -np.inf)
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best, best_k = float(ratio[k]), h * size + k
    if best_k < 0:
        raise ConstantConfiguration("every configuration is constant")
    return best, np.array(np.unravel_index(best_k, (m,) * (2 * n)))


def _random_metric(m, rng):
    dist = rng.uniform(1.0, 2.0, size=(m, m))
    return MetricSpace.finite((dist + dist.T) / 2.0 - np.diag(np.diag(dist)))


def _path_metric(m):
    return MetricSpace.finite(np.abs(np.subtract.outer(np.arange(m), np.arange(m))) * 1.0)


def _uneven_near_identity():
    """Symmetric and near the identity, with a_02 = a_12 = 1e-15 and
    a_01 = 1e-20: a pair x = y with x_2 alone has a quotient near 3e-15,
    and one with x_0 or x_1 alone near 1.5e-15."""
    A = np.array([[0.0, 1e-20, 1e-15], [1e-20, 0.0, 1e-15], [1e-15, 1e-15, 0.0]])
    A += np.diag(1.0 - A.sum(axis=1))
    return markov.build_reversible_chain(A, np.full(3, 1.0 / 3.0))


def _pair_instances():
    """Pair scans beyond the 5,000 pairs of the full-table comparison.  Path
    metrics are symmetric under reflection, so their maxima tie exactly
    between pairs whose first digits differ, that is, across blocks."""
    rng = np.random.default_rng(31)
    near = np.full((3, 3), 1e-17) + (1.0 - 3e-17) * np.eye(3)
    return {
        "m8_n3": (markov.random_reversible_chain(3, rng), _random_metric(8, rng), 1.0),
        "m8_n3_path": (markov.random_reversible_chain(3, rng), _path_metric(8), 2.0),
        "m3_n6_path": (markov.random_reversible_chain(6, rng), _path_metric(3), 2.0),
        "m3_n6": (markov.random_reversible_chain(6, rng), _random_metric(3, rng), 3.5),
        "m1_n4": (four_cycle(), MetricSpace.finite(np.zeros((1, 1))), 1.0),
        "m5_n1": (markov.build_reversible_chain(np.ones((1, 1))), _random_metric(5, rng), 3.5),
        "identity_m4_n4": (identity_chain(4), _path_metric(4), 1.0),
        "near_identity_m5_n3": (markov.build_reversible_chain(near, np.full(3, 1.0 / 3.0)),
                                _random_metric(5, rng), 2.0),
        "cap_m5_n5": (markov.random_reversible_chain(5, rng), _random_metric(5, rng), 2.0),
        # the other gap-plus classes of the finite benchmark mix
        "bench_m4_n4": (markov.random_reversible_chain(4, rng), _random_metric(4, rng), 2.0),
        "bench_m4_n5": (markov.random_reversible_chain(5, rng), _random_metric(4, rng), 2.0),
        "bench_m3_n6": (markov.random_reversible_chain(6, rng), _random_metric(3, rng), 2.0),
        # zero quotients of two sizes: the first, at x = y = (0, 0, 1), has half
        # the ratio den/num of later ones, so only the bound's cap keeps its x
        "near_identity_uneven_m2_n3": (_uneven_near_identity(), _path_metric(2), 2.0),
    }


_PAIR_INSTANCES = _pair_instances()


@functools.lru_cache(maxsize=None)
def _pair_reference(name):
    chain, space, p = _PAIR_INSTANCES[name]
    try:
        return _chunked_pair_reference(chain, space, p)
    except ConstantConfiguration:
        return None


@pytest.mark.parametrize("chunk", [4, 64, 2**14])
@pytest.mark.parametrize("name", sorted(_PAIR_INSTANCES))
def test_pair_scan_matches_chunked_reference_bit_for_bit(monkeypatch, name, chunk):
    """The bounded absolute-gap scan, one block per kept x, reproduces the
    value and both witness halves of the chunked scan exactly, whatever the
    chunking of the bound."""
    chain, space, p = _PAIR_INSTANCES[name]
    expected = _pair_reference(name)
    monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
    if expected is None:
        assert space.n_points == 1
        with pytest.raises(ConstantConfiguration):
            rayleigh.gamma_plus_bruteforce(chain, space, p)
        return
    value, digits = expected
    assert math.isinf(value) == name.startswith(("identity", "near_identity"))
    est = rayleigh.gamma_plus_bruteforce(chain, space, p)
    assert est.value == value
    np.testing.assert_array_equal(est.witness[0].points, digits[:chain.n])
    np.testing.assert_array_equal(est.witness[1].points, digits[chain.n:])


def _bound_recorder(monkeypatch):
    """Wrap the pair bound; the list gets (kept x, m^n) per scan."""
    record, bound = [], rayleigh._pair_bound

    def recorded(tables, m, n):
        xs = bound(tables, m, n)
        record.append((len(xs), m**n))
        return xs

    monkeypatch.setattr(rayleigh, "_pair_bound", recorded)
    return record


def _battery_instance(k, rng):
    """l_inf clouds, path metrics (exact ties between mirror-image pairs, so
    across blocks), equilateral and random metrics; random, lazy,
    near-identity, uniform and identity chains; q in {1, 2, 3.5}."""
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 5))
    while m ** (2 * n) > 4**8:
        n -= 1
    kind = k % 4
    if kind == 0:
        pts = rng.uniform(size=(m, 2))
        dist = np.max(np.abs(pts[:, None] - pts[None]), axis=2)
    elif kind == 1:
        dist = np.abs(np.subtract.outer(np.arange(m), np.arange(m))).astype(float)
    elif kind == 2:
        dist = 1.0 - np.eye(m)
    else:
        dist = _random_metric(m, rng).dist
    chain_kind = k % 5
    if chain_kind == 3:
        chain = markov.build_reversible_chain(np.full((n, n), 1.0 / n))
    elif chain_kind == 4 and k % 3 == 0:
        chain = identity_chain(n)
    elif chain_kind == 2:
        near = np.full((n, n), 1e-17) + (1.0 - n * 1e-17) * np.eye(n)
        chain = markov.build_reversible_chain(near, np.full(n, 1.0 / n))
    else:
        chain = markov.random_reversible_chain(n, rng)
        if chain_kind == 1:
            chain = markov.lazy_power(chain, 1)
    chunk = (m ** (n + 1), 4, 64)[(k // 3) % 3]
    return chain, MetricSpace.finite(dist), (1.0, 2.0, 3.5)[k % 3], chunk


def test_pair_scan_matches_chunked_reference_on_a_random_battery(monkeypatch):
    """300 random instances: the value and both witness halves equal the
    chunked scan's, which visits every pair.  Chunk limits of m^(n+1), 4 and
    64 split the bound's x into chunks; the uniform, near-identity and
    identity chains keep every x, about a third of all scans skip some, and
    almost all keep two or more, so their result crosses blocks."""
    record = _bound_recorder(monkeypatch)
    rng = np.random.default_rng(2025)
    kinds = set()
    for k in range(300):
        chain, space, q, chunk = _battery_instance(k, rng)
        monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
        value, digits = _chunked_pair_reference(chain, space, q)
        est = rayleigh.gamma_plus_bruteforce(chain, space, q)
        assert est.value == value, k
        np.testing.assert_array_equal(est.witness[0].points, digits[:chain.n])
        np.testing.assert_array_equal(est.witness[1].points, digits[chain.n:])
        kinds.add(math.isinf(value))
    assert kinds == {True, False}
    assert sum(kept < xs for kept, xs in record) >= 90
    assert sum(kept >= 2 for kept, _ in record) >= 250


def _near_tie_instance():
    """A path metric with d(0, 1) raised by 1e-13 relative: its mirror
    symmetry tied pairs exactly across x, and now the best pair beats the
    best at another x by less than the bound's slack."""
    dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
    dist[0, 1] = dist[1, 0] = 1.0 + 1e-13
    chain = markov.random_reversible_chain(3, np.random.default_rng(7))
    return chain, MetricSpace.finite(dist), 2.0


@pytest.mark.parametrize("chunk", [4, 64])
def test_pair_scan_keeps_a_near_tie_in_another_block(monkeypatch, chunk):
    """The best x wins by less than 1e-12 relative over another, and the
    scan skips some x, yet returns the full scan's value and witness."""
    monkeypatch.setattr(rayleigh, "_ENUM_CHUNK", chunk)
    chain, space, q = _near_tie_instance()
    num, den, _, _ = _reference_sums(chain, space, q, pairs=True)
    live = den > 0
    ratio = np.where(live, den / np.where(live, num, 1.0), -np.inf)
    best_per_x = ratio.reshape(64, -1).max(axis=1)
    first, second = np.sort(best_per_x)[::-1][:2]
    assert 0 < first - second < 1e-12 * first
    record = _bound_recorder(monkeypatch)
    value, digits = _chunked_pair_reference(chain, space, q)
    est = rayleigh.gamma_plus_bruteforce(chain, space, q)
    assert est.value == value
    np.testing.assert_array_equal(est.witness[0].points, digits[:3])
    np.testing.assert_array_equal(est.witness[1].points, digits[3:])
    kept, xs = record[0]
    assert 2 <= kept < xs


def test_pair_scan_keeps_every_x_on_a_uniform_chain(monkeypatch):
    """On the uniform chain A = 11^T/n every nonconstant pair ties at ratio
    1, so the bound keeps all m^n x and the scan makes one block per x; value
    and witness are still the chunked scan's."""
    chain = markov.build_reversible_chain(np.full((5, 5), 0.2))
    space = _random_metric(4, np.random.default_rng(41))
    record = _bound_recorder(monkeypatch)
    value, digits = _chunked_pair_reference(chain, space, 2.0)
    est = rayleigh.gamma_plus_bruteforce(chain, space, 2.0)
    assert record == [(4**5, 4**5)]
    assert est.value == value and abs(value - 1.0) < 1e-12
    np.testing.assert_array_equal(est.witness[0].points, digits[:5])
    np.testing.assert_array_equal(est.witness[1].points, digits[5:])


def test_gamma_plus_at_the_cap_keeps_memory_bounded():
    """m = n = 5 is 5^10 pairs; the full pair table peaked near 400 MB."""
    rng = np.random.default_rng(13)
    chain = markov.random_reversible_chain(5, rng)
    dist = rng.uniform(1.0, 2.0, size=(5, 5))
    space = MetricSpace.finite((dist + dist.T) / 2.0 - np.diag(np.diag(dist)))
    tracemalloc.start()
    try:
        est = rayleigh.gamma_plus_bruteforce(chain, space, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(est.value) and est.value > 0
    assert peak < 16 * 2**20


def test_gamma_plus_at_the_cap_traced_peak_under_4mb():
    """The scan holds one block of all m^n y for one x; the chunked scan
    peaked at 2.8 MB on this instance, and one level of partial sums per
    digit of x at 1.5 MB."""
    rng = np.random.default_rng(13)
    chain = markov.random_reversible_chain(5, rng)
    dist = rng.uniform(1.0, 2.0, size=(5, 5))
    space = MetricSpace.finite((dist + dist.T) / 2.0 - np.diag(np.diag(dist)))
    tracemalloc.start()
    try:
        rayleigh.gamma_plus_bruteforce(chain, space, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- heuristic ----------------------------------------------------------------

def _reference_heuristic(chain, space, p, restarts, iters, seed):
    """The restarts run one after another: value, witness points, evaluations
    over all restarts, why the witness's restart stopped, and its index."""
    n, d = chain.n, space.dim
    data = markov.spectral_data(chain)
    e = space.theta * p
    w = chain.pi[:, None] * chain.A
    u = np.outer(chain.pi, chain.pi)
    wsym = w + w.T
    usym = 2.0 * u
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def evaluate(pts):
        norms, grads = pair_norms(space, pts[:, None, :] - pts[None, :, :])
        powered = norms**e
        num = float(np.sum(w * powered))
        den = float(np.sum(u * powered))
        if den <= 1e-300:
            return None
        r = num / den
        safe = np.where(norms > 1e-12, norms, 1.0)
        factor = e * np.where(norms > 1e-12, safe ** (e - 1.0), 0.0)
        grad_num = np.einsum("ij,ijk->ik", wsym * factor, grads)
        grad_den = np.einsum("ij,ijk->ik", usym * factor, grads)
        return r, (grad_num - r * grad_den) / den, den

    best_r, best_pts, evaluations, stop, winner = float("inf"), None, 0, None, None
    eig_pts = np.zeros((n, d))
    eig_pts[:, 0] = data.eigenvectors[:, 1] / np.sqrt(chain.pi)
    starts = [eig_pts] + [rng.standard_normal((n, d)) for _ in range(restarts - 1)]
    for k, pts in enumerate(starts):
        pts = pts.astype(float).copy()
        stale, reason = 0, "iteration_cap"
        for it in range(iters):
            evaluations += 1
            out = evaluate(pts)
            if out is None:
                reason = "stalled"
                break
            r, grad, den = out
            if r < best_r - 1e-15:
                best_r, best_pts, winner = r, pts.copy(), k
                stale = 0
            else:
                stale += 1
                if stale > 50:
                    reason = "stalled"
                    break
            pts = pts - (0.1 / math.sqrt(it + 1.0)) * grad
            pts = pts / max(den, 1e-300) ** (1.0 / e)
        if winner == k:
            stop = reason
    value = float("inf") if best_r < rayleigh.ZERO_QUOTIENT else 1.0 / best_r
    return value, best_pts, evaluations, stop, winner


def _heuristic_spaces(d, theta, rng):
    q = rng.standard_normal((d, d))
    return [MetricSpace.lp(2.0, d, theta), MetricSpace.lp(float("inf"), d, theta),
            MetricSpace.lp(1.0, d, theta), MetricSpace.lp(1.5, d, theta),
            MetricSpace.lp(3.0, d, theta),
            MetricSpace.ellipsoid_space(EllipsoidNorm(q @ q.T + np.eye(d)), theta),
            MetricSpace.polytope(rng.standard_normal((d + 2, d)), theta)]


def _heuristic_instances():
    """Every norm kind at each theta and p, with n, d and (restarts, iters)
    cycling through their values; then the identity chain, shapes on both
    sides of the stack-size cut (n^2 max(d, F) = 2,048 stacks two restarts,
    4,096 one), an instance whose witness is recomputed from its start, and
    the normed benchmark's gap requests: l_inf, l_3 and random ellipsoids at
    n = 3 + (3k + j) % 6 and d = 2 + (k + j) % 3, p = 2, 4 restarts of 60."""
    rng = np.random.default_rng(12)
    runs = [(1, 5), (2, 40), (4, 60), (9, 120), (32, 80)]
    grid = itertools.product((0.5, 0.7, 1.0), (1.0, 1.5, 2.0, 3.0))
    for k, (theta, p) in enumerate(grid):
        n, d = (2, 3, 5, 8)[k % 4], (1, 2, 3)[k % 3]
        chain = markov.random_reversible_chain(n, rng)
        for j, space in enumerate(_heuristic_spaces(d, theta, rng)):
            yield chain, space, p, *runs[(k + j) % 5], k + j
    yield identity_chain(3), MetricSpace.lp(2.0, 3), 2.0, 4, 60, 0
    cross = MetricSpace.polytope(np.eye(3))  # 8 facets: 8^2 8 entries, stacks of 8
    for n, space, restarts, iters in [(8, cross, 9, 40),
                                      (16, MetricSpace.lp(float("inf"), 8), 5, 30),
                                      (22, MetricSpace.lp(1.0, 4), 3, 20),
                                      (23, MetricSpace.lp(1.0, 4), 3, 20),
                                      (32, MetricSpace.lp(3.0, 4), 3, 20)]:
        yield markov.random_reversible_chain(n, rng), space, 2.0, restarts, iters, n
    chain = markov.random_reversible_chain(3, np.random.default_rng(48))
    yield chain, MetricSpace.lp(2.0, 1, 0.7), 2.0, 32, 80, 48
    for k in range(10):
        for j, kind in enumerate(("linf", "l3", "ellipsoid")):
            n, d = 3 + (3 * k + j) % 6, 2 + (k + j) % 3
            chain = markov.random_reversible_chain(n, rng)
            if kind == "ellipsoid":
                b = rng.standard_normal((d, d))
                space = MetricSpace.ellipsoid_space(EllipsoidNorm(b @ b.T + 0.5 * np.eye(d)))
            else:
                space = MetricSpace.lp(float("inf") if kind == "linf" else 3.0, d)
            yield chain, space, 2.0, 4, 60, int(rng.integers(2**31))


def test_heuristic_matches_sequential_reference_bit_for_bit(monkeypatch):
    """Restarts stepped together in stacks give the value, witness,
    evaluation count and stop reason of running them one after another."""
    recomputed = []
    trajectory = ascent.trajectory

    def counted(evaluate, start, steps):
        recomputed.append(steps)
        return trajectory(evaluate, start, steps)

    monkeypatch.setattr(ascent, "trajectory", counted)
    winners = set()
    for chain, space, p, restarts, iters, seed in _heuristic_instances():
        value, points, evaluations, stop, winner = _reference_heuristic(
            chain, space, p, restarts, iters, seed)
        est = rayleigh.gamma_heuristic(chain, space, p, restarts=restarts, iters=iters,
                                       seed=seed)
        assert est.value == value
        np.testing.assert_array_equal(est.witness.points, points)
        assert (est.iterations, est.stop) == (evaluations, stop)
        assert est.to_json()["iterations"] == evaluations
        winners.add(winner > 0)
    assert winners == {True, False}  # some witnesses come from a later restart
    assert recomputed  # and one is recomputed from its start


@pytest.mark.parametrize("n, space, p, restarts, iters, seed, stacks", [
    (3, MetricSpace.lp(3.0, 2), 3.0, 300, 120, 1, [227, 73]),
    (4, MetricSpace.lp(float("inf"), 2), 3.0, 128, 300, 3, [128]),
])
def test_heuristic_matches_reference_on_wide_stacks(monkeypatch, n, space, p, restarts,
                                                    iters, seed, stacks):
    """Full stacks of 227 and 128 rows on chains with uneven weights, where
    later rows turn fresh after the first step and leave at several steps."""
    heights = []
    evaluator = ascent.evaluator

    def counted(*args):
        evaluate = evaluator(*args)

        def wrapped(pts):
            heights.append(len(pts))
            return evaluate(pts)
        return wrapped

    monkeypatch.setattr(ascent, "evaluator", counted)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(n, n)) ** 4
    w = w + w.T
    chain = markov.build_reversible_chain(w / w.sum(axis=1)[:, None], w.sum(axis=1) / w.sum())
    value, points, evaluations, stop, _ = _reference_heuristic(
        chain, space, p, restarts, iters, seed)
    est = rayleigh.gamma_heuristic(chain, space, p, restarts=restarts, iters=iters,
                                   seed=seed)
    assert est.value == value
    np.testing.assert_array_equal(est.witness.points, points)
    assert (est.iterations, est.stop) == (evaluations, stop)
    assert max(heights) == stacks[0] and all(h in heights for h in stacks)
    assert len(set(heights)) > 5  # rows left the stack at several steps


def test_heuristic_collapsed_restart_counts_as_stalled():
    """A restart that collapses to a constant configuration stops there: the
    collapsing evaluation counts, and the stop reason is stalled.  Here the
    stack's second row collapses at step 1, after a quotient that beats every
    quotient of the first row, which collapses at step 3."""
    quotients = {0: [1.0, 0.9, 0.8], 1: [0.5]}

    def evaluate(pts):
        rows = [int(row) for row in pts[:, 0, 0]]
        t = evaluate.steps
        evaluate.steps += 1
        r = np.array([quotients[row][t] if t < len(quotients[row]) else np.nan
                      for row in rows])
        collapsed = [pos for pos, row in enumerate(rows) if t >= len(quotients[row])]
        return r, np.zeros_like(pts), np.ones((len(rows), 1, 1)), collapsed

    evaluate.steps = 0
    starts = np.arange(2.0)[:, None, None] * np.ones((2, 3, 1))
    rule = ascent.InOrder()
    ascent.lockstep(evaluate, starts, 0, 10, rule)
    assert (rule.best, rule.evaluations, rule.stop) == (0.5, 6, "stalled")
    assert rule.holder[0] == 1 and rule.holder[2] == 0
    np.testing.assert_array_equal(rule.witness, starts[1])


def _scripted(quotients):
    """A stand-in for `evaluate` that returns scripted quotients.  Row k's
    points hold k in their first coordinate, and each step moves the second,
    so a witness shows its restart and step; past its script a row
    collapses.  `evaluate.seen` counts the evaluations of each restart."""
    def evaluate(pts):
        rows = [int(row) for row in pts[:, 0, 0]]
        t = evaluate.steps
        evaluate.steps += 1
        for row in rows:
            evaluate.seen[row] = evaluate.seen.get(row, 0) + 1
        scripts = [quotients[row] for row in rows]
        r = np.array([q[t] if t < len(q) else np.nan for q in scripts])
        collapsed = [pos for pos, q in enumerate(scripts) if t >= len(q)]
        grad = np.zeros_like(pts)
        grad[:, :, 1] = -1.0
        return r, grad, np.ones((len(rows), 1, 1)), collapsed

    evaluate.steps, evaluate.seen = 0, {}
    return evaluate


def _scripted_starts(size):
    starts = np.zeros((size, 2, 2))
    starts[:, :, 0] = np.arange(size)[:, None]
    return starts


def _fed_in_order(quotients, iters):
    """The same scripted quotients fed to `InOrder` one restart after another."""
    starts = _scripted_starts(len(quotients))
    rule = ascent.InOrder()
    for k, script in enumerate(quotients):
        rule.begin(k, starts[k])
        pts = starts[k][None]
        for t in range(iters):
            if t >= len(script) or rule.feed(script[t], t, pts[0]):
                rule.finish(t + 1, "stalled")
                break
            grad = np.zeros_like(pts)
            grad[:, :, 1] = -1.0
            pts = ascent.step(pts, grad, np.ones((1, 1, 1)), t)
        else:
            rule.finish(iters, "iteration_cap")
    return rule


DESCENT = [1.0 - 1e-3 * t for t in range(120)]  # a new best at every step

LOCKSTEP_SCRIPTS = {
    # row 1 beats row 0's best by less than 1e-15 at step 1, row 2 by more
    "beats the best by less than 1e-15": (
        [[1.0] + [2.0] * 119, [3.0, 1.0 - 5e-16] + [3.0] * 118,
         [3.0, 1.0 - 2e-15] + [3.0] * 118], 120, {}),
    # row 1 improves its own best at every step, always above row 0's; row 2
    # drops below the best only after it has stopped
    "improves its own best only": (
        [DESCENT, [3.0 - 1e-2 * t for t in range(120)],
         [3.0] * 60 + [0.5] * 60], 120, {}),
    # row 1: fresh at step 1, 50 stale steps, fresh again at step 52; row 0
    # stops at step 51, and row 1 takes over its place on the stack
    "fresh after exactly 50 stale steps": (
        [[1.0] + [2.0] * 119, [3.0, 0.9] + [5.0] * 50 + [0.8] + [5.0] * 67],
        120, {1: 104}),
    # rows 1 and 2 are fresh only at step 0, where the best is still
    # infinite, so both leave after step 51 while row 0 runs on; row 2 stays
    # below the best and is fed its step 0 as the witness
    "leaves at step 51": (
        [DESCENT, [3.0] * 120, [0.5] * 120], 120, {1: 52, 2: 52}),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_SCRIPTS))
def test_lockstep_matches_feeding_in_order(case):
    """Scripted quotients: lockstep leaves the rule where feeding the same
    quotients one restart after another does, and rows leave the stack
    after 51 steps without a fresh one."""
    quotients, iters, seen = LOCKSTEP_SCRIPTS[case]
    evaluate = _scripted(quotients)
    rule = ascent.InOrder()
    ascent.lockstep(evaluate, _scripted_starts(len(quotients)), 0, iters, rule)
    fed = _fed_in_order(quotients, iters)
    assert (rule.best, rule.evaluations, rule.stop) == (fed.best, fed.evaluations, fed.stop)
    assert (rule.holder[0], rule.holder[2]) == (fed.holder[0], fed.holder[2])
    if rule.witness is not None:
        np.testing.assert_array_equal(rule.witness, fed.witness)
    for row, count in seen.items():
        assert evaluate.seen[row] == count


def test_in_order_skip_matches_feeding_stale_quotients():
    """Taking a run of quotients none of which beats the best at once leaves
    the rule where feeding them one at a time does, NaN ones included."""
    record = [1.0, math.nan, 2.0] * 20
    for count in range(len(record)):
        for stale in (0, 7):
            fed, skipped = ascent.InOrder(), ascent.InOrder()
            for rule in (fed, skipped):
                rule.best, rule.stale = 1.0, stale
            stop = next((s for s, r in enumerate(record[:count]) if fed.feed(r, s, None)),
                        None)
            assert (skipped.skip(count), skipped.stale, skipped.best) == (stop, fed.stale, 1.0)


def test_heuristic_many_restarts_traced_peak_under_2mb():
    """Starts are drawn a stack at a time and only the current stack keeps a
    record, so 100,000 one-step restarts stay under 2 MB; a list of their
    starts alone would take about 16 MB."""
    chain = markov.random_reversible_chain(3, np.random.default_rng(0))
    tracemalloc.start()
    try:
        est = rayleigh.gamma_heuristic(chain, MetricSpace.lp(3.0, 2), 2.0,
                                       restarts=100_000, iters=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.iterations, est.stop) == (100_000, "iteration_cap")
    assert peak < 2 * 2**20


def test_heuristic_wide_stacks_traced_peak_under_half_a_megabyte():
    """2,000 restarts of 500 steps in stacks of 227: the record is one
    (steps, restarts) array per stack, about 0.37 MB at the peak; a record
    kept in per-row Python lists peaked at 0.61 MB."""
    chain = markov.random_reversible_chain(3, np.random.default_rng(0))
    tracemalloc.start()
    try:
        est = rayleigh.gamma_heuristic(chain, MetricSpace.lp(3.0, 2), 2.0,
                                       restarts=2000, iters=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.iterations >= 2000
    assert peak < 0.5 * 2**20


def test_heuristic_work_cap_boundary(monkeypatch):
    """n^2 max(d, F) restarts iters may reach HEURISTIC_CAP * 32 * 500, the
    default run at the size cap, and not exceed it; the check comes before
    the eigensolve, which a sentinel stands in for."""
    class Eigensolve(Exception):
        pass

    def eigensolve(chain):
        raise Eigensolve

    monkeypatch.setattr(rayleigh, "spectral_data", eigensolve)
    chain = markov.random_reversible_chain(3, np.random.default_rng(0))
    space = MetricSpace.lp(3.0, 2)
    most = rayleigh.HEURISTIC_WORK_CAP // (9 * 2 * 500)
    assert rayleigh.HEURISTIC_WORK_CAP == rayleigh.HEURISTIC_CAP * 32 * 500
    with pytest.raises(Eigensolve):
        rayleigh.gamma_heuristic(chain, space, 2.0, restarts=most, iters=500)
    with pytest.raises(InstanceTooLarge, match="heuristic work"):
        rayleigh.gamma_heuristic(chain, space, 2.0, restarts=most + 1, iters=500)


def test_heuristic_recovers_hilbert_gap():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        chain = markov.random_reversible_chain(n, rng)
        exact = rayleigh.gamma_hilbert_exact(chain).value
        est = rayleigh.gamma_heuristic(chain, MetricSpace.lp(2.0, n), 2.0,
                                       restarts=2, iters=50, seed=1)
        assert exact - 1e-6 <= est.value <= exact + 1e-9


def test_heuristic_identity_chain_infinite():
    est = rayleigh.gamma_heuristic(identity_chain(3), MetricSpace.lp(2.0, 3), 2.0,
                                   restarts=1, iters=5, seed=0)
    assert est.value == float("inf")


def test_heuristic_cube_polytope_matches_linf_bit_for_bit():
    """The cube's facet normals are exactly +-e_k, so its polytope norm and
    arg-max subgradient reproduce l_inf and the whole ascent repeats."""
    chain = markov.random_reversible_chain(6, np.random.default_rng(0))
    cube = MetricSpace.polytope(list(itertools.product((-1.0, 1.0), repeat=3)))
    linf = MetricSpace.lp(float("inf"), 3)
    for p in (1.0, 2.0):
        a = rayleigh.gamma_heuristic(chain, cube, p, restarts=2, iters=50)
        b = rayleigh.gamma_heuristic(chain, linf, p, restarts=2, iters=50)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness.points, b.witness.points)


def test_heuristic_linf_is_a_lower_bound_with_valid_witness():
    """Cross-check against enumeration of cube-corner configurations: the
    heuristic's witness must reproduce its value (so the estimate is a
    certified lower bound), and the estimate should land near the best
    corner configuration; the ascent is not guaranteed to dominate the
    discrete enumeration, so only a coarse fraction is asserted."""
    chain = four_cycle()
    space = MetricSpace.lp(float("inf"), 4)
    est = rayleigh.gamma_heuristic(chain, space, 1.0, restarts=8, iters=150, seed=3)
    assert math.isfinite(est.value) and est.value > 0
    r = rayleigh.rayleigh_quotient(est.witness, chain, 1.0)
    assert 1.0 / r == pytest.approx(est.value, rel=1e-9)
    # corner enumeration oracle (a subset of feasible configurations)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
    best = 0.0
    for pick in itertools.product(range(4), repeat=4):
        pts = corners[list(pick)]
        diff = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
        num = float(np.sum(chain.pi[:, None] * chain.A * diff))
        den = float(np.sum(np.outer(chain.pi, chain.pi) * diff))
        if den > 0 and num > 1e-14:
            best = max(best, den / num)
    assert est.value >= best * 0.75


# --- calculus ------------------------------------------------------------------

def test_calculus_endpoint_lambda_one():
    chain = four_cycle()
    x = Configuration(MetricSpace.lp(2.0, 2),
                      np.random.default_rng(1).standard_normal((4, 2)))
    rep = rayleigh.rayleigh_calculus_check(x, chain, markov.lazy_power(chain, 1),
                                           1.0, 2, 2.0)
    assert rep["affinity_slack"] <= 1e-12


def test_calculus_identity_dilution():
    chain = four_cycle()
    ident = identity_chain(4)
    ident = markov.build_reversible_chain(np.eye(4), chain.pi)
    x = Configuration(MetricSpace.lp(2.0, 2),
                      np.random.default_rng(2).standard_normal((4, 2)))
    rep = rayleigh.rayleigh_calculus_check(x, chain, ident, 0.37, 2, 1.0)
    assert rep["dilution_slack"] <= 1e-12


def test_calculus_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        chain = markov.random_reversible_chain(4, rng)
        other = markov.lazy_power(chain, 1)
        x = Configuration(MetricSpace.lp(2.0, 2), rng.standard_normal((4, 2)))
        rep = rayleigh.rayleigh_calculus_check(x, chain, other,
                                               float(rng.uniform()), 3, 1.0)
        assert rep["affinity_slack"] <= 1e-12
        assert rep["dilution_slack"] <= 1e-12
        assert rep["product_slack"] >= -1e-12
        assert rep["power_slack"] >= -1e-12


def test_calculus_rejects_mismatched_stationary():
    rng = np.random.default_rng(4)
    a = markov.random_reversible_chain(3, rng)
    b = markov.random_reversible_chain(3, rng)
    x = Configuration(MetricSpace.lp(2.0, 2), rng.standard_normal((3, 2)))
    with pytest.raises(MismatchedStationary):
        rayleigh.rayleigh_calculus_check(x, a, b, 0.5, 2, 1.0)


def test_calculus_rejects_wrong_configuration_length():
    chain = four_cycle()
    x = Configuration(MetricSpace.lp(2.0, 2), np.ones((3, 2)))
    with pytest.raises(LengthMismatch):
        rayleigh.rayleigh_calculus_check(x, chain, markov.lazy_power(chain, 1),
                                         0.5, 2, 2.0)


def test_meanzero_square_norm_identity():
    """For pi-mean-zero Hilbert configurations,
    R(x; B^2, sq) = 1 - ||(B (x) Id) x||^2 / ||x||^2."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        chain = markov.random_reversible_chain(5, rng)
        x = rng.standard_normal((5, 3))
        x = x - chain.pi @ x
        b2 = markov.build_reversible_chain(chain.A @ chain.A, chain.pi)
        cfg = Configuration(MetricSpace.lp(2.0, 3), x)
        r = rayleigh.rayleigh_quotient(cfg, b2, 2.0)
        norm_sq = float(np.sum(chain.pi[:, None] * x**2))
        img = chain.A @ x
        img_sq = float(np.sum(chain.pi[:, None] * img**2))
        assert r == pytest.approx(1.0 - img_sq / norm_sq, abs=1e-10)


# --- analytic pipeline ---------------------------------------------------------

def test_theorem4_bound_value():
    chain = four_cycle()
    assert rayleigh.theorem4_upper_bound(chain, 1.0, 1.0) == pytest.approx(math.log(2.0))
    with pytest.raises(DegenerateGap):
        rayleigh.theorem4_upper_bound(identity_chain(2), 1.0, 1.0)


def test_theorem4_consistency_with_fitted_constant():
    """The heuristic gap over l_inf^d never exceeds the analytic bound once
    the constant is fitted over the family."""
    rng = np.random.default_rng(8)
    rows = []
    for _ in range(10):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(2, 5))
        chain = markov.random_reversible_chain(n, rng)
        est = rayleigh.gamma_heuristic(chain, MetricSpace.lp(float("inf"), d), 1.0,
                                       restarts=4, iters=80, seed=int(rng.integers(2**32)))
        base = rayleigh.theorem4_upper_bound(chain, math.sqrt(d), 1.0)
        rows.append((est.value, base))
    fitted = max(v / b for v, b in rows)
    assert fitted > 0
    assert all(v <= fitted * b * (1 + 1e-9) for v, b in rows)


# --- absolute gap ---------------------------------------------------------------

def test_gamma_plus_uniform_two_state():
    uniform = markov.build_reversible_chain(np.full((2, 2), 0.5))
    est = rayleigh.gamma_plus_bruteforce(uniform, two_point_metric(), 1.0)
    assert est.value == pytest.approx(1.0)


def test_gamma_plus_identity_infinite():
    est = rayleigh.gamma_plus_bruteforce(identity_chain(2), two_point_metric(), 1.0)
    assert est.value == float("inf")


def test_gamma_plus_dominates_gamma_via_sandwich():
    rng = np.random.default_rng(9)
    for _ in range(10):
        chain = markov.random_reversible_chain(3, rng)
        base = 1.0 + rng.uniform(0, 1, size=(3, 3))
        base = (base + base.T) / 2.0
        np.fill_diagonal(base, 0.0)
        space = MetricSpace.finite(base)
        rep = rayleigh.abs_gap_sandwich_check(chain, space, 2.0)
        assert rep["lower_ok"] and rep["upper_ok"]


def test_sandwich_flip_chain_equality_at_lower_end():
    rep = rayleigh.abs_gap_sandwich_check(flip_chain(), two_point_metric(), 1.0)
    assert rep["gamma"] == pytest.approx(0.5)
    assert rep["gamma_plus_lazy"] == pytest.approx(1.0)
    assert rep["lower_ok"] and rep["upper_ok"]


def test_sandwich_identity_vacuous():
    rep = rayleigh.abs_gap_sandwich_check(identity_chain(2), two_point_metric(), 1.0)
    assert rep["vacuous"]


def test_p_range_guard():
    x = Configuration(two_point_metric(), [0, 1])
    with pytest.raises(BadExponentRange):
        rayleigh.rayleigh_quotient(x, flip_chain(), 9.0)
