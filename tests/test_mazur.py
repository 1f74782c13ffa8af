import numpy as np
import pytest

from nsgap import markov, mazur, rayleigh
from nsgap.errors import BadExponentRange, GapUnavailable, NotNormalized
from nsgap.mazur import WeightedVectorFunction
from nsgap.spaces import MetricSpace


def test_single_atom_scalar():
    f = WeightedVectorFunction(np.array([1.0]), np.array([[4.0]]))
    out = mazur.mazur_map(f, MetricSpace.lp(2.0, 1), 1.0, 2.0)
    assert out.values[0, 0] == pytest.approx(2.0)


def test_equal_exponents_identity():
    rng = np.random.default_rng(0)
    w = np.full(3, 1.0 / 3.0)
    f = WeightedVectorFunction(w, rng.standard_normal((3, 2)))
    out = mazur.mazur_map(f, MetricSpace.lp(2.0, 2), 2.5, 2.5)
    np.testing.assert_allclose(out.values, f.values, atol=1e-15)


def test_unit_vectors_fixed():
    w = np.array([0.5, 0.5])
    f = WeightedVectorFunction(w, np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = mazur.mazur_map(f, MetricSpace.lp(2.0, 2), 2.0, 4.0)
    np.testing.assert_allclose(out.values, f.values, atol=1e-15)


def test_norm_transfer_exact():
    rng = np.random.default_rng(1)
    space = MetricSpace.lp(3.0, 4)
    for _ in range(100):
        w = rng.uniform(0.1, 1.0, size=4)
        f = WeightedVectorFunction(w / w.sum(), rng.standard_normal((4, 4)))
        p, q = rng.uniform(1.0, 4.0, size=2)
        image = mazur.mazur_map(f, space, p, q)
        assert mazur.lp_norm(image, space, q) ** q == pytest.approx(
            mazur.lp_norm(f, space, p) ** p, abs=1e-12)


def test_roundtrip_random():
    rng = np.random.default_rng(2)
    space = MetricSpace.lp(3.0, 4)
    w = np.full(5, 0.2)
    f = WeightedVectorFunction(w, rng.standard_normal((5, 4)))
    rep = mazur.mazur_roundtrip_check(f, space, 1.5, 3.0)
    assert rep["max_error"] <= 1e-12
    assert rep["transfer_error"] <= 1e-12


def test_roundtrip_with_zero_value():
    w = np.array([0.5, 0.5])
    f = WeightedVectorFunction(w, np.array([[0.0, 0.0], [1.0, 2.0]]))
    rep = mazur.mazur_roundtrip_check(f, MetricSpace.lp(2.0, 2), 1.0, 2.0)
    assert rep["max_error"] == 0.0
    image = mazur.mazur_map(f, MetricSpace.lp(2.0, 2), 1.0, 2.0)
    assert np.all(image.values[0] == 0.0)


def test_holder_degenerate_inputs():
    w = np.array([1.0])
    f = WeightedVectorFunction(w, np.array([[1.0]]))
    rep = mazur.mazur_holder_check(f, f, MetricSpace.lp(2.0, 1), 1.0, 2.0,
                                   [0.8**k for k in range(5)])
    assert rep["fitted_exponent"] is None
    assert "note" in rep


def test_holder_sign_flip_worst_case():
    """Atoms at +e and -e under (p, q) = (1, 2): the fitted slope is exactly
    p/q = 1/2 because the map is positively homogeneous of that order."""
    w = np.array([1.0])
    f = WeightedVectorFunction(w, np.array([[0.3]]))
    g = WeightedVectorFunction(w, np.array([[-0.3]]))
    rep = mazur.mazur_holder_check(f, g, MetricSpace.lp(2.0, 1), 1.0, 2.0,
                                   [0.7**k for k in range(20)])
    assert rep["fitted_exponent"] == pytest.approx(0.5, abs=1e-9)
    assert rep["slope_ok"]


def test_holder_fit_random_pairs():
    rng = np.random.default_rng(3)
    space = MetricSpace.lp(3.0, 4)
    scales = [0.8**k for k in range(20)]
    for p, q in ((1.0, 2.0), (1.5, 3.0), (2.0, 4.0)):
        w = np.full(3, 1.0 / 3.0)
        f = WeightedVectorFunction(w, rng.standard_normal((3, 4)))
        g = WeightedVectorFunction(w, rng.standard_normal((3, 4)))
        rep = mazur.mazur_holder_check(f, g, space, p, q, scales)
        assert rep["fitted_exponent"] >= min(p / q, 1.0) - 0.1


def test_holder_rejects_vanishing():
    w = np.array([1.0])
    zero = WeightedVectorFunction(w, np.array([[0.0]]))
    with pytest.raises(NotNormalized):
        mazur.mazur_holder_check(zero, zero, MetricSpace.lp(2.0, 1), 1.0, 2.0, [0.5])


def test_extrapolation_hilbert_trivial():
    rng = np.random.default_rng(4)
    chain = markov.random_reversible_chain(4, rng)
    rep = mazur.extrapolation_check(chain, MetricSpace.lp(2.0, 4), 2.0, 2.0)
    assert rep["left_ratio"] == pytest.approx(1.0, abs=1e-9)
    assert rep["right_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_extrapolation_flip_two_point():
    flip = markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    space = MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = mazur.extrapolation_check(flip, space, 1.0, 2.0)
    assert rep["gamma_p"] == pytest.approx(0.5)
    assert rep["gamma_q"] == pytest.approx(0.5)
    assert rep["left_ratio"] == pytest.approx(0.5 / np.sqrt(0.5), abs=1e-12)
    assert rep["right_ratio"] == pytest.approx(1.0)


def test_extrapolation_cycle_family_bounded():
    for n in range(3, 7):
        A = np.zeros((n, n))
        for i in range(n):
            A[i, (i + 1) % n] += 0.5
            A[i, (i - 1) % n] += 0.5
        chain = markov.lazy_power(markov.build_reversible_chain(A), 1)
        rep = mazur.extrapolation_check(chain, MetricSpace.lp(2.0, n), 1.0, 2.0)
        assert 0.1 <= rep["left_ratio"] <= 10.0
        assert 0.1 <= rep["right_ratio"] <= 10.0


def test_extrapolation_takes_the_gaps_of_estimate_gap():
    """Both sides come from rayleigh.estimate_gap with the report's budget,
    and the report carries the weaker provenance of the two."""
    rng = np.random.default_rng(4)
    lazy_cycle = markov.lazy_power(markov.build_reversible_chain(
        np.roll(np.eye(4), 1, axis=1) / 2 + np.roll(np.eye(4), -1, axis=1) / 2), 1)
    cases = [
        (markov.random_reversible_chain(4, rng), MetricSpace.lp(2.0, 4), 2.0, 2.0, "exact"),
        (markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]])),
         MetricSpace.finite(np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0, 2.0, "brute_force"),
        (lazy_cycle, MetricSpace.lp(2.0, 4), 1.0, 2.0, "heuristic"),
    ]
    for chain, space, p, q, provenance in cases:
        rep = mazur.extrapolation_check(chain, space, p, q)
        for side, exponent in (("p", p), ("q", q)):
            est = rayleigh.estimate_gap(chain, space, exponent, restarts=8, iters=200)
            assert rep[f"kind_{side}"] == est.kind
            assert rep[f"gamma_{side}"] == est.value
        assert rep["provenance"] == provenance
    # the mixed case: heuristic at p = 1, exact at q = 2
    assert (rep["kind_p"], rep["kind_q"]) == ("heuristic_lower_bound", "exact_hilbert")


def test_extrapolation_rejects_infinite_gap():
    ident = markov.build_reversible_chain(np.eye(2), np.full(2, 0.5))
    with pytest.raises(GapUnavailable):
        mazur.extrapolation_check(ident, MetricSpace.lp(2.0, 2), 2.0, 2.0)


def test_extrapolation_rejects_bad_order():
    rng = np.random.default_rng(5)
    chain = markov.random_reversible_chain(3, rng)
    with pytest.raises(BadExponentRange):
        mazur.extrapolation_check(chain, MetricSpace.lp(2.0, 3), 3.0, 2.0)


def test_function_json_roundtrip():
    f = WeightedVectorFunction(np.array([0.25, 0.75]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    again = WeightedVectorFunction.from_json(f.to_json())
    np.testing.assert_allclose(again.weights, f.weights)
    np.testing.assert_allclose(again.values, f.values)
