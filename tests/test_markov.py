import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgap import markov
from nsgap.errors import (
    InvalidPower,
    NoPositiveStationary,
    NotReversibleChain,
    NotStochastic,
)


def four_cycle():
    A = np.array([[0, .5, 0, .5], [.5, 0, .5, 0], [0, .5, 0, .5], [.5, 0, .5, 0]])
    return markov.build_reversible_chain(A)


def test_build_flip_chain():
    chain = markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert chain.reversible
    np.testing.assert_allclose(chain.pi, [0.5, 0.5], atol=1e-12)


def test_build_identity_with_pi():
    chain = markov.build_reversible_chain(np.eye(3), np.full(3, 1.0 / 3.0))
    assert chain.reversible


def test_build_birth_death_stationary():
    A = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    chain = markov.build_reversible_chain(A)
    np.testing.assert_allclose(chain.pi, [0.25, 0.5, 0.25], atol=1e-9)
    assert chain.reversible


def test_build_rejects_bad_rows():
    with pytest.raises(NotStochastic):
        markov.build_reversible_chain(np.array([[0.5, 0.6], [0.5, 0.5]]))


def test_build_rejects_reducible():
    A = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(NoPositiveStationary):
        markov.build_reversible_chain(A)


def test_large_reducible_chain_rejected_quickly():
    """A slow drift into an absorbing state: the only stationary vector is a
    point mass, so the chain is rejected straight after the linear solve.
    Power iteration would need about a million steps to see it."""
    n = 512
    A = 0.999 * np.eye(n) + 0.001 * np.eye(n, k=1)
    A[-1, -1] = 1.0
    start = time.process_time()
    with pytest.raises(NoPositiveStationary):
        markov.build_reversible_chain(A)
    assert time.process_time() - start < 1.0


def test_transient_states_rejected_before_the_solve(monkeypatch):
    """An edge leaving a strongly connected class of the support marks
    transient states; the chain is rejected without the dense solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("least-squares solve reached")

    monkeypatch.setattr(markov.np.linalg, "lstsq", no_solve)
    closed_pair_and_transient = np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    for A in (np.array([[1.0, 0.0], [0.5, 0.5]]), closed_pair_and_transient):
        with pytest.raises(NoPositiveStationary):
            markov.build_reversible_chain(A)


def test_nonreversible_is_flagged_not_raised():
    A = np.array([[0.0, 0.7, 0.3], [0.3, 0.0, 0.7], [0.7, 0.3, 0.0]])
    chain = markov.build_reversible_chain(A)
    assert not chain.reversible
    with pytest.raises(NotReversibleChain):
        markov.spectral_data(chain)


def test_spectral_four_cycle():
    data = markov.spectral_data(four_cycle())
    np.testing.assert_allclose(data.eigenvalues, [1, 0, 0, -1], atol=1e-10)
    assert data.lambda2 == pytest.approx(0.0, abs=1e-10)
    assert data.gamma_classical == pytest.approx(1.0, abs=1e-10)


def test_spectral_complete_graph_three_states():
    A = (np.ones((3, 3)) - np.eye(3)) / 2.0
    data = markov.spectral_data(markov.build_reversible_chain(A))
    np.testing.assert_allclose(data.eigenvalues, [1, -0.5, -0.5], atol=1e-10)
    assert data.gamma_classical == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_spectral_identity_chain():
    chain = markov.build_reversible_chain(np.eye(3), np.full(3, 1.0 / 3.0))
    data = markov.spectral_data(chain)
    np.testing.assert_allclose(data.eigenvalues, np.ones(3), atol=1e-10)
    assert data.gamma_classical == float("inf")


def test_lazy_power_four_cycle():
    lazy = markov.lazy_power(four_cycle(), 1)
    data = markov.spectral_data(lazy)
    np.testing.assert_allclose(data.eigenvalues, [1, 0.5, 0.5, 0], atol=1e-10)


def test_lazy_power_rejects_zero():
    with pytest.raises(InvalidPower):
        markov.lazy_power(four_cycle(), 0)


def test_lazy_power_identity_fixed_point():
    chain = markov.build_reversible_chain(np.eye(2), np.full(2, 0.5))
    powered = markov.lazy_power(chain, 7)
    np.testing.assert_allclose(powered.A, np.eye(2), atol=1e-12)


def test_lazy_power_composes():
    rng = np.random.default_rng(3)
    chain = markov.random_reversible_chain(5, rng)
    once = markov.lazy_power(chain, 5)
    twice = markov.lazy_power(markov.lazy_power(chain, 2), 1)
    # ((L)^2)^1 applies the lazy map twice, so compare against L^2 of L
    inner = markov.lazy_power(chain, 2)
    relaz = (inner.A + np.eye(5)) / 2.0
    np.testing.assert_allclose(twice.A, relaz, atol=1e-12)
    direct = np.linalg.matrix_power((chain.A + np.eye(5)) / 2.0, 5)
    np.testing.assert_allclose(once.A, direct, atol=1e-12)


def test_meanzero_bound_lazy_four_cycle():
    rep = markov.meanzero_opnorm_bound_check(markov.lazy_power(four_cycle(), 1))
    assert rep["lhs"] == pytest.approx(0.5, abs=1e-10)
    assert rep["rhs"] == pytest.approx(np.sqrt(0.5), abs=1e-10)
    assert rep["holds"]


def test_meanzero_bound_identity_degenerate():
    chain = markov.build_reversible_chain(np.eye(2), np.full(2, 0.5))
    rep = markov.meanzero_opnorm_bound_check(chain)
    assert rep["rhs"] == pytest.approx(1.0)
    assert rep["holds"]


def test_meanzero_bound_lazified_flip():
    flip = markov.build_reversible_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = markov.meanzero_opnorm_bound_check(markov.lazy_power(flip, 1))
    assert rep["lhs"] == pytest.approx(0.0, abs=1e-10)
    assert rep["holds"]


def test_meanzero_bound_makes_one_eigensolve(monkeypatch):
    """The check solves each chain once and keeps the bits of the formula
    that solved it twice: lhs = ||A||_0 and rhs = (1 - 1/gamma_plus)^{1/2}
    with gamma_plus = 1/(1 - ||A||_0), rhs = 1 where gamma_plus is infinite."""
    rng = np.random.default_rng(8)
    chains = [markov.random_reversible_chain(int(rng.integers(2, 9)), rng)
              for _ in range(100)]
    chains.append(markov.build_reversible_chain(np.eye(3), np.full(3, 1.0 / 3.0)))
    solve = markov.spectral_data
    calls = []

    def counted(chain):
        calls.append(chain)
        return solve(chain)

    monkeypatch.setattr(markov, "spectral_data", counted)
    for chain in chains:
        calls.clear()
        rep = markov.meanzero_opnorm_bound_check(chain)
        assert calls == [chain]
        lhs = solve(chain).meanzero_norm
        mu = solve(chain).meanzero_norm
        gamma_plus = float("inf") if mu >= 1.0 - 1e-12 else 1.0 / (1.0 - mu)
        rhs = 1.0 if np.isinf(gamma_plus) else (1.0 - 1.0 / gamma_plus) ** 0.5
        assert (rep["lhs"], rep["rhs"]) == (lhs, rhs)


def test_gap_inequality_on_random_hilbert_configurations():
    """The reciprocal-gap constant is valid for random configurations and
    becomes invalid when shrunk by 1e-3 at the eigenvector configuration."""
    rng = np.random.default_rng(7)
    chain = markov.random_reversible_chain(6, rng)
    data = markov.spectral_data(chain)
    gamma = data.gamma_classical
    pi = chain.pi
    for _ in range(100):
        x = rng.standard_normal((6, 3))
        diff = x[:, None, :] - x[None, :, :]
        sq = np.sum(diff**2, axis=2)
        lhs = np.sum(np.outer(pi, pi) * sq)
        rhs = np.sum(pi[:, None] * chain.A * sq)
        assert lhs <= gamma * rhs * (1 + 1e-9)
    v = data.eigenvectors[:, 1] / np.sqrt(pi)
    diff = v[:, None] - v[None, :]
    sq = diff**2
    lhs = np.sum(np.outer(pi, pi) * sq)
    rhs = np.sum(pi[:, None] * chain.A * sq)
    assert lhs > gamma * (1 - 1e-3) * rhs


def test_symmetrization_similarity():
    rng = np.random.default_rng(11)
    chain = markov.random_reversible_chain(5, rng)
    direct = np.sort(np.linalg.eigvals(chain.A).real)
    via_sym = np.sort(markov.spectral_data(chain).eigenvalues)
    np.testing.assert_allclose(direct, via_sym, atol=1e-9)


def _regular_walk(adj: np.ndarray) -> markov.StochasticChain:
    return markov.build_reversible_chain(adj / adj.sum(axis=1, keepdims=True))


def _cycle_walk(n: int) -> markov.StochasticChain:
    adj = np.zeros((n, n))
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = adj[(idx + 1) % n, idx] = 1.0
    return _regular_walk(adj)


def _complete_walk(n: int) -> markov.StochasticChain:
    return _regular_walk(np.ones((n, n)) - np.eye(n))


def _hypercube_walk(d: int) -> markov.StochasticChain:
    idx = np.arange(2**d)
    flips = np.bitwise_xor(idx[:, None], idx[None, :])
    return _regular_walk(((flips & (flips - 1)) == 0) & (flips != 0))


@pytest.mark.parametrize("chain, spectrum", [
    (_cycle_walk(8), np.cos(2.0 * np.pi * np.arange(8) / 8.0)),
    (_complete_walk(6), [1.0] + [-1.0 / 5.0] * 5),
    (_hypercube_walk(4), np.repeat(1.0 - 2.0 * np.arange(5) / 4.0,
                                   [math.comb(4, k) for k in range(5)])),
], ids=["cycle8", "complete6", "hypercube4"])
def test_spectral_data_closed_form_walk_spectra(chain, spectrum):
    data = markov.spectral_data(chain)
    vals, vecs = data.eigenvalues, data.eigenvectors
    expected = np.sort(spectrum)[::-1]
    np.testing.assert_allclose(vals, expected, atol=1e-12)
    assert np.all(np.diff(vals) <= 0.0)
    assert data.lambda2 == pytest.approx(expected[1], abs=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(chain.n), atol=1e-12)
    # regular walks have uniform pi, so the symmetrization is A itself
    np.testing.assert_allclose(chain.A @ vecs, vecs * vals, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_random_chain_detailed_balance(n, seed):
    chain = markov.random_reversible_chain(n, np.random.default_rng(seed))
    flow = chain.pi[:, None] * chain.A
    assert np.max(np.abs(flow - flow.T)) <= 1e-12
    assert chain.reversible


def test_json_roundtrip():
    chain = four_cycle()
    again = markov.chain_from_json(markov.chain_to_json(chain))
    np.testing.assert_allclose(again.A, chain.A)
    np.testing.assert_allclose(again.pi, chain.pi)


def test_text_input():
    chain = markov.chain_from_text("0 1\n1 0\n")
    assert chain.n == 2 and chain.reversible
