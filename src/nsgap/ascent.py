"""The gap heuristic's multi-start subgradient ascent, its restarts stepped
together in stacks.

A stack of m restarts is one (m, n, d) array: each step makes one
`pair_norms` call and one set of reductions for all of them.  At the
heuristic's sizes a step costs mostly numpy dispatch, so this costs far less
than m steps of one restart.  The restarts still stop, and report, as if
they ran one after another (`InOrder`, `lockstep`), and every operation acts
on each row as on that row alone, so the results are bit-identical to a
sequential run.  `rayleigh.gamma_heuristic` checks the instance, draws the
starts and reads the result.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import StochasticChain
from .spaces import MetricSpace, pair_norms


def evaluator(chain: StochasticChain, space: MetricSpace, e: float):
    """The ascent's evaluation of a stack of configurations, shape (m, n, d).
    Each operation acts on every row as it would on that row alone, so a
    row's values do not depend on the rows stacked with it."""
    w = chain.pi[:, None] * chain.A
    u = np.outer(chain.pi, chain.pi)
    # numerator and denominator weights on a leading axis, for one reduction
    terms = np.array([w, u])[:, None]
    wsym, usym = w + w.T, 2.0 * u

    def evaluate(pts):
        """Per row: R, its gradient, the divisor that brings the quotient
        denominator back to 1, and the positions of the rows that collapsed
        to a constant configuration (denominator <= 1e-300; their R is NaN).
        The divisor is a Python float power, which numpy's array power can
        miss by one unit in the last place."""
        m, n, d = pts.shape
        norms, grads = pair_norms(space, pts[:, :, None, :] - pts[:, None, :, :])
        num, den = np.add.reduce(terms * norms**e, axis=(2, 3), keepdims=True)
        dens = den.ravel().tolist()
        collapsed = [j for j, x in enumerate(dens) if x <= 1e-300]
        if collapsed:
            den = np.where(den > 1e-300, den, 1.0)
            num[collapsed] = np.nan
        r = num / den
        big = norms > 1e-12
        factor = e * np.where(big, np.where(big, norms, 1.0) ** (e - 1.0), 0.0)
        # rows (b, i) on one axis, so each sum over j runs as for one configuration
        grads = grads.reshape(m * n, n, d)
        grad_num = np.einsum("ij,ijk->ik", (wsym * factor).reshape(m * n, n), grads)
        grad_den = np.einsum("ij,ijk->ik", (usym * factor).reshape(m * n, n), grads)
        grad = (grad_num.reshape(m, n, d) - r * grad_den.reshape(m, n, d)) / den
        scale = np.array([x ** (1.0 / e) for x in dens])[:, None, None]
        return r.ravel(), grad, scale, collapsed

    return evaluate


def step(pts, grad, scale, t: int):
    """Subgradient step t on each row, then the rescaling to denominator 1."""
    return (pts - (0.1 / math.sqrt(t + 1.0)) * grad) / scale


def trajectory(evaluate, start, steps: int):
    """The points of one restart after `steps` steps."""
    pts = start[None]
    for t in range(steps):
        _, grad, scale, _ = evaluate(pts)
        pts = step(pts, grad, scale, t)
    return pts[0]


class InOrder:
    """The restarts' stop rule, applied as though they ran one after another.
    A restart stops after 51 evaluations in a row that do not beat the best
    quotient so far, over all earlier restarts too, by 1e-15; at a collapse to
    a constant configuration; or at the iteration cap.  The witness is the
    configuration of the last new best."""

    def __init__(self):
        self.best, self.stale = math.inf, 0
        self.restart, self.start = None, None  # the restart being fed, and its start
        self.witness, self.holder = None, None  # holder: (restart, start, step) of the best
        self.evaluations, self.stop = 0, None

    def begin(self, restart: int, start) -> None:
        self.restart, self.start, self.stale = restart, start, 0

    def feed(self, r: float, step: int, points) -> bool:
        """Take the current restart's quotient at `step`; True if it stops
        there.  `points` is its configuration at `step`, or None when only
        its start is at hand and a witness is to be recomputed from it."""
        if r < self.best - 1e-15:
            self.best, self.stale = r, 0
            self.holder = (self.restart, self.start, step)
            self.witness = None if points is None else points.copy()
            return False
        self.stale += 1
        return self.stale > 50

    def skip(self, count: int):
        """Take `count` quotients of the current restart, none of which beats
        the best less 1e-15, at once; the step it stops at, or None."""
        at = 50 - self.stale
        self.stale = min(self.stale + count, 51)
        return at if at < count else None

    def finish(self, evaluations: int, stop: str) -> None:
        self.evaluations += evaluations
        if self.holder is not None and self.holder[0] == self.restart:
            self.stop = stop


def _feed_record(rule: InOrder, record, snapshot, snap_step: int):
    """Feed the current restart its recorded quotients; the step it stops
    at, or None.  `snapshot` holds its points at step `snap_step`."""
    for s, r in enumerate(record):
        if rule.feed(r, s, snapshot if s == snap_step else None):
            return s
    return None


def lockstep(evaluate, starts, first: int, iters: int, rule: InOrder) -> None:
    """Run restarts first, first + 1, ... from `starts` (m, n, d) as one stack
    and feed their quotients to `rule` in restart order.

    Row 0 of the stack is the first restart that has not stopped; it is fed
    its quotients as they arrive.  A later row records them, one line of
    `record` a step.  Its step is fresh if it beats both the current best
    less 1e-15 and its own earlier quotients; a fresh step keeps the row's
    points.  A row leaves the stack after 51 steps in a row that are not
    fresh (t - fresh_at > 50): no such step is a new best from any best the
    earlier restarts can leave, so the row has stopped by then, perhaps some
    steps before.  When row 0 stops, the next restart is fed its record and
    takes its place; a record whose least quotient does not beat the best
    less 1e-15 is taken at once.  Any step fed as a new best is fresh, so
    the snapshot holds the witness whenever it is the row's last fresh step;
    otherwise `trajectory` recomputes it from the start."""
    size = len(starts)
    pts, rows = starts.copy(), list(range(size))
    left, collapsed_rows = {}, set()  # rows off the stack: their recorded steps
    rule.begin(first, starts[0])
    if size > 1:  # the later rows' quotients, last fresh steps and their points
        later = np.arange(1, size)
        record = np.empty((min(iters, 64), size))
        snap, fresh_at = np.empty_like(starts), np.full(size, -1)
        oldest = -1  # at most the least fresh_at of a later row
    for t in range(iters):
        r, grad, scale, collapsed = evaluate(pts)
        gone = bool(collapsed)
        if len(rows) > 1:
            if t == len(record):
                record = np.concatenate([record, np.empty_like(record)])
            v = r[1:]
            record[t, later] = v
            below = (v < rule.best - 1e-15).nonzero()[0]
            if below.size:  # rare after the first steps
                own = np.fmin.reduce(record[:t, later[below]], axis=0, initial=math.inf)
                fresh = below[v[below] < own]
                fresh_at[later[fresh]] = t
                snap[later[fresh]] = pts[fresh + 1]
            if t - oldest > 50:
                stale = t - fresh_at[later]
                for pos in np.flatnonzero(stale > 50):
                    left[rows[pos + 1]] = t + 1
                    gone = True
                # the least fresh_at of the rows that stay
                oldest = t - int(stale.max(where=stale <= 50, initial=0))
        for pos in collapsed:
            left[rows[pos]] = t
            collapsed_rows.add(rows[pos])
        k = rows[0]
        if 0 in collapsed or rule.feed(float(r[0]), t, pts[0]):
            stop = "stalled"
        else:
            stop = "iteration_cap" if t == iters - 1 else None
        if stop:
            rule.finish(t + 1, stop)
            gone = True
            while True:
                k += 1
                if k == size:
                    return
                rule.begin(first + k, starts[k])
                steps = left.get(k, t + 1)
                own = np.fmin.reduce(record[:steps, k], initial=math.inf)
                if own < rule.best - 1e-15:  # some recorded quotient is a new best
                    s = _feed_record(rule, record[:steps, k].tolist(), snap[k], fresh_at[k])
                else:  # every recorded quotient is stale, NaN ones too
                    s = rule.skip(steps)
                if s is not None:
                    rule.finish(s + 1, "stalled")
                elif k in collapsed_rows:
                    rule.finish(steps + 1, "stalled")
                elif steps == iters:
                    rule.finish(iters, "iteration_cap")
                else:
                    break  # row k is still on the stack: it becomes row 0
        if gone:
            keep = [pos for pos, row in enumerate(rows) if row >= k and row not in left]
            rows = [rows[pos] for pos in keep]
            later = np.array(rows[1:], dtype=int)
            pts, grad, scale = pts[keep], grad[keep], scale[keep]
        pts = step(pts, grad, scale, t)
