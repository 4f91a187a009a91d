"""Proximal bundle method for concave maximization from value/supergradient calls.

The model is the lower envelope of the collected linearizations; each
iterate maximizes it minus a proximal penalty around the current
center.  That quadratic program is solved in its simplex-dual form by
pairwise coordinate exchanges.  Serious steps move the center when the
true function delivers a fixed fraction of the model's predicted
ascent; null steps only enrich the model.  Stops when the predicted
ascent falls below ``tol * (1 + |best value|)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROX_MIN = 1e-9                      # bounds on the prox weight mu
PROX_MAX = 1e9
DESCENT_FRACTION = 0.1               # serious-step acceptance threshold
QP_ITERS = 1000


@dataclass
class BundleParams:
    max_iter: int = 500
    tol: float = 1e-6
    prox_weight: float = 1.0         # initial mu; candidate = center + agg/mu
    bundle_max: int = 40


@dataclass
class TraceRow:
    iteration: int
    theta: float            # value at the point evaluated this iteration
    best: float
    gap: float              # model's predicted ascent at the candidate
    step: str               # start | serious | null
    prox_weight: float
    grad_norm: float


@dataclass
class BundleResult:
    lam: np.ndarray
    theta: float
    evaluation: object
    status: str              # converged | iteration_limit
    iterations: int
    oracle_calls: int
    trace: list = field(default_factory=list)

    def trace_csv(self) -> str:
        lines = ["iteration,theta,best,gap,step,prox_weight,grad_norm"]
        for r in self.trace:
            lines.append(f"{r.iteration},{r.theta!r},{r.best!r},{r.gap!r},"
                         f"{r.step},{r.prox_weight!r},{r.grad_norm!r}")
        return "\n".join(lines) + "\n"


def _simplex_qp(G: np.ndarray, e: np.ndarray, mu: float, iters: int) -> np.ndarray:
    """min (1/2mu) a'Ga + e'a over the simplex, by pairwise exchange.

    Each exchange moves weight from the support member of largest
    gradient ``g = G alpha / mu + e`` to the member of smallest.  The
    gradient is recomputed in full every time, by the same three array
    operations into a buffer reused across exchanges, rather than
    updated, so rounding never accumulates.  Scalars are read from
    Python mirrors (``weights`` of ``alpha``, ``rows`` of ``G``), and
    ``gj``, the gradient on the support and -inf elsewhere, is kept up
    to date as members join and leave the support.
    """
    b = e.size
    alpha = np.zeros(b)
    alpha[int(e.argmin())] = 1.0
    if b == 1:
        return alpha
    rows = G.tolist()
    weights = alpha.tolist()
    support = alpha > 1e-14
    g = np.empty(b)
    gj = np.full(b, -np.inf)
    mu_ = np.array(mu)
    dot, divide, add, copyto = np.dot, np.divide, np.add, np.copyto
    for _ in range(iters):
        dot(G, alpha, out=g)
        divide(g, mu_, out=g)
        add(g, e, out=g)
        i = int(g.argmin())
        copyto(gj, g, where=support)
        j = int(gj.argmax())
        gi, gjj = g.item(i), g.item(j)
        gap = gjj - gi
        if gap <= 1e-12 * (1.0 + abs(gi) + abs(gjj)):
            break
        ri, rj = rows[i], rows[j]
        curv = (ri[i] - 2.0 * ri[j] + rj[j]) / mu
        aj = weights[j]
        t = aj if curv <= 0.0 else min(aj, gap / curv)
        if t <= 0.0:
            break
        ai = weights[i] + t
        aj -= t
        weights[i] = alpha[i] = ai
        weights[j] = alpha[j] = aj
        support[i] = ai > 1e-14     # i gains weight: it never leaves
        if not aj > 1e-14:
            support[j] = False
            gj[j] = -np.inf
    return alpha


def maximize_dual(oracle, lam0: np.ndarray, params: BundleParams | None = None
                  ) -> BundleResult:
    """Maximize a concave function given by ``oracle(lam)``.

    The oracle must return an object with attributes ``theta`` (float)
    and ``supergradient`` (vector); the best such object is handed back
    in the result.  Deterministic: same oracle and start point give the
    same iterates.
    """
    p = params or BundleParams()
    center = np.asarray(lam0, dtype=float).ravel().copy()
    ev = oracle(center)
    f_center = ev.theta
    best_ev, best_lam, best_f = ev, center.copy(), f_center

    # cuts stored as value intercepts: cut_i(lam) = cons[i] + S[i] . lam
    S = ev.supergradient[None, :].copy()
    cons = np.array([f_center - float(ev.supergradient @ center)])
    mu = p.prox_weight
    nulls = 0
    trace = [TraceRow(0, f_center, best_f, np.inf, "start", mu,
                      float(np.linalg.norm(ev.supergradient)))]
    status = "iteration_limit"
    calls = 1

    for it in range(1, p.max_iter + 1):
        e = np.maximum((cons + S @ center) - f_center, 0.0)
        G = S @ S.T
        alpha = _simplex_qp(G, e, mu, QP_ITERS)
        agg = S.T @ alpha
        candidate = center + agg / mu
        gap = float(np.min(cons + S @ candidate)) - f_center
        gap = max(gap, 0.0)
        if gap <= p.tol * (1.0 + abs(f_center)):
            status = "converged"
            break

        ev = oracle(candidate)
        calls += 1
        f_cand = ev.theta
        S = np.vstack([S, ev.supergradient])
        cons = np.append(cons, f_cand - float(ev.supergradient @ candidate))
        if f_cand > best_f:
            best_ev, best_lam, best_f = ev, candidate.copy(), f_cand

        if f_cand >= f_center + DESCENT_FRACTION * gap:
            ratio = (f_cand - f_center) / gap if gap > 0 else 1.0
            center, f_center = candidate, f_cand
            step = "serious"
            nulls = 0
            if ratio >= 0.7:
                mu = max(PROX_MIN, 0.5 * mu)
        else:
            step = "null"
            nulls += 1
            if nulls >= 3:
                mu = min(PROX_MAX, 1.5 * mu)
                nulls = 0
        trace.append(TraceRow(it, f_cand, best_f, gap, step, mu,
                              float(np.linalg.norm(ev.supergradient))))

        if S.shape[0] > p.bundle_max:
            a_full = np.append(alpha, 0.0)
            agg_c = float(cons @ a_full[:cons.size])
            keep = np.argsort(-a_full)[:p.bundle_max - 2]
            keep = sorted(set(int(k) for k in keep) | {S.shape[0] - 1})
            S = np.vstack([agg[None, :], S[keep]])
            cons = np.concatenate([[agg_c], cons[keep]])

    return BundleResult(lam=best_lam, theta=best_f, evaluation=best_ev,
                        status=status, iterations=len(trace) - 1,
                        oracle_calls=calls, trace=trace)
