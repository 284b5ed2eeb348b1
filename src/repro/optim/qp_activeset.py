"""Primal active-set solver for strictly convex quadratic programs.

Solves::

    minimize    0.5 * x @ P @ x + q @ x
    subject to  A_eq @ x == b_eq
                A_ineq @ x <= b_ineq

with ``P`` symmetric positive definite.  This is the solver behind the
paper's MPC step: the condensed MPC cost (eq. 42) has Hessian
``Θ'Q Θ + R`` which is positive definite whenever the input-move penalty
``R`` is, and the constraint set stacks the workload-conservation
equalities (eq. 45) with the latency and nonnegativity inequalities
(eqs. 43–44).

The algorithm is the textbook primal active-set method (Nocedal & Wright,
Algorithm 16.3):

1. find a feasible start: the caller's ``x0``, else the minimiser on a
   previous working set with the new right-hand sides, else a phase-1 LP
   (reusing the package's own simplex solver),
2. at each iteration solve the equality-constrained subproblem restricted
   to the working set through the KKT system,
3. either take a (possibly blocked) step and add the blocking constraint,
   or — when the step is zero — inspect multipliers and drop the most
   negative one, declaring optimality when none is negative.

The KKT subproblem is solved through :class:`repro.optim.linalg.
IncrementalKKT`: ``P`` is Cholesky-factored once per call and the
working-set Schur complement is updated/downdated in O(n²) as constraints
enter and leave, instead of re-solving a dense (n+m)×(n+m) KKT system per
iteration.  Degenerate working sets (dependent rows) fall back to the
dense least-squares KKT step; ``OptimizeResult.meta`` reports
``kkt_updates`` / ``kkt_refactorizations`` / ``kkt_dense_steps`` so the
incremental path is observable, and ``phase1_solves`` so the start is.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import ConvergenceError, DeadlineExceededError, \
    FactorizationError, InfeasibleProblemError
from .linalg import IncrementalKKT, KKTFactorCache
from .linprog_simplex import linprog
from .result import OptimizeResult, Status

__all__ = ["solve_qp", "find_feasible_point"]

_TOL = 1e-9


def find_feasible_point(n: int, A_eq=None, b_eq=None, A_ineq=None,
                        b_ineq=None) -> np.ndarray:
    """Return any point satisfying the given linear constraints.

    Uses a zero-objective LP over free variables.  Raises
    :class:`InfeasibleProblemError` when the constraint set is empty.
    """
    res = linprog(
        c=np.zeros(n),
        A_ub=A_ineq, b_ub=b_ineq,
        A_eq=A_eq, b_eq=b_eq,
        bounds=(None, None),
    )
    if not res.success:
        raise InfeasibleProblemError("no feasible point found: " + res.message)
    return res.x


def _kkt_step_dense(P: np.ndarray, g: np.ndarray, A_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense fallback for the equality-constrained QP subproblem.

    Returns the step ``p`` minimizing ``0.5 p'Pp + g'p`` subject to
    ``A_w p = 0`` and the Lagrange multipliers of the working constraints.
    Used when the incremental factorization cannot be maintained —
    dependent working rows or a non-SPD ``P`` — because the least-squares
    KKT solve handles the singular case gracefully.
    """
    n = P.shape[0]
    m = A_w.shape[0] if A_w.size else 0
    if m == 0:
        p = np.linalg.solve(P, -g)
        return p, np.empty(0)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = P
    K[:n, n:] = A_w.T
    K[n:, :n] = A_w
    rhs = np.concatenate([-g, np.zeros(m)])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n], sol[n:]


#: Solves one seed of the working-set start may spend before it is given
#: up (see :func:`_working_set_start`).
_WS_START_ROUNDS = 4


def _working_set_start(kkt: IncrementalKKT, kkt_rows: list | None,
                       working_set0, q, A_eq, b_eq, A_ineq, b_ineq,
                       feasible) -> tuple[np.ndarray | None, list | None]:
    """Feasible start from a previous working set, without a phase-1 LP.

    When only right-hand sides moved since the solve that produced
    ``working_set0``, that working set is usually still optimal, so the
    minimiser on the equalities plus those rows, with the new right-hand
    sides, is feasible.  Rows it violates are activated (an O(n²)
    bordered extension each) and the point re-solved, for at most
    ``_WS_START_ROUNDS`` solves.  A seed fails when its set would exceed
    ``n`` rows, a row is dependent, or violations outlast the rounds;
    then the equalities alone are tried as the seed the same way (a
    stale set whose rows pin the point against a dependent row is the
    common failure, and the bare equality minimiser avoids it).
    ``kkt_rows`` names the inequality rows ``kkt`` already holds; when
    they are the seed set, no factorization is done at all.

    Returns ``(x, rows)``: a point passing ``feasible``, or None; and the
    ordered inequality rows ``kkt`` now holds, or None when unknown.
    """
    n, m_eq, m_ineq = q.size, A_eq.shape[0], A_ineq.shape[0]
    previous = sorted({int(i) for i in working_set0 if 0 <= int(i) < m_ineq})
    for rows in ((previous, []) if previous else ([],)):
        if m_eq + len(rows) > n:
            continue
        try:
            if kkt_rows is not None and set(kkt_rows) == set(rows):
                rows = list(kkt_rows)
            else:
                kkt_rows = None
                kkt.set_rows(np.vstack([A_eq, A_ineq[rows]]))
            kkt_rows = rows
            for _ in range(_WS_START_ROUNDS):
                x = kkt.equality_point(
                    q, np.concatenate([b_eq, b_ineq[rows]]))
                held = set(rows)
                over = np.flatnonzero(A_ineq @ x - b_ineq > 1e-7).tolist()
                violated = [i for i in over if i not in held]
                if not violated:
                    if feasible(x):
                        return x, rows
                    break
                if m_eq + len(rows) + len(violated) > n:
                    break
                for i in violated:
                    kkt.add_row(A_ineq[i])
                    rows.append(i)
        except FactorizationError:
            # A failed extension or condition-guard rebuild can leave the
            # factors out of step with ``rows``: report them unknown.
            kkt_rows = None
    return None, kkt_rows


def solve_qp(P, q, A_eq=None, b_eq=None, A_ineq=None, b_ineq=None,
             x0=None, working_set0=None, max_iter: int = 500,
             kkt_cache: KKTFactorCache | None = None,
             deadline_seconds: float | None = None) -> OptimizeResult:
    """Solve a strictly convex QP with the primal active-set method.

    Parameters
    ----------
    P, q:
        Quadratic and linear cost terms; ``P`` must be symmetric positive
        definite (a tiny diagonal regularization is *not* added silently —
        callers own their conditioning).
    A_eq, b_eq, A_ineq, b_ineq:
        Optional equality and ``<=`` inequality constraints.
    x0:
        Optional feasible starting point.  A feasible ``x0`` skips the
        phase-1 LP entirely, which is the dominant cost of a cold solve —
        receding-horizon callers should pass the previous period's
        solution.  When omitted (or infeasible) the start comes from
        ``working_set0`` if given (below), else from a phase-1 LP.
    working_set0:
        Optional iterable of inequality indices to seed the working set
        with (e.g. the ``working_set`` of the previous, nearby solve).
        Indices not tight at the starting point are silently dropped, so a
        stale set degrades gracefully.  Without it the solver activates
        *every* tight constraint, which on degenerate vertices means extra
        drop iterations.  Without a feasible ``x0`` it also supplies the
        start: the minimiser on the equalities plus these rows, with the
        current right-hand sides, computed on the KKT factors in O(n²) —
        the common case when only loads moved since the previous solve.
        Rows that point violates are activated and the point re-solved,
        a few rounds at most; the point is accepted only if it passes
        the same 1e-7 feasibility check as ``x0``, and the working set
        then starts as the activated rows that are tight there.
        Otherwise (dependent rows, more than ``n`` rows, violations left)
        the phase-1 LP runs as without ``working_set0``.
        ``meta["phase1_solves"]`` says whether a phase-1 LP ran (0 or 1).
    max_iter:
        Bound on working-set changes.
    kkt_cache:
        Optional :class:`repro.optim.linalg.KKTFactorCache` shared across
        calls.  When the problem matrices match the cached ones *and* the
        seeded working set equals the cached final working set (the
        common receding-horizon case), the solve starts from the fully
        factored KKT state — no O(n³) work at all.
    deadline_seconds:
        Optional wall-clock budget for this solve.  Checked once per
        working-set iteration; on expiry the solve aborts with
        :class:`repro.exceptions.DeadlineExceededError` instead of
        running to ``max_iter``.  A deadline-bounded controller (see
        :mod:`repro.resilience`) uses this to guarantee a per-step
        latency budget regardless of QP degeneracy.

    Raises
    ------
    InfeasibleProblemError
        When no feasible point exists.
    ConvergenceError
        When the working set keeps changing past ``max_iter``.
    DeadlineExceededError
        When ``deadline_seconds`` elapses before optimality.
    """
    t_start = time.monotonic()
    P = np.atleast_2d(np.asarray(P, dtype=float))
    q = np.asarray(q, dtype=float).ravel()
    n = q.size
    if P.shape != (n, n):
        raise ValueError(f"P must be {n}x{n}, got {P.shape}")
    P = 0.5 * (P + P.T)

    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
    else:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    if A_ineq is not None:
        A_ineq = np.atleast_2d(np.asarray(A_ineq, dtype=float))
        b_ineq = np.asarray(b_ineq, dtype=float).ravel()
    else:
        A_ineq = np.zeros((0, n))
        b_ineq = np.zeros(0)
    m_ineq = A_ineq.shape[0]

    def _feasible(x: np.ndarray) -> bool:
        ok_eq = A_eq.size == 0 or np.all(np.abs(A_eq @ x - b_eq) <= 1e-7)
        ok_in = A_ineq.size == 0 or np.all(A_ineq @ x - b_ineq <= 1e-7)
        return ok_eq and ok_in

    x = None
    if x0 is not None:
        x = np.asarray(x0, dtype=float).ravel().copy()
        if not _feasible(x):
            x = None
    elif A_eq.size == 0 and m_ineq == 0:
        x = np.linalg.solve(P, -q)
        return OptimizeResult(x=x, fun=float(0.5 * x @ P @ x + q @ x),
                              status=Status.OPTIMAL, iterations=0)
    m_eq = A_eq.shape[0]

    # Incremental KKT state.  ``kkt_rows`` is the ordered list of
    # inequality rows the factors currently hold (after the equalities),
    # or None when unknown.  ``kkt_ok`` is False while the working set is
    # degenerate (dependent rows) or P is not SPD; then the dense
    # least-squares step is used until a working-set change lets the
    # factorization be rebuilt.
    dense_steps = 0
    kkt = None
    kkt_rows = None
    cached = kkt_cache.lookup(P, A_eq, A_ineq) if kkt_cache is not None \
        else None
    if cached is not None:
        kkt, key = cached
        kkt_rows = list(key)
    else:
        try:
            kkt = IncrementalKKT(P)
        except FactorizationError:
            kkt = None
    updates0 = kkt.updates if kkt is not None else 0
    refactor0 = kkt.refactorizations if kkt is not None else 0

    phase1_solves = 0
    seed = working_set0
    if x is None and working_set0 is not None and kkt is not None:
        x, kkt_rows = _working_set_start(
            kkt, kkt_rows, working_set0, q, A_eq, b_eq, A_ineq, b_ineq,
            _feasible)
        if x is not None:
            seed = kkt_rows
    if x is None:
        phase1_solves = 1
        x = find_feasible_point(n, A_eq, b_eq, A_ineq, b_ineq)

    # Working set holds indices into the inequality rows; equalities are
    # always active.  ``order`` keeps the *insertion* order of working
    # inequalities — the incremental factorization appends/deletes by
    # position, so positions must stay stable across changes.
    slack = b_ineq - A_ineq @ x if m_ineq else np.empty(0)
    tight = set(np.flatnonzero(slack <= 1e-8).tolist())
    if seed is not None:
        # Seed from the caller's set (or the working-set start's), but
        # only constraints actually tight at the start are admissible
        # working constraints.
        working = {int(i) for i in seed} & tight
    else:
        working = tight
    order = sorted(working)

    def current_rows() -> np.ndarray:
        if not (A_eq.size or order):
            return np.zeros((0, n))
        return np.vstack([A_eq] + [A_ineq[i:i + 1] for i in order])

    kkt_ok = False
    if kkt_rows is not None and set(kkt_rows) == working:
        # The factors already hold this working set (the cached final
        # state of the previous solve, or the working-set start built
        # just above): adopt their row order — no factorization work.
        order = list(kkt_rows)
        kkt_ok = True
    if kkt is not None and not kkt_ok:
        try:
            kkt.set_rows(current_rows())
            kkt_ok = True
        except FactorizationError:
            kkt_ok = False

    def rebuild() -> None:
        nonlocal kkt_ok
        if kkt is None:
            return
        try:
            kkt.set_rows(current_rows())
            kkt_ok = True
        except FactorizationError:
            kkt_ok = False

    # Degenerate problems can cycle under the most-negative-multiplier
    # rule; past this many iterations we switch to Bland-style
    # lowest-index selection, which cannot cycle.
    bland_after = 3 * (q.size + m_ineq)

    def _result(x, it, lam) -> OptimizeResult:
        lam_ineq = lam[m_eq:]
        dual_ineq = np.zeros(m_ineq)
        for pos, ci in enumerate(order):
            dual_ineq[ci] = lam_ineq[pos]
        if kkt_cache is not None and kkt is not None and kkt_ok:
            kkt_cache.store(P, A_eq, A_ineq, kkt, tuple(order))
        return OptimizeResult(
            x=x, fun=float(0.5 * x @ P @ x + q @ x),
            status=Status.OPTIMAL, iterations=it,
            dual_eq=lam[:m_eq], dual_ineq=dual_ineq,
            working_set=tuple(sorted(order)),
            meta={
                "kkt_updates":
                    (kkt.updates - updates0) if kkt is not None else 0,
                "kkt_refactorizations":
                    (kkt.refactorizations - refactor0)
                    if kkt is not None else 0,
                "kkt_dense_steps": dense_steps,
                "phase1_solves": phase1_solves,
                "solve_seconds": time.monotonic() - t_start,
            },
        )

    for it in range(1, max_iter + 1):
        if deadline_seconds is not None and \
                time.monotonic() - t_start > deadline_seconds:
            raise DeadlineExceededError(
                f"active-set QP blew its {deadline_seconds * 1e3:.1f} ms "
                f"deadline after {it - 1} iterations")
        use_bland = it > bland_after
        g = P @ x + q
        if kkt_ok:
            p, lam = kkt.step(g)
        else:
            dense_steps += 1
            p, lam = _kkt_step_dense(P, g, current_rows())

        if np.linalg.norm(p, ord=np.inf) <= _TOL:
            # Stationary on the working set: check inequality multipliers.
            lam_ineq = lam[m_eq:]
            if lam_ineq.size == 0 or np.all(lam_ineq >= -_TOL):
                return _result(x, it, lam)
            if use_bland:
                negative = [order[i] for i in range(len(order))
                            if lam_ineq[i] < -_TOL]
                drop = min(negative)
            else:
                drop = order[int(np.argmin(lam_ineq))]
            pos = order.index(drop)
            order.pop(pos)
            working.remove(drop)
            if kkt_ok:
                try:
                    kkt.remove_row(m_eq + pos)
                except FactorizationError:
                    kkt_ok = False
            else:
                rebuild()
            continue

        # Line search against constraints not in the working set.
        alpha = 1.0
        blocking = -1
        if m_ineq:
            for i in range(m_ineq):
                if i in working:
                    continue
                ai_p = A_ineq[i] @ p
                if ai_p > _TOL:
                    step = (b_ineq[i] - A_ineq[i] @ x) / ai_p
                    better = (step < alpha - 1e-14
                              or (use_bland and blocking >= 0
                                  and abs(step - alpha) <= 1e-12
                                  and i < blocking))
                    if better:
                        alpha = max(min(step, alpha), 0.0)
                        blocking = i
        x = x + alpha * p
        if blocking >= 0:
            working.add(blocking)
            order.append(blocking)
            if kkt_ok:
                try:
                    kkt.add_row(A_ineq[blocking])
                except FactorizationError:
                    kkt_ok = False
            else:
                rebuild()

    raise ConvergenceError(
        f"active-set QP did not converge in {max_iter} iterations"
    )
