"""Structure-exploiting linear-algebra kernels for the QP backends.

The paper's fast loop solves one condensed MPC QP per control period; its
cost is dominated by three dense O(n³) operations that this module
replaces with structured ones:

``UpdatableCholesky``
    A Cholesky factor ``M = L Lᵀ`` that supports rank-one *update*
    (``M + v vᵀ``), rank-one *downdate* (``M − v vᵀ``), bordered
    *extension* (append one row/column) and *deletion* (remove one
    row/column) — each in O(n²) instead of an O(n³) refactorization.
    Downdates and extensions can destroy positive definiteness (dependent
    constraint rows, round-off); those raise
    :class:`~repro.exceptions.FactorizationError` so callers can fall back
    to a fresh factorization.

``IncrementalKKT``
    The range-space (Schur-complement) KKT stepper behind the active-set
    QP.  ``P`` is factored once per solve; the working-set Schur
    complement ``S = A_w P⁻¹ A_wᵀ`` is kept factored *incrementally* as
    constraints enter and leave the working set, so each working-set
    change costs O(n²) instead of the dense O((n+m)³) KKT solve per
    iteration.  A diagonal condition estimate guards against drift: when
    it trips, the caller refactorizes from scratch.

``MPCConstraintOperator``
    The condensed MPC constraint stack has *prefix* structure: every
    per-step row block applies a fixed per-step matrix to the running sum
    ``u_prev + Σ_{b≤i} Δu_b`` (the move selector ``T_i``).  This operator
    applies the stack and its transpose matrix-free via one cumulative
    sum plus one batched small matmul, and assembles the Gram matrix
    ``AᵀA`` directly from the block pattern — which is all the reduced
    ADMM path needs.  ``to_dense()`` reproduces the exact dense stack
    (same row order) for validation.

All kernels are cross-validated against dense numpy/scipy paths in
``tests/test_optim_linalg.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..exceptions import FactorizationError

__all__ = ["UpdatableCholesky", "IncrementalKKT", "KKTFactorCache",
           "MPCConstraintOperator"]


class UpdatableCholesky:
    """Lower-triangular Cholesky factor with O(n²) modifications.

    Parameters
    ----------
    M:
        Symmetric positive-definite matrix to factor.  Only the lower
        triangle is referenced.

    Raises
    ------
    FactorizationError
        When ``M`` is not positive definite (also from :meth:`update`,
        :meth:`downdate`, :meth:`append` and :meth:`delete` when the
        modified matrix would not be).
    """

    #: relative floor on a pivot before the factor is declared indefinite.
    _PIVOT_RTOL = 1e-13

    def __init__(self, M) -> None:
        M = np.atleast_2d(np.asarray(M, dtype=float))
        try:
            self.L = np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"matrix is not positive definite: {exc}") from exc

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.L.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``M x = b`` via two triangular solves (O(n²))."""
        b = np.asarray(b, dtype=float)
        y = sla.solve_triangular(self.L, b, lower=True)
        return sla.solve_triangular(self.L.T, y, lower=False)

    def solve_half(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L w = b`` only (one forward substitution)."""
        return sla.solve_triangular(self.L, np.asarray(b, dtype=float),
                                    lower=True)

    def diag_condition(self) -> float:
        """Cheap condition estimate: ``(max diag(L) / min diag(L))²``.

        The true 2-norm condition number is bounded below by this ratio;
        it is exact for diagonal matrices and a standard O(n) trigger for
        refactorization in updated factors.
        """
        d = np.abs(np.diag(self.L))
        lo = float(d.min())
        if lo == 0.0:
            return np.inf
        return float((d.max() / lo) ** 2)

    # ------------------------------------------------------------------
    def update(self, v: np.ndarray) -> None:
        """Rank-one update: refactor ``M + v vᵀ`` in place (O(n²)).

        Uses the LINPACK ``dchud`` Givens sweep; an update of a positive
        definite matrix is always positive definite, so this cannot fail.
        """
        L = self.L
        v = np.asarray(v, dtype=float).copy()
        n = self.n
        for k in range(n):
            lkk = L[k, k]
            r = float(np.hypot(lkk, v[k]))
            c = r / lkk
            s = v[k] / lkk
            L[k, k] = r
            if k + 1 < n:
                L[k + 1:, k] = (L[k + 1:, k] + s * v[k + 1:]) / c
                v[k + 1:] = c * v[k + 1:] - s * L[k + 1:, k]

    def downdate(self, v: np.ndarray) -> None:
        """Rank-one downdate: refactor ``M − v vᵀ`` in place (O(n²)).

        Raises :class:`FactorizationError` — leaving the factor untouched
        — when the downdated matrix is indefinite or numerically on the
        edge; callers should then refactorize the explicit matrix.
        """
        L = self.L.copy()
        v = np.asarray(v, dtype=float).copy()
        n = self.n
        for k in range(n):
            lkk = L[k, k]
            r2 = lkk * lkk - v[k] * v[k]
            if r2 <= (self._PIVOT_RTOL * lkk) ** 2 or not np.isfinite(r2):
                raise FactorizationError(
                    "rank-one downdate leaves the matrix indefinite "
                    f"(pivot {k}: {r2:.3e})")
            r = float(np.sqrt(r2))
            c = r / lkk
            s = v[k] / lkk
            L[k, k] = r
            if k + 1 < n:
                L[k + 1:, k] = (L[k + 1:, k] - s * v[k + 1:]) / c
                v[k + 1:] = c * v[k + 1:] - s * L[k + 1:, k]
        self.L = L

    # ------------------------------------------------------------------
    def append(self, col: np.ndarray, diag: float) -> None:
        """Extend the factor for the bordered matrix ``[[M, c], [cᵀ, d]]``.

        O(n²): one forward solve plus a square root.  Raises
        :class:`FactorizationError` when the bordered matrix is not
        positive definite (``c`` dependent on the existing rows).
        """
        col = np.asarray(col, dtype=float).ravel()
        if col.size != self.n:
            raise ValueError(f"border column must have {self.n} entries")
        w = self.solve_half(col) if self.n else np.zeros(0)
        d2 = float(diag) - float(w @ w)
        if d2 <= self._PIVOT_RTOL * max(abs(float(diag)), 1.0):
            raise FactorizationError(
                f"bordered extension is not positive definite ({d2:.3e})")
        n = self.n
        L_new = np.zeros((n + 1, n + 1))
        L_new[:n, :n] = self.L
        L_new[n, :n] = w
        L_new[n, n] = np.sqrt(d2)
        self.L = L_new

    def delete(self, index: int) -> None:
        """Remove row/column ``index`` from the factored matrix (O(n²)).

        Deleting a principal row/column of an SPD matrix keeps it SPD, so
        this cannot fail: the trailing block absorbs the removed column
        through a (always-definite) rank-one update.
        """
        n = self.n
        if not 0 <= index < n:
            raise ValueError(f"index {index} out of range for n={n}")
        L = self.L
        # Partition at the deleted index: the leading block and the
        # off-diagonal strip survive unchanged; the trailing factor must
        # absorb the deleted column l32 as a rank-one update.
        l32 = L[index + 1:, index].copy()
        keep = np.concatenate([np.arange(index), np.arange(index + 1, n)])
        L_new = L[np.ix_(keep, keep)].copy()
        self.L = L_new
        if l32.size:
            tail = UpdatableCholesky.__new__(UpdatableCholesky)
            tail.L = self.L[index:, index:]
            tail.update(l32)  # writes through the view

    def matrix(self) -> np.ndarray:
        """Reconstruct the factored matrix ``L Lᵀ`` (for validation)."""
        return self.L @ self.L.T


class IncrementalKKT:
    """Incrementally factored KKT stepper for the active-set QP.

    Solves, for the current working-set matrix ``A_w`` (equalities first,
    then active inequalities in insertion order)::

        minimize 0.5 pᵀ P p + gᵀ p   s.t.  A_w p = 0

    via the range-space method: with ``h = −P⁻¹ g`` and
    ``S = A_w P⁻¹ A_wᵀ``, the multipliers solve ``S λ = A_w h`` and the
    step is ``p = h − P⁻¹A_wᵀ λ``.  ``P`` is factored once; ``S`` is kept
    factored across working-set changes through bordered extensions
    (constraint enters) and deletions (constraint leaves), each O(n²+m²).

    ``updates`` counts incremental O(n²) working-set changes;
    ``refactorizations`` counts from-scratch rebuilds of the ``S`` factor
    (initial build, condition-guard trips, recovery after a failed
    extension).  The ratio is the observable evidence that the
    incremental path engages.
    """

    def __init__(self, P: np.ndarray, cond_limit: float = 1e12) -> None:
        self._Pfac = UpdatableCholesky(P)
        self.cond_limit = float(cond_limit)
        self.updates = 0
        self.refactorizations = 0
        self._rows = np.zeros((0, self._Pfac.n))   # A_w, row-major
        self._B = np.zeros((self._Pfac.n, 0))      # P⁻¹ A_wᵀ, column per row
        self._S: UpdatableCholesky | None = None

    @property
    def n_rows(self) -> int:
        return self._rows.shape[0]

    def solve_P(self, b: np.ndarray) -> np.ndarray:
        """Solve ``P x = b`` against the cached factor."""
        return self._Pfac.solve(b)

    # ------------------------------------------------------------------
    def set_rows(self, rows: np.ndarray) -> None:
        """Refactor the Schur complement for a whole new working set.

        Raises :class:`FactorizationError` when the rows are (numerically)
        dependent — the caller should then use a dense fallback step.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self._Pfac.n)
        self.refactorizations += 1
        if rows.shape[0] == 0:
            self._rows = rows
            self._B = np.zeros((self._Pfac.n, 0))
            self._S = None
            return
        B = self._Pfac.solve(rows.T)
        S = rows @ B
        fac = UpdatableCholesky(S)  # may raise
        self._rows, self._B, self._S = rows, B, fac

    def add_row(self, a: np.ndarray) -> None:
        """Activate one constraint row (O(n²) bordered extension).

        On :class:`FactorizationError` (dependent row) the state is left
        unchanged and the error propagates.
        """
        a = np.asarray(a, dtype=float).ravel()
        b = self._Pfac.solve(a)
        if self.n_rows == 0:
            self._S = UpdatableCholesky([[float(a @ b)]])
        else:
            self._S.append(self._rows @ b, float(a @ b))  # may raise
        self._rows = np.vstack([self._rows, a])
        self._B = np.hstack([self._B, b[:, None]])
        self.updates += 1
        self._check_condition()

    def remove_row(self, pos: int) -> None:
        """Deactivate the constraint at position ``pos`` (O(m²))."""
        self._S.delete(pos)
        keep = [i for i in range(self.n_rows) if i != pos]
        self._rows = self._rows[keep]
        self._B = self._B[:, keep]
        if self.n_rows == 0:
            self._S = None
        self.updates += 1
        self._check_condition()

    def _check_condition(self) -> None:
        if self._S is not None and self._S.diag_condition() > self.cond_limit:
            # Drift guard: rebuild the Schur factor from the explicit
            # matrix.  May raise FactorizationError on true degeneracy,
            # which the solver turns into a dense fallback step.
            self.set_rows(self._rows)

    # ------------------------------------------------------------------
    def step(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p, λ)`` for the equality-constrained subproblem.

        One pass of iterative refinement (O(n²), same factors) follows the
        range-space solve: the Schur complement squares the conditioning
        of ``P``, and the refinement restores dense-KKT-level accuracy on
        the ill-scaled Hessians the softened MPC produces.
        """
        return self._solve_kkt(g, None)

    def equality_point(self, q: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimiser of ``0.5 xᵀPx + qᵀx`` subject to ``A_w x = b``.

        The same range-space solve as :meth:`step` with a nonzero
        right-hand side: ``h = −P⁻¹q``, ``S λ = A_w h − b``,
        ``x = h − P⁻¹A_wᵀ λ``, then one refinement pass — O(n²) on the
        current factors.  The active-set QP uses it to turn a previous
        optimal working set into a start point once the right-hand sides
        have moved.
        """
        return self._solve_kkt(q, np.asarray(b, dtype=float))[0]

    def _solve_kkt(self, g: np.ndarray, b: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Solve ``P x + A_wᵀλ = −g``, ``A_w x = b`` (``b = 0`` when None)."""
        g = np.asarray(g, dtype=float)
        h = self._Pfac.solve(-g)
        if self.n_rows == 0:
            return h, np.empty(0)
        A, B = self._rows, self._B
        Ah = A @ h
        lam = self._S.solve(Ah if b is None else Ah - b)
        p = h - B @ lam
        # Refinement: residuals of  P p + Aᵀλ = −g,  A p = b.
        Pp = self._Pfac.L @ (self._Pfac.L.T @ p)
        res1 = Pp + g + A.T @ lam
        res2 = A @ p
        if b is not None:
            res2 = res2 - b
        h2 = self._Pfac.solve(-res1)
        dlam = self._S.solve(A @ h2 + res2)
        p = p + h2 - B @ dlam
        lam = lam + dlam
        return p, lam


class KKTFactorCache:
    """Reusable :class:`IncrementalKKT` state across active-set solves.

    In a receding-horizon loop consecutive QPs share ``(P, A_eq,
    A_ineq)`` — only the right-hand sides move — and the warm-started
    working set usually matches the previous optimum's exactly.  Caching
    the factored KKT object then skips both the O(n³) Cholesky of ``P``
    *and* the Schur-complement rebuild: a warm solve does no
    factorization work at all, only O(n²) updates when the active set
    actually drifts.  Matrices are compared by value (O(n²) — negligible
    against refactorization), so callers need not track identity.

    A hit hands the factored object over to the caller and empties the
    cache until the next :meth:`store`: the solver mutates the factors as
    its working set moves, so a solve that ends without storing (an
    exception, a degenerate final working set) must not leave factors
    behind whose rows no longer match the cached row key.
    """

    def __init__(self) -> None:
        self._P: np.ndarray | None = None
        self._A_eq: np.ndarray | None = None
        self._A_ineq: np.ndarray | None = None
        self._kkt: IncrementalKKT | None = None
        self._rows_key: tuple | None = None
        self.hits = 0
        self.misses = 0

    def lookup(self, P: np.ndarray, A_eq: np.ndarray, A_ineq: np.ndarray
               ) -> tuple[IncrementalKKT, tuple] | None:
        """Take ``(kkt, rows_key)`` out when the problem matrices match."""
        if (self._kkt is not None
                and self._P.shape == P.shape and np.array_equal(self._P, P)
                and self._A_eq.shape == A_eq.shape
                and np.array_equal(self._A_eq, A_eq)
                and self._A_ineq.shape == A_ineq.shape
                and np.array_equal(self._A_ineq, A_ineq)):
            self.hits += 1
            kkt, self._kkt = self._kkt, None
            return kkt, self._rows_key
        self.misses += 1
        return None

    def store(self, P: np.ndarray, A_eq: np.ndarray, A_ineq: np.ndarray,
              kkt: IncrementalKKT, rows_key: tuple) -> None:
        self._P = P.copy()
        self._A_eq = A_eq.copy()
        self._A_ineq = A_ineq.copy()
        self._kkt = kkt
        self._rows_key = rows_key


class MPCConstraintOperator:
    """Matrix-free condensed-MPC constraint stack over ΔU.

    Row order matches the dense stack built by
    ``ModelPredictiveController._constraint_structure`` followed by
    ``boxed_constraints``: first the equality block (per step ``i``:
    ``A_eq @ T_i``), then the inequality block (per step ``i``:
    ``A_ineq @ T_i``, ``−T_i`` (lower bound), ``T_i`` (upper bound),
    ``E_i`` and ``−E_i`` (increment limit)), where ``T_i`` sums the first
    ``i+1`` increment blocks.  Applying the stack therefore reduces to a
    cumulative sum over increment blocks and one batched per-step matmul.

    Parameters mirror the normalized constraint structure: ``A_eq`` /
    ``A_ineq`` are per-step matrices (or None), the booleans say which
    bound/limit row groups are present.
    """

    def __init__(self, horizon_ctrl: int, n_inputs: int,
                 A_eq: np.ndarray | None = None,
                 A_ineq: np.ndarray | None = None,
                 has_lower: bool = False, has_upper: bool = False,
                 has_du_limit: bool = False) -> None:
        self.horizon_ctrl = int(horizon_ctrl)
        self.n_inputs = int(n_inputs)
        self.A_eq = (np.atleast_2d(np.asarray(A_eq, dtype=float))
                     if A_eq is not None else None)
        self.A_ineq = (np.atleast_2d(np.asarray(A_ineq, dtype=float))
                       if A_ineq is not None else None)
        self.has_lower = bool(has_lower)
        self.has_upper = bool(has_upper)
        self.has_du_limit = bool(has_du_limit)
        nu = self.n_inputs
        self.m_eq_step = 0 if self.A_eq is None else self.A_eq.shape[0]
        self.m_in_step = (
            (0 if self.A_ineq is None else self.A_ineq.shape[0])
            + (nu if self.has_lower else 0) + (nu if self.has_upper else 0)
            + (2 * nu if self.has_du_limit else 0))
        self.m_eq = self.m_eq_step * self.horizon_ctrl
        self.m_in = self.m_in_step * self.horizon_ctrl

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m_eq + self.m_in, self.horizon_ctrl * self.n_inputs)

    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` without materializing ``A``."""
        nu, H = self.n_inputs, self.horizon_ctrl
        U = np.asarray(x, dtype=float).reshape(H, nu)
        Ucum = np.cumsum(U, axis=0)
        parts = []
        if self.A_eq is not None:
            parts.append((Ucum @ self.A_eq.T).ravel())
        step_cols = []
        if self.A_ineq is not None:
            step_cols.append(Ucum @ self.A_ineq.T)
        if self.has_lower:
            step_cols.append(-Ucum)
        if self.has_upper:
            step_cols.append(Ucum)
        if self.has_du_limit:
            step_cols.append(U)
            step_cols.append(-U)
        if step_cols:
            parts.append(np.hstack(step_cols).ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ v`` without materializing ``A``."""
        nu, H = self.n_inputs, self.horizon_ctrl
        v = np.asarray(v, dtype=float).ravel()
        v_eq = v[:self.m_eq].reshape(H, self.m_eq_step)
        v_in = v[self.m_eq:].reshape(H, self.m_in_step)
        # Per-step pull-back into increment-cumulative space.
        s = np.zeros((H, nu))
        if self.A_eq is not None:
            s += v_eq @ self.A_eq
        col = 0
        if self.A_ineq is not None:
            k = self.A_ineq.shape[0]
            s += v_in[:, col:col + k] @ self.A_ineq
            col += k
        if self.has_lower:
            s -= v_in[:, col:col + nu]
            col += nu
        if self.has_upper:
            s += v_in[:, col:col + nu]
            col += nu
        # T_iᵀ spreads step i's pull-back over blocks 0..i: reverse cumsum.
        out = np.cumsum(s[::-1], axis=0)[::-1].copy()
        if self.has_du_limit:
            out += v_in[:, col:col + nu]
            out -= v_in[:, col + nu:col + 2 * nu]
        return out.ravel()

    # ------------------------------------------------------------------
    def gram(self) -> np.ndarray:
        """Assemble ``AᵀA`` from the prefix block pattern.

        The cumulative rows contribute ``(β₂ − max(b,c)) · W`` to block
        ``(b, c)`` with ``W`` the per-step Gram; the increment-limit rows
        add ``2·I`` to each diagonal block.  O(β₂²·nu²) writes plus one
        per-step Gram product — no (m × n) intermediate.
        """
        nu, H = self.n_inputs, self.horizon_ctrl
        W = np.zeros((nu, nu))
        if self.A_eq is not None:
            W += self.A_eq.T @ self.A_eq
        if self.A_ineq is not None:
            W += self.A_ineq.T @ self.A_ineq
        if self.has_lower:
            W += np.eye(nu)
        if self.has_upper:
            W += np.eye(nu)
        counts = H - np.maximum.outer(np.arange(H), np.arange(H))
        G = np.kron(counts, W)
        if self.has_du_limit:
            G += 2.0 * np.eye(H * nu)
        return G

    def to_dense(self) -> np.ndarray:
        """Materialize the stack (row order documented above)."""
        n = self.horizon_ctrl * self.n_inputs
        cols = np.eye(n)
        return np.column_stack([self.matvec(cols[:, j]) for j in range(n)])

    def bounds_rows(self) -> tuple[int, int]:
        """(equality rows, inequality rows) — for aligning ``l``/``u``."""
        return self.m_eq, self.m_in
