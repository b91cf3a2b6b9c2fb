"""One model instantiation: equations 1–5 and 8 of the paper (§III-B).

A :class:`ContentionModel` predicts, for every number ``n`` of
computing cores on one socket:

* the total memory bandwidth the system can support, ``T(n)`` (Eq. 1);
* how that total splits between computations, ``B_comp_par(n)``
  (Eq. 3), and communications, ``B_comm_par(n)`` (Eq. 4), including the
  interpolated degradation factor ``α(n)`` (Eq. 5);
* the bandwidth of computations running *alone*, ``B_comp_seq(n)``
  (Eq. 8).

The implementation follows the equations literally — including the
behaviour the paper itself flags as imperfect (e.g. the split "more in
favour of computations as in reality" before the threshold): the whole
point of the evaluation is to measure those imperfections against the
simulated ground truth.

Since the vectorized-evaluation PR, all values are served by the
memoized array layer (:mod:`repro.core.evaluation`): scalar queries are
O(1) table lookups after the first call (the saturation-frontier scan
runs once per parameter set, not once per ``alpha_factor`` call), and
:meth:`ContentionModel.sweep` is pure array indexing.  The one-``n``-
at-a-time reference implementation lives on as
:class:`repro.core.oracle.ScalarOracle`, which the tests hold this
class bit-for-bit equal to.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import as_core_counts, evaluator_for
from repro.core.parameters import ModelParameters
from repro.errors import ModelError

__all__ = ["ContentionModel"]


class ContentionModel:
    """Evaluates the paper's equations for one parameter set."""

    def __init__(self, params: ModelParameters) -> None:
        self._p = params
        self._eval = evaluator_for(params)

    @property
    def params(self) -> ModelParameters:
        return self._p

    # ---- equation 1 -----------------------------------------------------------

    def total_bandwidth(self, n: int) -> float:
        """``T(n)`` — total bandwidth the memory system supports (Eq. 1).

        The linear branches are evaluated literally, with a floor at
        zero: far beyond the measured range the declining branch would
        otherwise predict negative bandwidth, which is meaningless.
        """
        self._check_n(n)
        return self._eval.scalar("total", int(n))

    # ---- equation 2 -----------------------------------------------------------

    def requested_bandwidth(self, n: int) -> float:
        """``R(n)`` — bandwidth needed to satisfy everyone (Eq. 2).

        ``n`` cores at their solo rate plus the communications'
        guaranteed minimum.
        """
        p = self._p
        self._check_n(n)
        return n * p.b_comp_seq + p.alpha * p.b_comm_seq

    def saturated(self, n: int) -> bool:
        """True when the requested bandwidth no longer fits (``R(n) >= T(n)``)."""
        return self.requested_bandwidth(n) >= self.total_bandwidth(n)

    # ---- equation 5 -----------------------------------------------------------

    def alpha_factor(self, n: int) -> float:
        """``α(n)`` — communication degradation factor (Eq. 5).

        Interpolates linearly between the last unsaturated core count
        ``i`` (where communications still fit) and ``n_seq_max`` (where
        they are down to the guaranteed minimum ``α``).  ``i`` is cached
        on the parameter set, so repeated queries do not re-scan.
        """
        self._check_n(n)
        return self._eval.alpha_scalar(int(n))

    def _last_unsaturated(self) -> int | None:
        """``i = max{j | R(j) < T(j)}`` over 0..n_seq_max (cached)."""
        return self._eval.last_unsaturated

    # ---- equations 3 and 4 ------------------------------------------------------

    def comp_parallel(self, n: int) -> float:
        """``B_comp_par(n)`` — computation bandwidth under overlap (Eq. 3)."""
        self._check_n(n)
        return self._eval.scalar("comp_par", int(n))

    def comm_parallel(self, n: int) -> float:
        """``B_comm_par(n)`` — communication bandwidth under overlap (Eq. 4)."""
        self._check_n(n)
        return self._eval.scalar("comm_par", int(n))

    # ---- equation 8 -----------------------------------------------------------

    def comp_alone(self, n: int) -> float:
        """``B_comp_seq(n)`` — computation bandwidth without communications (Eq. 8)."""
        self._check_n(n)
        return self._eval.scalar("comp_alone", int(n))

    def comm_alone(self) -> float:
        """Communication bandwidth without computations (the ``B_comm_seq`` parameter)."""
        return self._p.b_comm_seq

    @property
    def b_comm_seq(self) -> float:
        """:meth:`comm_alone` under the name placement sides share."""
        return self._p.b_comm_seq

    # ---- vectorised sweeps -------------------------------------------------------

    def sweep(self, core_counts: "np.ndarray | list[int]") -> dict[str, np.ndarray]:
        """Evaluate all curves over ``core_counts``.

        Returns arrays keyed ``total``, ``comp_par``, ``comm_par``,
        ``comp_alone`` — the four series of one subplot in the paper's
        figures.  Core counts must be integral (integral floats are
        accepted); non-integral values raise :class:`ModelError` rather
        than being truncated.
        """
        ns = as_core_counts(core_counts, error=ModelError)
        return self._eval.sweep(ns)

    # ---- helpers --------------------------------------------------------------

    @staticmethod
    def _check_n(n: int) -> None:
        if not isinstance(n, (int, np.integer)):
            raise ModelError(f"core count must be an integer, got {n!r}")
        if n < 0:
            raise ModelError(f"core count must be >= 0, got {n}")
