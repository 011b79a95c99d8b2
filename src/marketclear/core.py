"""Generic excess-supply maps and the coordinate-update solver engine.

A market-clearing problem is written as ``Q(p) = 0`` where ``Q`` maps a
labeled price vector to a labeled excess vector, each coordinate ``Q_z``
nondecreasing in its own price and nonincreasing in the others (substitutes).
This module provides the labeled vector types, the map abstraction, scalar
root finding, Jacobi and Gauss-Seidel sweeps with optional damping, solve
traces, lattice helpers, linear map constructors, and sampling-based
structure checks.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InternalError,
    IrreducibilityViolation,
    MaxSweepsExceeded,
    NonFiniteResidual,
    ResponsivenessViolation,
)

Array = np.ndarray

_MAX_DOUBLINGS = 60

__all__ = [
    "Array",
    "PriceVector",
    "ExcessVector",
    "EquilibriumMap",
    "SolverOptions",
    "BracketOptions",
    "TraceRecord",
    "SolveTrace",
    "IsotonicityReport",
    "SetOrderReport",
    "is_subsolution",
    "is_supersolution",
    "smallest_root",
    "coordinate_update",
    "jacobi_sweep",
    "gauss_seidel_sweep",
    "solve",
    "meet",
    "join",
    "linear_map",
    "constant_aggregate_map",
    "perron_vector",
    "check_inverse_isotone",
    "check_m0_strong_set_order",
]


# ---------------------------------------------------------------------------
# Input validators shared by the market classes


def _labels(name: str, labels, count: int | None = None) -> tuple[str, ...]:
    """``labels`` as a tuple of strings, ``count`` of them when given, all
    distinct."""
    out = tuple(str(z) for z in labels)
    if count is not None and len(out) != count:
        raise ValueError(f"{name}: expected {count} labels, got {len(out)}")
    if len(set(out)) != len(out):
        raise ValueError(f"{name} must be unique")
    return out


def _finite_vector(
    name: str, value, count: int | None = None, positive: bool = False
) -> Array:
    """Read-only 1-D copy of ``value`` with finite entries: ``count`` of
    them when given, and strictly positive with ``positive``."""
    out = np.array(value, dtype=float).reshape(-1)
    if count is not None and out.size != count:
        raise ValueError(f"{name} must have length {count}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    if positive and not np.all(out > 0):
        raise ValueError(f"{name} must be strictly positive")
    out.setflags(write=False)
    return out


def _require_count(name: str, value, minimum: int = 1) -> None:
    """Refuse anything but an integer ``>= minimum`` (1 or 0), a float or
    bool included."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer")


def _finite_matrix(name: str, value, shape: tuple[int, int] | None = None) -> Array:
    """Read-only copy of a finite 2-D matrix, of ``shape`` when given."""
    out = np.array(value, dtype=float)
    if out.ndim != 2 or (shape is not None and out.shape != shape):
        of_shape = f" of shape {shape}" if shape else ""
        raise ValueError(f"{name} must be a 2-D matrix{of_shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Labeled vectors


@dataclass(frozen=True, eq=False)
class _LabeledVector:
    """A real vector with unique string labels per coordinate."""

    labels: tuple[str, ...]
    values: Array

    _require_finite = False

    def __post_init__(self):
        if self._require_finite:
            values = _finite_vector("values", self.values)
        else:
            values = np.array(self.values, dtype=float).reshape(-1)
            values.setflags(write=False)
        labels = _labels("labels", self.labels, values.size)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_pos", {z: i for i, z in enumerate(labels)})

    @classmethod
    def from_dict(cls, data: dict[str, float]):
        return cls(tuple(data.keys()), np.array(list(data.values()), float))

    def as_dict(self) -> dict[str, float]:
        return {z: float(v) for z, v in zip(self.labels, self.values)}

    def index(self, label: str) -> int:
        return self._pos[label]

    def __getitem__(self, label: str) -> float:
        return float(self.values[self._pos[label]])

    def __len__(self) -> int:
        return len(self.labels)

    def with_value(self, label: str, value: float):
        """Return a copy with one coordinate replaced."""
        values = self.values.copy()
        values[self._pos[label]] = value
        return type(self)(self.labels, values)

    @classmethod
    def _trusted(
        cls,
        labels: tuple[str, ...],
        pos: dict[str, int],
        values: Array,
        finite: bool = False,
    ):
        """Build from already validated ``labels``/``pos`` without copying.

        ``values`` must be a fresh 1-D float array of matching length that
        no one else writes to; it is frozen here. ``finite`` states that the
        caller has already checked every value, so the check is skipped.
        """
        if cls._require_finite and not finite and not np.all(np.isfinite(values)):
            raise ValueError("all values must be finite")
        values.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "_pos", pos)
        return out

    def leq(self, other: "_LabeledVector") -> bool:
        """Componentwise ``<=`` against a vector with the same labels."""
        _require_same_labels(self, other)
        return bool(np.all(self.values <= other.values))


class PriceVector(_LabeledVector):
    """Labeled price/payoff vector; all values must be finite."""

    _require_finite = True


class ExcessVector(_LabeledVector):
    """Labeled excess values of a map evaluation (may be non-finite)."""


def _require_same_labels(a: _LabeledVector, b: _LabeledVector) -> None:
    if a.labels != b.labels:
        raise ValueError("label sets differ")


def meet(p: PriceVector, q: PriceVector) -> PriceVector:
    """Componentwise minimum of two price vectors with equal labels."""
    _require_same_labels(p, q)
    return PriceVector(p.labels, np.minimum(p.values, q.values))


def join(p: PriceVector, q: PriceVector) -> PriceVector:
    """Componentwise maximum of two price vectors with equal labels."""
    _require_same_labels(p, q)
    return PriceVector(p.labels, np.maximum(p.values, q.values))


# ---------------------------------------------------------------------------
# The map abstraction


@dataclass(frozen=True, eq=False)
class EquilibriumMap:
    """An excess-supply map ``Q`` over a labeled coordinate set.

    Parameters
    ----------
    labels:
        Ordered coordinate identifiers.
    eval_values:
        Vectorized evaluator: values array -> excess array (pure function).
    update_value:
        Optional closed-form update ``(lo, hi, values) -> array`` of the
        ``hi - lo`` coordinates ``lo..hi-1``, each the smallest root of
        ``Q_z(pi, p_{-z}) = 0`` with the other prices read from ``values``.
        The range is one coordinate or one of ``blocks``; on a block the
        result must equal the one-wide calls bit for bit. Without it every
        update is bisected.
    residual_value:
        Optional fast per-coordinate residual ``(index, pi, values) -> float``,
        read only when ``residual_block`` is not set. Must reproduce
        ``eval_values`` bit-for-bit on its coordinate; when neither hook is
        set, the residual substitutes into a copy and calls ``eval_values``
        so consistency is automatic.
    residual_block:
        Optional batch of one-coordinate residuals ``(idx, probes, values)
        -> array``: entry ``r`` is the residual of coordinate ``idx[r]`` at
        price ``probes[r]``, every other price read from ``values``. Must
        equal ``eval_values`` with that one price substituted, bit for bit
        on every entry; ``residual_at`` is its one-entry call. Every
        bisection is a lockstep run (a Jacobi sweep, a whole block of a
        Gauss-Seidel sweep, or one lone coordinate) that sends each round of
        probes through it; without it a round loops ``residual_at``. On
        small runs a round also fetches the next few levels of each
        bisection ahead, some off the path ``smallest_root`` takes, so the
        hook sees a superset of the scalar probes in fewer calls; each
        coordinate's machine reads only the values on its own path, so
        roots are the same bits (see ``_lockstep_roots``).
    z_function, diagonal_isotone, m_function, m0_function:
        Declared structure flags. They are caller declarations, verified
        only by the sampling checks in this module.
    blocks:
        Optional split of the coordinates into consecutive ``(start, stop)``
        ranges whose coordinates never read each other's prices. A sweep
        updates a block in one ``update_value`` call, or bisects it in
        lockstep, whenever its visit order covers the whole block in one
        stretch.
    probe_cells:
        Optional positive integer: the kernel cells one ``residual_block``
        probe evaluates. It prices a lockstep round, so it sets how many
        bisection levels a round fetches ahead (``_speculation_depth``);
        without it every probe is priced alike. It never changes a root.
    """

    labels: tuple[str, ...]
    eval_values: Callable[[Array], Array]
    update_value: Callable[[int, int, Array], Sequence[float]] | None = None
    residual_value: Callable[[int, float, Array], float] | None = None
    z_function: bool = False
    diagonal_isotone: bool = False
    m_function: bool = False
    m0_function: bool = False
    blocks: tuple[tuple[int, int], ...] | None = None
    residual_block: Callable[[Array, Array, Array], Array] | None = None
    probe_cells: int | None = None

    def __post_init__(self):
        labels = _labels("labels", self.labels)
        if not labels:
            raise ValueError("an equilibrium map needs at least one coordinate")
        if self.probe_cells is not None:
            _require_count("probe_cells", self.probe_cells)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pos", {z: i for i, z in enumerate(labels)})
        if self.blocks is not None:
            blocks = tuple((int(lo), int(hi)) for lo, hi in self.blocks)
            edges = [0] + [hi for _, hi in blocks]
            if (
                [lo for lo, _ in blocks] != edges[:-1]
                or edges[-1] != len(labels)
                or any(hi < lo for lo, hi in blocks)
            ):
                raise ValueError(
                    "blocks must split the coordinates into consecutive ranges"
                )
            block_of = np.repeat(np.arange(len(blocks)), np.diff(edges))
            object.__setattr__(self, "blocks", blocks)
            object.__setattr__(self, "_block_of", block_of)
        runs = _visit_runs(self, range(len(labels)))
        object.__setattr__(self, "_runs", runs)
        # A bisection Jacobi sweep reads only its input: one lockstep run.
        whole = ((0, len(labels), tuple(range(len(labels)))),)
        object.__setattr__(
            self, "_frozen_runs", runs if self.update_value is not None else whole
        )
        # The last explicit sweep order and its runs.
        object.__setattr__(self, "_order_runs", (None, None))

    def index(self, label: str) -> int:
        return self._pos[label]

    def evaluate(self, p: PriceVector) -> ExcessVector:
        """Full evaluation ``Q(p)`` as an ExcessVector."""
        if p.labels != self.labels:
            raise ValueError("price vector labels do not match the map")
        return ExcessVector._trusted(self.labels, self._pos, self._excess(p.values))

    def _excess(self, values: Array) -> Array:
        # evaluate's checked array, for callers that hold matching labels.
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array(self.eval_values(values), dtype=float)
        if out.shape != values.shape:
            raise InternalError("evaluator returned a wrong-shaped excess")
        return out

    def residual(self, z: str, pi: float, p: PriceVector) -> float:
        """Single-coordinate residual ``Q_z(pi, p_{-z})``."""
        if p.labels != self.labels:
            raise ValueError("price vector labels do not match the map")
        return self.residual_at(self._pos[z], pi, p.values)

    def residual_at(self, i: int, pi: float, values: Array) -> float:
        if self.residual_block is not None:
            idx, probe = np.array([i], dtype=np.intp), np.array([pi], dtype=float)
            return float(self.residuals_at(idx, probe, values)[0])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.residual_value is not None:
                return float(self.residual_value(i, pi, values))
            vals = values.copy()
            vals[i] = pi
            return float(np.asarray(self.eval_values(vals))[i])

    def residuals_at(self, idx: Array, probes: Array, values: Array) -> Array:
        """``residual_at`` of each coordinate ``idx[r]`` at ``probes[r]``."""
        if self.residual_block is None:
            pairs = zip(np.asarray(idx).tolist(), np.asarray(probes).tolist())
            return np.array([self.residual_at(i, t, values) for i, t in pairs])
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(self.residual_block(idx, probes, values), dtype=float)
        if out.shape != (len(idx),):
            raise InternalError("residual block returned a wrong-shaped array")
        return out

    def _sweep_runs(self, order: Sequence[str] | None) -> tuple:
        """The runs of a Gauss-Seidel sweep in ``order`` (label order when
        empty). The last explicit order is validated and split once and
        kept, so a solve splits its order once."""
        if not order:
            return self._runs
        key = tuple(order)
        last, runs = self._order_runs
        if key != last:
            if sorted(key) != sorted(self.labels):
                raise ValueError("sweep_order must be a permutation of the map labels")
            runs = _visit_runs(self, [self._pos[z] for z in key])
            object.__setattr__(self, "_order_runs", (key, runs))
        return runs


# ---------------------------------------------------------------------------
# Options


@dataclass(frozen=True)
class BracketOptions:
    """Bracketing/bisection controls for scalar root finding."""

    initial_halfwidth: float = 1.0
    growth_factor: float = 2.0
    max_expansions: int = 60
    bisection_tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.initial_halfwidth < math.inf:
            raise ValueError("initial_halfwidth must be finite and > 0")
        if not 1 < self.growth_factor < math.inf:
            raise ValueError("growth_factor must be finite and > 1")
        _require_count("max_expansions", self.max_expansions)
        if not 0 < self.bisection_tol < math.inf:
            raise ValueError("bisection_tol must be finite and > 0")


@dataclass(frozen=True)
class SolverOptions:
    """Controls for sweeps and the solve driver."""

    residual_tol: float = 1e-10
    step_tol: float = 0.0
    max_sweeps: int = 10_000
    mode: str = "jacobi"
    sweep_order: tuple[str, ...] | None = None
    damping: float = 1.0
    root_finder: BracketOptions = field(default_factory=BracketOptions)

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise ValueError("residual_tol must be finite and > 0")
        if not 0 <= self.step_tol < math.inf:
            raise ValueError("step_tol must be finite and >= 0")
        _require_count("max_sweeps", self.max_sweeps)
        if self.mode not in ("jacobi", "gauss_seidel"):
            raise ValueError("mode must be 'jacobi' or 'gauss_seidel'")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


_DEFAULT_OPTIONS = SolverOptions()


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class TraceRecord:
    """State after one sweep (sweep 0 is the initial point)."""

    sweep: int
    prices: PriceVector
    residual_sup: float
    nondecreasing: bool
    nonincreasing: bool
    is_sub: bool
    is_super: bool


@dataclass
class SolveTrace:
    """Ordered per-sweep records of a solve run."""

    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def prices(self) -> list[PriceVector]:
        return [rec.prices for rec in self.records]

    def to_csv(self) -> str:
        """Render as CSV: ``sweep,<label>...,residual_sup,is_sub,is_super``."""
        if not self.records:
            raise ValueError("empty trace")
        labels = self.records[0].prices.labels
        lines = ["sweep," + ",".join(labels) + ",residual_sup,is_sub,is_super"]
        for rec in self.records:
            cells = [str(rec.sweep)]
            cells += [format(v, ".17g") for v in rec.prices.values]
            cells.append(format(rec.residual_sup, ".17g"))
            cells.append("true" if rec.is_sub else "false")
            cells.append("true" if rec.is_super else "false")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write(self.to_csv())


# ---------------------------------------------------------------------------
# Predicates


def _finite_excess(Q: EquilibriumMap, p: PriceVector) -> Array:
    out = Q.evaluate(p).values
    if not np.all(np.isfinite(out)):
        raise _nonfinite_excess(Q, out)
    return out


def _nonfinite_excess(Q: EquilibriumMap, out: Array) -> NonFiniteResidual:
    bad = Q.labels[int(np.flatnonzero(~np.isfinite(out))[0])]
    return NonFiniteResidual(f"residual at coordinate {bad!r} is non-finite")


def is_subsolution(Q: EquilibriumMap, p: PriceVector, tol: float = 0.0) -> bool:
    """True iff ``Q_z(p) <= tol`` for every coordinate."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return bool(np.all(_finite_excess(Q, p) <= tol))


def is_supersolution(Q: EquilibriumMap, p: PriceVector, tol: float = 0.0) -> bool:
    """True iff ``Q_z(p) >= -tol`` for every coordinate."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return bool(np.all(_finite_excess(Q, p) >= -tol))


# ---------------------------------------------------------------------------
# Root finding


def _bracket_steps(opts: BracketOptions, hint: float):
    """The bracket search of :func:`smallest_root` as a state machine: a
    generator that yields each probe, is sent the (non-NaN) value there,
    and returns ``(lo, hi, negative)`` or raises
    :class:`ResponsivenessViolation`. With ``negative``, ``f(lo) < 0 <=
    f(hi)`` and the root is the left edge of the zero set; otherwise
    ``f(lo) <= 0 < f(hi)`` and it is the boundary root."""
    h = opts.initial_halfwidth
    fh = yield hint
    if fh < 0:
        lo = hint
        hi = None
        for _ in range(opts.max_expansions):
            cand = hint + h
            if (yield cand) >= 0:
                hi = cand
                break
            lo = cand
            h *= opts.growth_factor
        if hi is None:
            raise ResponsivenessViolation(
                "no point with f >= 0 found above the hint"
            )
        return lo, hi, True
    # Search downward for a strictly negative value.
    hi = hint  # smallest known point with f >= 0
    pos_hi = hint if fh > 0 else None  # smallest known point with f > 0
    le_lo = hint if fh == 0 else None  # largest known point with f <= 0
    for _ in range(opts.max_expansions):
        cand = hint - h
        fc = yield cand
        if fc < 0:
            return cand, hi, True
        hi = cand
        if fc > 0:
            pos_hi = cand
        elif le_lo is None:
            le_lo = cand
        h *= opts.growth_factor
    if le_lo is None:
        raise ResponsivenessViolation(
            "no point with f <= 0 found below the hint"
        )
    # f reaches zero but never goes negative: the boundary root.
    if pos_hi is None:
        h = opts.initial_halfwidth
        for _ in range(opts.max_expansions):
            cand = hint + h
            fc = yield cand
            if fc > 0:
                pos_hi = cand
                break
            le_lo = cand
            h *= opts.growth_factor
        if pos_hi is None:
            raise ResponsivenessViolation(
                "f has no sign change on the searched range"
            )
    return le_lo, pos_hi, False


def _root_steps(opts: BracketOptions, hint: float, span: list):
    """The steps of :func:`smallest_root`: :func:`_bracket_steps`, then
    bisection on the predicate ``f < 0`` (``f <= 0`` for the boundary root)
    while the bracket is wider than ``bisection_tol`` and its midpoint
    lies strictly inside it. Once the bracket is found, the two-slot list
    ``span`` holds it as ``[lo, hi]``, so at each bisection probe it is the
    bracket that probe halves; it is left as given during the search."""
    lo, hi, negative = yield from _bracket_steps(opts, hint)
    span[:] = lo, hi
    tol = opts.bisection_tol
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = yield mid
        if fm < 0 or (fm == 0 and not negative):
            lo = span[0] = mid
        else:
            hi = span[1] = mid
    return hi if negative else lo


def _nan_probe(x: float) -> NonFiniteResidual:
    return NonFiniteResidual(f"f({x!r}) is NaN")


def smallest_root(
    f: Callable[[float], float],
    opts: BracketOptions | None = None,
    hint: float = 0.0,
) -> float:
    """Smallest zero of a nondecreasing continuous scalar function.

    Expands a bracket geometrically around ``hint`` until a sign change is
    found, then bisects on the predicate ``f(pi) < 0``, returning the left
    edge of the zero set (within ``bisection_tol``). When ``f`` touches zero
    without ever going negative, the boundary root ``sup{pi : f(pi) <= 0}``
    is returned instead. If no zero can be bracketed within the expansion
    budget, raises :class:`ResponsivenessViolation`; a NaN value raises
    :class:`NonFiniteResidual`; a non-finite ``hint`` raises ``ValueError``.
    The engine does not call it: every bisected coordinate runs the same
    machine (:func:`_root_steps`) in a lockstep run, which on small runs
    fetches several bisection levels ahead per round; each root is the same
    bits either way.
    """
    hint = float(hint)
    if not math.isfinite(hint):
        raise ValueError(f"hint must be finite, got {hint}")
    steps = _root_steps(opts or BracketOptions(), hint, [None, None])
    x = next(steps)
    while True:
        v = float(f(x))
        if math.isnan(v):
            raise _nan_probe(x)
        try:
            x = steps.send(v)
        except StopIteration as stop:
            return stop.value


def _subtree(lo: float, hi: float, tol: float, depth: int) -> list[float]:
    """The midpoints the bisection of ``[lo, hi]`` could probe in its next
    ``depth`` levels, in level order, the midpoint of ``[lo, hi]`` first.
    A span that fails the stop test of :func:`_root_steps` is not split."""
    # Breadth first: the loop visits the spans it appends, level by level.
    points, spans = [], [(lo, hi, depth)]
    for a, b, levels in spans:
        mid = 0.5 * (a + b)
        if b - a > tol and a < mid < b:
            points.append(mid)
            if levels > 1:
                spans += ((a, mid, levels - 1), (mid, b, levels - 1))
    return points


def _bracket_ahead(hint: float, h: float, tol: float, depth: int) -> list[float]:
    """A machine's first fetch: the hint, both first expansion probes
    ``hint -/+ h``, and the ``depth`` levels below either bracket the first
    expansion closes, ``[hint - h, hint]`` and ``[hint, hint + h]``."""
    below, above = hint - h, hint + h
    return [
        hint, below, above,
        *_subtree(below, hint, tol, depth), *_subtree(hint, above, tol, depth),
    ]


# The cost one lockstep round may carry, in kernel cells: a probe costs its
# map's probe_cells plus _PROBE_OVERHEAD, the lockstep loop's own work per
# probe (building the round, reading the values back, resuming the
# machine). A probe of a map that states no cells costs _UNPRICED_PROBE, so
# such a map carries 28 probes a round. Small maps pay mostly per round, and fewer,
# wider rounds win; on wide kernels a round's cost grows with its cells and
# wider rounds lose. Past _MAX_DEPTH levels the fetch ahead, which doubles
# with each level, measured slower even on the smallest maps (taxes 4x4
# Gauss-Seidel blocks, lone hedonic 4x4x4 coordinates).
_PROBE_OVERHEAD = 16
_UNPRICED_PROBE = 96
_ROUND_BUDGET = 28 * _UNPRICED_PROBE
_MAX_DEPTH = 4


def _speculation_depth(Q: EquilibriumMap, count: int) -> int:
    """Bisection levels a lockstep run of ``count`` coordinates fetches per
    round: 1 without ``residual_block`` (a batch is then a loop of
    evaluations), else the largest ``d`` up to ``_MAX_DEPTH`` whose
    ``count * (2**d - 1)`` probes cost at most ``_ROUND_BUDGET``, at least
    1."""
    if Q.residual_block is None:
        return 1
    if Q.probe_cells is None:
        cost = _UNPRICED_PROBE
    else:
        cost = Q.probe_cells + _PROBE_OVERHEAD
    probes = _ROUND_BUDGET // (max(count, 1) * cost)
    return min(_MAX_DEPTH, max(1, (probes + 1).bit_length() - 1))


def _lockstep_roots(
    Q: EquilibriumMap, idx: Sequence[int], values: Array, opts: SolverOptions
) -> tuple[Array, dict[int, Exception]]:
    """:func:`smallest_root` of every coordinate ``i`` in ``idx`` at once.

    Coordinate ``i`` runs its own :func:`_root_steps` machine on
    ``Q_i(pi, values_{-i}) = 0``, hinted at ``values[i]``. Each round sends
    the pending probe of every live machine through one ``Q.residuals_at``
    call. At depth ``d > 1`` (:func:`_speculation_depth`) a bisecting
    machine's pending probe is the first of the next ``d`` levels below its
    bracket (:func:`_subtree`), and the round fetches all of them; the
    machine is then sent the fetched values as it asks for them, and a
    probe that was not fetched waits for the next round. A machine's first
    round also fetches its bracket (:func:`_bracket_ahead`), so a machine
    whose first expansion closes it takes its first ``d`` bisection steps
    in round 1. So a round takes up to ``d`` bisection steps, while each
    machine reads exactly the values :func:`smallest_root` reads:
    speculation changes round counts, never a root, an error or which NaN
    is read. Returns the roots in ``idx`` order
    (NaN where a coordinate failed) and the error of each failed
    coordinate, for the caller to raise in its own visit order.
    """
    idx = np.asarray(idx, dtype=np.intp)
    depth = _speculation_depth(Q, idx.size)
    tol = opts.root_finder.bisection_tol
    roots = np.full(idx.size, np.nan)
    errors: dict[int, Exception] = {}
    coords = idx.tolist()
    spans = [[None, None] for _ in coords]
    machines = [
        _root_steps(opts.root_finder, float(values[i]), span)
        for i, span in zip(coords, spans)
    ]
    live = list(range(idx.size))
    probes = [next(m) for m in machines]
    first, h = True, opts.root_finder.initial_halfwidth
    while live:
        if depth == 1:
            res = Q.residuals_at(idx.take(live), np.array(probes), values).tolist()
        else:
            rows, batch_idx, batch = [], [], []
            for k, x in zip(live, probes):
                lo, hi = spans[k]
                if first:  # x is the hint
                    row = _bracket_ahead(x, h, tol, depth)
                else:
                    row = [x] if lo is None else _subtree(lo, hi, tol, depth)
                # The pending probe always goes, so every round moves on.
                if x not in row:
                    row = [x, *row]
                rows.append(row)
                batch_idx += [coords[k]] * len(row)
                batch += row
            got = iter(Q.residuals_at(
                np.array(batch_idx, dtype=np.intp), np.array(batch), values
            ).tolist())
            # zip stops at the end of a row, so each row takes its values.
            ahead = {k: dict(zip(row, got)) for k, row in zip(live, rows)}
            res = [ahead[k][x] for k, x in zip(live, probes)]
            first = False
        next_live, next_probes = [], []
        for k, x, v in zip(live, probes, res):
            if math.isnan(v):
                errors[coords[k]] = _nan_probe(x)
                continue
            try:
                x = machines[k].send(v)
                if depth > 1:
                    fetched = ahead[k]
                    while (v := fetched.get(x)) is not None:
                        if math.isnan(v):
                            raise _nan_probe(x)
                        x = machines[k].send(v)
                next_probes.append(x)
                next_live.append(k)
            except StopIteration as stop:
                roots[k] = stop.value
            except NonFiniteResidual as exc:
                errors[coords[k]] = exc
            except ResponsivenessViolation as exc:
                where = f"coordinate {Q.labels[coords[k]]!r}"
                errors[coords[k]] = ResponsivenessViolation(f"{where}: {exc}")
        live, probes = next_live, next_probes
    return roots, errors


def _double_until(passes, start, upward: bool) -> Array:
    """First passing probe of ``start, start ± 1, start ± 3, start ± 7, …``.

    ``passes`` maps an array of probes to a boolean array of the same shape,
    so every coordinate is searched at once and keeps the first probe at
    which it passes. Raises :class:`ResponsivenessViolation` when a
    coordinate still fails after ``_MAX_DOUBLINGS`` steps.
    """
    probe = np.array(start, dtype=float)
    found = np.full_like(probe, np.nan)
    step = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS + 1):
            found = np.where(np.isnan(found) & passes(probe), probe, found)
            if not np.isnan(found).any():
                return found
            probe = probe + step if upward else probe - step
            step *= 2.0
    raise ResponsivenessViolation(
        "could not construct a starting point by doubling"
    )


# ---------------------------------------------------------------------------
# Sweeps


def _update_at(
    Q: EquilibriumMap, i: int, values: Array, opts: SolverOptions
) -> float:
    # Callers hold np.errstate(over="ignore", invalid="ignore"), as for
    # _damp and _run_updates.
    if Q.update_value is not None:
        val = float(Q.update_value(i, i + 1, values)[0])
    else:
        roots, errors = _lockstep_roots(Q, (i,), values, opts)
        if errors:
            raise errors[i]
        val = float(roots[0])
    if not math.isfinite(val):
        raise NonFiniteResidual(f"coordinate {Q.labels[i]!r}: update is non-finite")
    return val


def coordinate_update(
    Q: EquilibriumMap,
    z: str,
    p: PriceVector,
    opts: SolverOptions | None = None,
) -> float:
    """Price solving ``Q_z(pi, p_{-z}) = 0`` (smallest root).

    Uses the map's closed-form update when one is registered, otherwise
    bracketed bisection hinted at the current ``p_z`` (a one-coordinate
    lockstep run).
    """
    opts = opts or _DEFAULT_OPTIONS
    if p.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    with np.errstate(over="ignore", invalid="ignore"):
        return _update_at(Q, Q.index(z), p.values, opts)


def _damp(old, new, damping: float):
    # Elementwise on scalars and arrays alike, so both paths round the same.
    # An overflow here is reported as NonFiniteResidual by the caller.
    if damping == 1.0:
        return new
    return old + damping * (new - old)


def _run_updates(
    Q: EquilibriumMap, lo: int, hi: int, values: Array, opts: SolverOptions
) -> tuple[Array, dict[int, Exception]]:
    """Updates of coordinates ``lo..hi-1`` from ``values``, none of which
    reads another's price: one ``update_value`` call, or lockstep bisection."""
    if Q.update_value is None:
        return _lockstep_roots(Q, range(lo, hi), values, opts)
    new = np.asarray(Q.update_value(lo, hi, values), dtype=float)
    if new.shape != (hi - lo,):
        raise InternalError("update_value returned a wrong-shaped array")
    return new, {}


def _damped_nonfinite(Q: EquilibriumMap, i: int) -> NonFiniteResidual:
    return NonFiniteResidual(f"coordinate {Q.labels[i]!r}: damped update non-finite")


def _raise_first(Q, visit, lo: int, new: Array, errors: dict, damped=None) -> None:
    """Raise as the per-coordinate loop would: at the first coordinate in
    visit order whose update failed or is non-finite, or else whose damped
    update is non-finite."""
    for i in visit:
        if i in errors:
            raise errors[i]
        if not math.isfinite(new[i - lo]):
            raise NonFiniteResidual(f"coordinate {Q.labels[i]!r}: update is non-finite")
        if damped is not None and not math.isfinite(damped[i - lo]):
            raise _damped_nonfinite(Q, i)


def _visit_runs(Q: EquilibriumMap, order: Sequence[int]) -> tuple:
    """Split a visit order into runs ``(lo, hi, visit)``.

    A stretch that visits a whole block ``lo..hi-1``, in any order inside
    it, is one run with ``visit`` the tuple of its coordinates in visit
    order: one ``update_value`` call, or without it one lockstep
    bisection. Every other coordinate ``i`` is a run ``(i, i + 1, i)`` of
    its own. A block can only be visited whole from its first coordinate in
    ``order``, so each block is tested once.
    """
    runs, tested, k = [], set(), 0
    while k < len(order):
        i = order[k]
        b = None if Q.blocks is None else int(Q._block_of[i])
        if b is not None and b not in tested:
            tested.add(b)
            lo, hi = Q.blocks[b]
            stretch = tuple(order[k:k + hi - lo])
            if sorted(stretch) == list(range(lo, hi)):
                runs.append((lo, hi, stretch))
                k += hi - lo
                continue
        runs.append((i, i + 1, i))
        k += 1
    return tuple(runs)


def _sweep(
    Q: EquilibriumMap,
    p: PriceVector,
    opts: SolverOptions,
    order: Sequence[str] | None,
    frozen: bool,
) -> PriceVector:
    """One sweep over ``order`` (the label order when ``None``), run by run.

    With ``frozen`` every update reads ``p`` and the damped step is taken
    once all updates are in (Jacobi); otherwise each run reads the values
    already updated and is damped at once (Gauss-Seidel). A frozen sweep of
    a map without ``update_value`` is one lockstep bisection over every
    coordinate, and a lone coordinate of such a map one lockstep run of its
    own. Failures raise at the coordinate the per-coordinate loop
    would name: Gauss-Seidel checks each update, then its damped step, in
    visit order; Jacobi checks every update before any damped step.
    """
    if p.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    runs = Q._frozen_runs if frozen else Q._sweep_runs(order)
    damping = opts.damping
    values = p.values.copy()
    read = p.values if frozen else values
    # One errstate for the whole sweep: overflow and NaN in the updates and
    # damped steps are checked below and raised as NonFiniteResidual.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, visit in runs:
            if isinstance(visit, int):
                new = _update_at(Q, lo, read, opts)
                if not frozen:
                    new = _damp(values[lo], new, damping)
                    if not math.isfinite(new):
                        raise _damped_nonfinite(Q, lo)
                values[lo] = new
            else:
                new, errors = _run_updates(Q, lo, hi, read, opts)
                step = new if frozen else _damp(values[lo:hi], new, damping)
                if not np.all(np.isfinite(step)):
                    _raise_first(Q, visit, lo, new, errors, None if frozen else step)
                values[lo:hi] = step
        if frozen and damping != 1.0:
            values = _damp(p.values, values, damping)
            if not np.all(np.isfinite(values)):
                raise _damped_nonfinite(Q, int(np.flatnonzero(~np.isfinite(values))[0]))
    # Every value was checked above.
    return PriceVector._trusted(p.labels, p._pos, values, finite=True)


def jacobi_sweep(
    Q: EquilibriumMap, p: PriceVector, opts: SolverOptions | None = None
) -> PriceVector:
    """One Jacobi sweep: every coordinate updated from the same ``p``.

    With damping ``d`` the result is ``p + d * (T(p) - p)`` where ``T`` is
    the coordinate-update operator; ``d = 1`` returns ``T(p)`` exactly.
    Each update reads only the frozen input vector, so evaluation order is
    immaterial; a map with block updates is updated one block at a time,
    and a map without closed-form updates bisects every coordinate in
    lockstep.
    """
    return _sweep(Q, p, opts or _DEFAULT_OPTIONS, None, frozen=True)


def gauss_seidel_sweep(
    Q: EquilibriumMap, p: PriceVector, opts: SolverOptions | None = None
) -> PriceVector:
    """One Gauss-Seidel sweep: coordinates updated sequentially in order.

    Each update sees the values already updated earlier in the sweep. The
    order is ``opts.sweep_order`` when given, else the map's label order.
    A stretch of the order that visits a whole block (the label order
    visits every block so) is updated in one ``update_value`` call, or
    bisected in lockstep; since a block's coordinates never read each other, the
    result is the same.
    """
    opts = opts or _DEFAULT_OPTIONS
    return _sweep(Q, p, opts, opts.sweep_order, frozen=False)


# ---------------------------------------------------------------------------
# Solve driver


def _record(
    Q: EquilibriumMap, sweep: int, p: PriceVector, prev: PriceVector | None
) -> TraceRecord:
    # _finite_excess without the ExcessVector or the label check (solve
    # checks p0's labels; every sweep keeps them). Over finite values, min
    # and max decide every all-coordinates test at once; NaN propagates
    # through both. Prices are finite, so a >= b exactly when a - b >= 0,
    # even when the difference overflows.
    excess = Q._excess(p.values)
    with np.errstate(over="ignore"):
        step = None if prev is None else p.values - prev.values
    lo, hi = float(excess.min()), float(excess.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _nonfinite_excess(Q, excess)
    return TraceRecord(
        sweep=sweep,
        prices=p,
        # Not max(hi, -lo), which can be -0.0.
        residual_sup=float(np.abs(excess).max()),
        nondecreasing=step is None or bool(step.min() >= 0.0),
        nonincreasing=step is None or bool(step.max() <= 0.0),
        is_sub=hi <= 0.0,
        is_super=lo >= 0.0,
    )


def solve(
    Q: EquilibriumMap, p0: PriceVector, opts: SolverOptions | None = None
) -> tuple[PriceVector, SolveTrace]:
    """Iterate sweeps from ``p0`` until the residual criterion is met.

    Returns the first iterate whose residual sup-norm is ``<= residual_tol``
    (or whose step is ``<= step_tol`` when that criterion is enabled),
    together with the trace of every sweep including the initial point as
    sweep 0. Raises :class:`MaxSweepsExceeded` (carrying the trace) when the
    budget runs out.
    """
    opts = opts or _DEFAULT_OPTIONS
    if p0.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    sweep_fn = jacobi_sweep if opts.mode == "jacobi" else gauss_seidel_sweep
    trace = SolveTrace()
    p = p0
    rec = _record(Q, 0, p, None)
    trace.records.append(rec)
    if rec.residual_sup <= opts.residual_tol:
        return p, trace
    for t in range(1, opts.max_sweeps + 1):
        p_next = sweep_fn(Q, p, opts)
        rec = _record(Q, t, p_next, p)
        trace.records.append(rec)
        if rec.residual_sup <= opts.residual_tol:
            return p_next, trace
        if opts.step_tol > 0 and float(
            np.max(np.abs(p_next.values - p.values))
        ) <= opts.step_tol:
            return p_next, trace
        p = p_next
    raise MaxSweepsExceeded(
        f"no convergence after {opts.max_sweeps} sweeps "
        f"(last residual sup-norm {rec.residual_sup:.3e})",
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Linear maps


def _default_labels(count: int, prefix: str = "z") -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def linear_map(A, labels: Sequence[str] | None = None) -> EquilibriumMap:
    """Map ``Q(p) = A p`` with structure flags derived from ``A``.

    Off-diagonal entries ``<= 0`` declare a Z-function; a nonnegative
    diagonal declares diagonal isotonicity; positive (nonnegative) column
    sums additionally declare an M-function (weak variant). A closed-form
    coordinate update is registered when every diagonal entry is positive.
    """
    A = _finite_matrix("A", A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    n = A.shape[0]
    labels = _labels("labels", _default_labels(n) if labels is None else labels, n)

    diag = np.diag(A)
    offdiag = A - np.diag(diag)
    z_flag = bool(np.all(offdiag <= 0))
    colsums = A.sum(axis=0)

    update = None
    if np.all(diag > 0):
        # Row i's arithmetic, on rows and pivots read out of A once.
        rows, pivots = list(A), diag.tolist()

        def update(lo: int, hi: int, values: Array) -> list[float]:
            out = []
            for i in range(lo, hi):
                others = float(rows[i] @ values) - pivots[i] * float(values[i])
                out.append(-others / pivots[i])
            return out

    return EquilibriumMap(
        labels=labels,
        eval_values=lambda v: A @ v,
        update_value=update,
        z_function=z_flag,
        diagonal_isotone=bool(np.all(diag >= 0)),
        m_function=z_flag and bool(np.all(colsums > 0)),
        m0_function=z_flag and bool(np.all(colsums >= 0)),
    )


def _validate_constant_aggregate(delta, A) -> tuple[Array, Array]:
    delta = _finite_vector("delta", delta, positive=True)
    A = _finite_matrix("A", A, (delta.size, delta.size))
    if not np.all(A >= 0) or np.any(np.diag(A) != 0):
        raise ValueError("A must be nonnegative with a zero diagonal")
    colsums = A.sum(axis=0)
    scale = np.maximum(1.0, np.abs(delta))
    if np.any(np.abs(delta - colsums) > 1e-12 * scale):
        raise ValueError("column sums of (diag(delta) - A) must vanish")
    return delta, A


def constant_aggregate_map(delta, A, labels: Sequence[str] | None = None) -> EquilibriumMap:
    """Map ``Q(p) = (diag(delta) - A) p`` whose aggregate ``1'Q`` is zero.

    ``delta`` is a positive diagonal, ``A`` nonnegative with zero diagonal,
    and the column sums of ``diag(delta) - A`` must vanish, which makes the
    map a weakly nonreversing Z-function with a one-dimensional kernel.
    """
    delta, A = _validate_constant_aggregate(delta, A)
    n = delta.size
    labels = _labels("labels", _default_labels(n) if labels is None else labels, n)
    M = np.diag(delta) - A

    rows, scales = list(A), delta.tolist()

    def update(lo: int, hi: int, values: Array) -> list[float]:
        out = []
        for i in range(lo, hi):
            out.append(float(rows[i] @ values) / scales[i])
        return out

    return EquilibriumMap(
        labels=labels,
        eval_values=lambda v: M @ v,
        update_value=update,
        z_function=True,
        diagonal_isotone=True,
        m_function=False,
        m0_function=True,
    )


def _strongly_connected(A: Array) -> bool:
    n = A.shape[0]
    adj = A > 0

    def reaches_all(matrix) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in np.flatnonzero(matrix[i]):
                if not seen[j]:
                    seen[j] = True
                    queue.append(int(j))
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def perron_vector(
    delta,
    A,
    *,
    tol: float = 1e-13,
    max_iter: int = 200_000,
) -> Array:
    """Positive vector ``v`` with ``(diag(delta) - A) v = 0``, sup-norm 1.

    Computed by power iteration on the half-shifted matrix
    ``(inv(diag(delta)) A + I) / 2`` (the shift suppresses periodic
    cycling). Requires the support of ``A`` to be strongly connected.
    """
    delta, A = _validate_constant_aggregate(delta, A)
    if not _strongly_connected(A):
        raise IrreducibilityViolation(
            "the support digraph of A is not strongly connected"
        )
    B = A / delta[:, None]
    n = delta.size
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = 0.5 * (B @ v + v)
        w = w / w.max()
        if float(np.max(np.abs(w - v))) <= tol:
            return w
        v = w
    raise InternalError("power iteration did not settle")


# ---------------------------------------------------------------------------
# Sampling-based structure checks


@dataclass(frozen=True)
class IsotonicityReport:
    """Outcome of an inverse-isotonicity sampling check."""

    samples: int
    comparable: int
    violations: tuple[tuple[PriceVector, PriceVector], ...]


class SetOrderReport(IsotonicityReport):
    """Outcome of a strong-set-order sampling check on the inverse."""


def _ordered_pairs(Q: EquilibriumMap, sample_count: int, rng_seed: int, box: float):
    """Draw ``sample_count`` i.i.d. uniform pairs ``(a, b)`` from ``[-box,
    box]`` per coordinate and yield ``(a, b, lo, hi, q_lo, q_hi)`` for each
    pair whose images are componentwise ordered: ``(lo, hi)`` is the pair
    sorted so that ``q_lo = Q(lo) <= Q(hi) = q_hi``."""
    _require_count("sample_count", sample_count, 0)
    rng = np.random.default_rng(rng_seed)
    n = len(Q.labels)
    for _ in range(sample_count):
        a = rng.uniform(-box, box, n)
        b = rng.uniform(-box, box, n)
        qa = np.asarray(Q.eval_values(a))
        qb = np.asarray(Q.eval_values(b))
        if np.all(qa <= qb):
            yield a, b, a, b, qa, qb
        elif np.all(qb <= qa):
            yield a, b, b, a, qb, qa


def check_inverse_isotone(
    Q: EquilibriumMap,
    sample_count: int,
    rng_seed: int,
    *,
    box: float = 3.0,
) -> IsotonicityReport:
    """Sample random pairs and test ``Q(p) <= Q(q)  =>  p <= q``.

    Draws i.i.d. uniform pairs from ``[-box, box]`` per coordinate; whenever
    the images are componentwise ordered, asserts the arguments are ordered
    the same way, recording each failing pair.
    """
    comparable = 0
    violations: list[tuple[PriceVector, PriceVector]] = []
    for _, _, lo, hi, _, _ in _ordered_pairs(Q, sample_count, rng_seed, box):
        comparable += 1
        if not np.all(lo <= hi):
            violations.append(
                (PriceVector(Q.labels, lo), PriceVector(Q.labels, hi))
            )
    return IsotonicityReport(sample_count, comparable, tuple(violations))


def check_m0_strong_set_order(
    Q: EquilibriumMap,
    sample_count: int,
    rng_seed: int,
    *,
    tol: float = 1e-9,
    box: float = 3.0,
) -> SetOrderReport:
    """Sample pairs and test the strong-set-order property of ``Q^{-1}``.

    Whenever ``Q(p) <= Q(q)`` componentwise, asserts
    ``Q(p meet q) = Q(p)`` and ``Q(p join q) = Q(q)`` within ``tol``.
    """
    comparable = 0
    violations: list[tuple[PriceVector, PriceVector]] = []
    for a, b, _, _, qlo, qhi in _ordered_pairs(Q, sample_count, rng_seed, box):
        comparable += 1
        q_meet = np.asarray(Q.eval_values(np.minimum(a, b)))
        q_join = np.asarray(Q.eval_values(np.maximum(a, b)))
        if (
            float(np.max(np.abs(q_meet - qlo))) > tol
            or float(np.max(np.abs(q_join - qhi))) > tol
        ):
            violations.append(
                (PriceVector(Q.labels, a), PriceVector(Q.labels, b))
            )
    return SetOrderReport(sample_count, comparable, tuple(violations))
