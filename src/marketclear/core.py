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

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
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
    """1-D copy of ``value`` with finite entries: ``count`` of them when
    given, and strictly positive with ``positive``."""
    out = np.array(value, dtype=float).reshape(-1)
    if count is not None and out.size != count:
        raise ValueError(f"{name} must have length {count}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    if positive and not np.all(out > 0):
        raise ValueError(f"{name} must be strictly positive")
    return out


def _require_count(name: str, value, minimum: int = 1) -> None:
    """Refuse anything but an integer ``>= minimum`` (1 or 0), a float or
    bool included."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer")


def _require_nonneg(name: str, value, positive: bool = False) -> None:
    """Refuse anything but a finite scalar ``>= 0`` (``> 0`` with
    ``positive``): a tolerance, a step or a sampling box. NaN is refused."""
    if not (0 < value < math.inf if positive else 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0")


def _finite_matrix(name: str, value, shape: tuple[int, int] | None = None) -> Array:
    """Copy of a finite 2-D matrix, of ``shape`` when given."""
    out = np.array(value, dtype=float)
    if out.ndim != 2 or (shape is not None and out.shape != shape):
        of_shape = f" of shape {shape}" if shape else ""
        raise ValueError(f"{name} must be a 2-D matrix{of_shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


class _Frozen:
    """Base of the frozen dataclasses; the one place that makes their
    arrays read-only. ``_set`` stores a dict of attributes past the frozen
    ``__setattr__`` and makes every ndarray among them read-only; a
    ``__post_init__`` stores its checked fields through it, and a class
    without one stores its fields as given. It runs only while a value is
    being built: a pickle, ``copy.copy`` and ``copy.deepcopy`` rebuild a
    value through its constructor from its field values (``__reduce__``),
    so a copy meets the same checks as the original, and a pickle that
    carries a state dict instead is refused (``__setstate__``). An array
    stored here must be one no one else writes to: a validator's copy, or
    one just computed."""

    def _set(self, attrs: dict) -> None:
        # One attribute at a time, not vars(self).update(attrs): that gives
        # the instance a dict of its own, on which every attribute read
        # takes about four times as long (CPython 3.11).
        store = object.__setattr__
        for name, value in attrs.items():
            if isinstance(value, Array):
                # write=False, passed by position: the keyword form takes
                # twice as long, and every sweep stores a PriceVector.
                value.setflags(False)
            store(self, name, value)

    def __post_init__(self):
        self._set({f.name: getattr(self, f.name) for f in fields(self)})

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __setstate__(self, state):
        # __reduce__ writes no state, so only a pickle from an older
        # marketclear gets here; loading it would skip every check.
        raise ValueError(
            f"refusing a {type(self).__name__} pickled as a state dict; "
            "rebuild it from its fields"
        )


# ---------------------------------------------------------------------------
# Labeled vectors


@dataclass(frozen=True, eq=False)
class _LabeledVector(_Frozen):
    """A real vector with unique string labels per coordinate."""

    labels: tuple[str, ...]
    values: Array

    _require_finite = False

    def __post_init__(self):
        if self._require_finite:
            values = _finite_vector("values", self.values)
        else:
            values = np.array(self.values, dtype=float).reshape(-1)
        labels = _labels("labels", self.labels, values.size)
        pos = {z: i for i, z in enumerate(labels)}
        self._set(dict(labels=labels, values=values, _pos=pos))

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
    def _trusted(cls, labels: tuple[str, ...], pos: dict[str, int], values: Array):
        """Build from already validated ``labels``/``pos`` without copying.

        ``values`` must be a fresh 1-D float array of matching length that
        no one else writes to, and finite where the class requires it (the
        caller checks); it is frozen here.
        """
        out = object.__new__(cls)
        # A dict display, not dict(...) or keywords: every sweep stores one.
        out._set({"labels": labels, "values": values, "_pos": pos})
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
class EquilibriumMap(_Frozen):
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
        on every entry; ``residual_at`` is its one-entry call. So with no
        price substituted, ``eval_values(values)[i]`` is the residual of
        coordinate ``i`` at ``values[i]``, and a Jacobi solve takes each
        bisection's value at its hint from the trace record's excess,
        without a probe. Every bisection is a lockstep run (a Jacobi sweep,
        a whole block of a Gauss-Seidel sweep, or one lone coordinate) that
        sends each round of probes through it; without it a round loops
        ``residual_at``. On small runs a round also fetches ahead: the
        bisection path to a predicted root in a Jacobi solve's first round,
        and once a coordinate's bracket is known the whole path to a secant
        estimate of its root, some of it off the path ``smallest_root``
        takes when the guess is wrong, so the hook sees a superset of the
        scalar probes in fewer calls; each coordinate's machine reads only
        the values on its own path, so roots are the same bits (see
        ``_lockstep_roots``).
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
        probe evaluates. It prices a lockstep round, so it decides whether
        a run fetches ahead at all (``_prefetches``); without it every probe
        is priced alike. It never changes a root.
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
        blocks = block_of = None
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
        pos = {z: i for i, z in enumerate(labels)}
        self._set(dict(labels=labels, _pos=pos, blocks=blocks, _block_of=block_of))
        runs = _visit_runs(self, range(len(labels)))
        # A bisection Jacobi sweep reads only its input: one lockstep run.
        whole = ((0, len(labels), tuple(range(len(labels)))),)
        self._set(dict(
            _runs=runs,
            _frozen_runs=runs if self.update_value is not None else whole,
        ))

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
        empty), which is checked to be a permutation of the labels."""
        if not order:
            return self._runs
        if sorted(order) != sorted(self.labels):
            raise ValueError("sweep_order must be a permutation of the map labels")
        return _visit_runs(self, [self._pos[z] for z in order])


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
        _require_nonneg("initial_halfwidth", self.initial_halfwidth, positive=True)
        if not 1 < self.growth_factor < math.inf:
            raise ValueError("growth_factor must be finite and > 1")
        _require_count("max_expansions", self.max_expansions)
        _require_nonneg("bisection_tol", self.bisection_tol, positive=True)


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
        _require_nonneg("residual_tol", self.residual_tol, positive=True)
        _require_nonneg("step_tol", self.step_tol)
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
    """True iff ``Q_z(p) <= tol`` for every coordinate; ``tol`` must be
    finite and ``>= 0``."""
    _require_nonneg("tol", tol)
    return bool(np.all(_finite_excess(Q, p) <= tol))


def is_supersolution(Q: EquilibriumMap, p: PriceVector, tol: float = 0.0) -> bool:
    """True iff ``Q_z(p) >= -tol`` for every coordinate; ``tol`` must be
    finite and ``>= 0``."""
    _require_nonneg("tol", tol)
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


def _next_mid(lo: float, hi: float, tol: float) -> float | None:
    """The next probe of the bisection of ``[lo, hi]``: its midpoint, or
    ``None`` once the bracket is no wider than ``tol`` or no float lies
    strictly inside it."""
    if hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lo < mid < hi:
            return mid
    return None


def _lands_low(v: float, negative: bool) -> bool:
    """Whether a bisection probe whose value is ``v`` becomes the bracket's
    lower end: ``f < 0``, or ``f <= 0`` for the boundary root."""
    return v < 0 or (v == 0 and not negative)


def _root_steps(opts: BracketOptions, hint: float):
    """The steps of :func:`smallest_root`: :func:`_bracket_steps`, then
    bisection of the bracket by :func:`_next_mid` and :func:`_lands_low`,
    the steps every lockstep machine takes too."""
    lo, hi, negative = yield from _bracket_steps(opts, hint)
    tol = opts.bisection_tol
    mid = _next_mid(lo, hi, tol)
    while mid is not None:
        if _lands_low((yield mid), negative):
            lo = mid
        else:
            hi = mid
        mid = _next_mid(lo, hi, tol)
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
    The engine does not call it: every bisected coordinate takes the same
    steps (:func:`_bracket_steps`, then :func:`_next_mid` and
    :func:`_lands_low`) in a lockstep run, which on small runs fetches
    each bisection's predicted path ahead in one round; each root is the
    same bits either way.
    """
    hint = float(hint)
    if not math.isfinite(hint):
        raise ValueError(f"hint must be finite, got {hint}")
    steps = _root_steps(opts or BracketOptions(), hint)
    x = next(steps)
    while True:
        v = float(f(x))
        if math.isnan(v):
            raise _nan_probe(x)
        try:
            x = steps.send(v)
        except StopIteration as stop:
            return stop.value


def _estimate(lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Regula falsi on the bracket ``[lo, hi]``, whose values
    ``f_lo <= 0 <= f_hi`` a machine has read, clamped to the bracket; its
    midpoint where the secant is undefined (infinite or NaN values)."""
    den = f_hi - f_lo
    r = lo - f_lo * ((hi - lo) / den) if den > 0 else math.nan
    if math.isnan(r):
        return 0.5 * (lo + hi)
    return min(max(r, lo), hi)


def _path(lo: float, hi: float, r: float, tol: float) -> list[float]:
    """The midpoints the bisection of ``[lo, hi]`` visits on its way to
    ``r``, in order, until :func:`_next_mid` stops at ``tol``: after each
    midpoint it keeps the half that holds ``r``, the upper one when the
    midpoint lies below ``r``."""
    points = []
    mid = _next_mid(lo, hi, tol)
    while mid is not None:
        points.append(mid)
        if mid < r:
            lo = mid
        else:
            hi = mid
        mid = _next_mid(lo, hi, tol)
    return points


# The price of a lockstep probe, in kernel cells: its map's probe_cells plus
# _PROBE_OVERHEAD, the lockstep loop's own work per probe (building the
# round, reading the values back, stepping the machine), or _UNPRICED_PROBE
# for a map that states no cells. A run prefetches while three probes per
# coordinate, a first round's width, cost at most _ROUND_BUDGET. Small maps
# pay mostly per round, and a few wide rounds win; on wide kernels (taxes
# 40x40, hedonic 10^3) a round's cost grows with its cells, and the plain
# round of one probe per coordinate wins.
_PROBE_OVERHEAD = 16
_UNPRICED_PROBE = 96
_ROUND_BUDGET = 28 * _UNPRICED_PROBE


def _prefetches(Q: EquilibriumMap, count: int) -> bool:
    """Whether a lockstep run of ``count`` coordinates fetches ahead: never
    without ``residual_block`` (a batch is then a loop of evaluations),
    else when ``3 * count`` probes cost at most ``_ROUND_BUDGET``."""
    if Q.residual_block is None:
        return False
    if Q.probe_cells is None:
        cost = _UNPRICED_PROBE
    else:
        cost = Q.probe_cells + _PROBE_OVERHEAD
    return 3 * max(count, 1) * cost <= _ROUND_BUDGET


def _lockstep_roots(
    Q: EquilibriumMap,
    idx: Sequence[int],
    values: Array,
    opts: SolverOptions,
    hints: tuple | None = None,
) -> tuple[Array, dict[int, Exception]]:
    """:func:`smallest_root` of every coordinate ``i`` in ``idx`` at once.

    Coordinate ``i`` takes the steps of :func:`smallest_root` on
    ``Q_i(pi, values_{-i}) = 0``, hinted at ``values[i]``: the bracket
    search :func:`_bracket_steps`, then bisection by :func:`_next_mid` and
    :func:`_lands_low`. Each round sends the probes of every live
    coordinate through one ``Q.residuals_at`` call: in a run that does not
    prefetch (:func:`_prefetches`), the pending probe of each coordinate's
    :func:`_root_steps` machine.

    ``hints``, from :func:`solve` in Jacobi mode, is ``(excess, guess)``:
    ``excess`` is ``Q(values)``, whose entry ``i`` is the value at coordinate
    ``i``'s hint bit for bit (the ``residual_block`` contract), so no
    machine probes its hint; ``guess`` is ``None`` or :func:`_predict`'s
    ``(roots, cuts)``.

    A run that prefetches fetches more. A first round without ``hints``
    fetches the hint and both first expansion probes ``hint -/+ h``. A
    first round with them fetches the one expansion probe the sign of the
    hint's value picks and, when the predicted root lies in the
    half-bracket between that probe and the hint, the bisection path of
    the half-bracket to it (:func:`_path`), cut where the bracket is no
    wider than the coordinate's cut. Once a machine has its bracket, a
    round fetches the whole bisection path to an estimate of its root
    (:func:`_estimate` on the bracket's values); otherwise its pending
    probe alone. Each machine reads the fetched values of the probes it
    asks for, in order, with no generator step and no stored value per
    bisection probe, and stops at the first fetched path probe it does not
    ask for; a probe that was not fetched waits for the next round. A
    right guess finishes a bisection in one round; a wrong one still
    leaves a narrower bracket for the next estimate. Each machine reads
    exactly the values :func:`smallest_root` reads (but the hint's, which
    ``hints`` gives): the prefetch changes round counts, never a root, an
    error or which NaN is read. Returns the roots in ``idx`` order (NaN
    where a coordinate failed) and the error of each failed coordinate,
    for the caller to raise in its own visit order.
    """
    idx = np.asarray(idx, dtype=np.intp)
    rf = opts.root_finder
    tol, h = rf.bisection_tol, rf.initial_halfwidth
    roots = np.full(idx.size, np.nan)
    errors: dict[int, Exception] = {}
    coords = idx.tolist()
    starts = values.take(idx).tolist()
    # The values at the hints, a round that needs no probe.
    got = None if hints is None else hints[0].take(idx).tolist()

    def fail(k: int, exc: Exception) -> None:
        if isinstance(exc, ResponsivenessViolation):
            exc = ResponsivenessViolation(f"coordinate {Q.labels[coords[k]]!r}: {exc}")
        errors[coords[k]] = exc

    if not _prefetches(Q, idx.size):
        # One probe a round: each machine is sent the value of its probe.
        search = [_root_steps(rf, hint) for hint in starts]
        live, probes = list(range(idx.size)), [next(m) for m in search]
        while live:
            if got is None:
                got = Q.residuals_at(idx.take(live), np.array(probes), values).tolist()
            next_live, next_probes = [], []
            for k, x, v in zip(live, probes, got):
                try:
                    if math.isnan(v):
                        raise _nan_probe(x)
                    next_probes.append(search[k].send(v))
                    next_live.append(k)
                except StopIteration as found:
                    roots[k] = found.value
                except (NonFiniteResidual, ResponsivenessViolation) as exc:
                    fail(k, exc)
            live, probes, got = next_live, next_probes, None
        return roots, errors

    # Machine k searches its bracket with the generator search[k], keeping
    # the values it reads in seen[k]; once the bracket is found, search[k]
    # is None and span[k] = [lo, hi, f(lo), f(hi), negative] is bisected.
    search = [_bracket_steps(rf, hint) for hint in starts]
    seen = [{} for _ in coords]
    span: list = [None] * idx.size

    def read(k: int, x: float, points, values_at: list) -> float | None:
        """Machine ``k``, pending at ``x``, reads the values ``values_at``
        of the fetched ``points`` that it asks for; returns its next probe,
        or ``None`` once it has its root."""
        pairs = zip(points, values_at)
        machine = search[k]
        # The bracket search asks for a subsequence of a first round's
        # probes (the hint, then hint - h or hint + h).
        while machine is not None:
            for t, v in pairs:
                if t == x:
                    break
            else:
                return x
            if math.isnan(v):
                raise _nan_probe(x)
            seen[k][x] = v
            try:
                x = machine.send(v)
            except StopIteration as found:
                lo, hi, negative = found.value
                span[k] = [lo, hi, seen[k][lo], seen[k][hi], negative]
                search[k] = machine = None
                x = _next_mid(lo, hi, tol)
        # Bisection reads the fetched path while it is its own.
        state = span[k]
        lo, hi, f_lo, f_hi, negative = state
        if x is not None:
            for t, v in pairs:
                if t != x:
                    break
                if v != v:  # NaN
                    raise _nan_probe(x)
                if _lands_low(v, negative):
                    lo, f_lo = x, v
                else:
                    hi, f_hi = x, v
                x = _next_mid(lo, hi, tol)
                if x is None:
                    break
            state[:4] = lo, hi, f_lo, f_hi
        if x is None:
            roots[k] = hi if negative else lo
        return x

    live, probes = list(range(idx.size)), [next(m) for m in search]
    if got is None:
        rows = [[x, x - h, x + h] for x in probes]
    else:
        rows = [(x,) for x in probes]
    # The predicted roots and first-path cuts, read by the round after the
    # hints.
    guess = cuts = None
    if hints is not None and hints[1] is not None:
        guess, cuts = (a.take(idx).tolist() for a in hints[1])
    while live:
        if got is None:
            counts = [len(row) for row in rows]
            got = Q.residuals_at(
                np.repeat(idx.take(live), counts),
                np.fromiter(itertools.chain.from_iterable(rows), float, sum(counts)),
                values,
            ).tolist()
        next_live, next_probes, start = [], [], 0
        for k, x, row in zip(live, probes, rows):
            end = start + len(row)
            try:
                x = read(k, x, row, got[start:end])
            except (NonFiniteResidual, ResponsivenessViolation) as exc:
                fail(k, exc)
                x = None
            start = end
            if x is not None:
                next_live.append(k)
                next_probes.append(x)
        live, probes, got = next_live, next_probes, None
        rows = []
        for k, x in zip(live, probes):
            if span[k] is not None:
                lo, hi, f_lo, f_hi, _ = span[k]
                row = _path(lo, hi, _estimate(lo, f_lo, hi, f_hi), tol)
                # The pending probe always goes, so every round moves on.
                if not row or row[0] != x:
                    row = [x, *row]
            else:
                row = [x]
                if guess is not None:
                    # The half-bracket between the hint and its one
                    # expansion probe x, to the predicted root.
                    lo, hi = min(x, starts[k]), max(x, starts[k])
                    if lo <= guess[k] <= hi:
                        row += _path(lo, hi, guess[k], max(tol, cuts[k]))
            rows.append(row)
        guess = None
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
    # Callers hold np.errstate(over="ignore", divide="ignore",
    # invalid="ignore"), as for _damp and _run_updates.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _update_at(Q, Q.index(z), p.values, opts)


def _damp(old, new, damping: float):
    # Elementwise on scalars and arrays alike, so both paths round the same.
    # An overflow here is reported as NonFiniteResidual by the caller.
    if damping == 1.0:
        return new
    return old + damping * (new - old)


def _run_updates(
    Q: EquilibriumMap,
    lo: int,
    hi: int,
    values: Array,
    opts: SolverOptions,
    hints: tuple | None = None,
) -> tuple[Array, dict[int, Exception]]:
    """Updates of coordinates ``lo..hi-1`` from ``values``, none of which
    reads another's price: one ``update_value`` call, or lockstep bisection
    (with ``hints``, see :func:`_lockstep_roots`)."""
    if Q.update_value is None:
        return _lockstep_roots(Q, range(lo, hi), values, opts, hints)
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
    runs: tuple,
    frozen: bool,
    hints: tuple | None = None,
) -> PriceVector:
    """One sweep over ``runs`` (from :func:`_visit_runs`), run by run.

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
    damping = opts.damping
    values = p.values.copy()
    read = p.values if frozen else values
    # One errstate for the whole sweep: overflow, log(0) and NaN in the
    # updates and damped steps are checked below and raised as
    # NonFiniteResidual.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo, hi, visit in runs:
            if isinstance(visit, int):
                new = _update_at(Q, lo, read, opts)
                if not frozen:
                    new = _damp(values[lo], new, damping)
                    if not math.isfinite(new):
                        raise _damped_nonfinite(Q, lo)
                values[lo] = new
            else:
                new, errors = _run_updates(Q, lo, hi, read, opts, hints)
                step = new if frozen else _damp(values[lo:hi], new, damping)
                if np.count_nonzero(np.isfinite(step)) < step.size:
                    _raise_first(Q, visit, lo, new, errors, None if frozen else step)
                values[lo:hi] = step
        if frozen and damping != 1.0:
            values = _damp(p.values, values, damping)
            if not np.all(np.isfinite(values)):
                raise _damped_nonfinite(Q, int(np.flatnonzero(~np.isfinite(values))[0]))
    # Every value was checked above.
    return PriceVector._trusted(p.labels, p._pos, values)


def jacobi_sweep(
    Q: EquilibriumMap,
    p: PriceVector,
    opts: SolverOptions | None = None,
    *,
    _hints: tuple | None = None,
) -> PriceVector:
    """One Jacobi sweep: every coordinate updated from the same ``p``.

    With damping ``d`` the result is ``p + d * (T(p) - p)`` where ``T`` is
    the coordinate-update operator; ``d = 1`` returns ``T(p)`` exactly.
    Each update reads only the frozen input vector, so evaluation order is
    immaterial; a map with block updates is updated one block at a time,
    and a map without closed-form updates bisects every coordinate in
    lockstep. (``_hints`` is :func:`solve`'s, for that lockstep run.)
    """
    return _sweep(Q, p, opts or _DEFAULT_OPTIONS, Q._frozen_runs, True, _hints)


def gauss_seidel_sweep(
    Q: EquilibriumMap,
    p: PriceVector,
    opts: SolverOptions | None = None,
    *,
    _runs: tuple | None = None,
) -> PriceVector:
    """One Gauss-Seidel sweep: coordinates updated sequentially in order.

    Each update sees the values already updated earlier in the sweep. The
    order is ``opts.sweep_order`` when given, else the map's label order.
    A stretch of the order that visits a whole block (the label order
    visits every block so) is updated in one ``update_value`` call, or
    bisected in lockstep; since a block's coordinates never read each other, the
    result is the same. An explicit order is checked and split on every
    call; :func:`solve` splits it once and passes the runs as ``_runs``.
    """
    opts = opts or _DEFAULT_OPTIONS
    if _runs is None:
        _runs = Q._sweep_runs(opts.sweep_order)
    return _sweep(Q, p, opts, _runs, frozen=False)


# ---------------------------------------------------------------------------
# Solve driver


def _record(
    Q: EquilibriumMap,
    sweep: int,
    p: PriceVector,
    prev: PriceVector | None,
    excess: Array,
) -> TraceRecord:
    # _finite_excess without the ExcessVector or the label check (solve
    # checks p0's labels; every sweep keeps them), on excess = Q._excess(p).
    # Over finite values, min and max decide every all-coordinates test at
    # once and give the sup-norm; NaN propagates through both. Prices are
    # finite, so no comparison of two of them meets a NaN.
    lo, hi = float(excess.min()), float(excess.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _nonfinite_excess(Q, excess)
    return TraceRecord(
        sweep=sweep,
        prices=p,
        # + 0.0 turns -0.0 into the 0.0 that abs() would give.
        residual_sup=max(hi, -lo) + 0.0,
        # count_nonzero: one C call, where .any() takes three times as long.
        nondecreasing=prev is None or not np.count_nonzero(p.values < prev.values),
        nonincreasing=prev is None or not np.count_nonzero(p.values > prev.values),
        is_sub=hi <= 0.0,
        is_super=lo >= 0.0,
    )


# A first path stops where its bracket is no wider than _CUT times the error
# of the coordinate's last prediction: below that the path to this sweep's
# prediction has most likely left the root's.
_CUT = 0.25


def _predict(
    Q: EquilibriumMap, values: Array, steps: tuple[Array, ...], guess
) -> tuple[Array, Array]:
    """The predicted roots of the Jacobi sweep from ``values``, and the
    width at which each coordinate's first path stops.

    ``steps`` holds the last two or three steps, newest first. A coordinate
    that converges linearly repeats its last ratio of steps, so the root is
    predicted at ``values + s0 * (s0 / s1)`` (Aitken's extrapolation). On a
    map split into two blocks each block is updated from the other, so the
    sweep's linear part is bipartite and its rates come in pairs ``+-l``:
    there steps two apart keep the ratio ``l**2``, and with three steps the
    root is predicted at ``values + s1 * (s0 / s2)``. A step of 0, or one
    that overflows, gives a NaN or infinite root, for which no path is
    fetched. The cut is ``_CUT`` times the error of the last prediction
    ``guess`` (0 where there was none).
    """
    s0, s1 = steps[:2]
    with np.errstate(all="ignore"):
        if len(steps) == 3 and Q.blocks is not None and len(Q.blocks) == 2:
            roots = values + s1 * (s0 / steps[2])
        else:
            roots = values + s0 * (s0 / s1)
        if guess is None:
            cuts = np.zeros_like(values)
        else:
            cuts = _CUT * np.abs(values - guess[0])
            cuts[~np.isfinite(cuts)] = 0.0
    return roots, cuts


def solve(
    Q: EquilibriumMap, p0: PriceVector, opts: SolverOptions | None = None
) -> tuple[PriceVector, SolveTrace]:
    """Iterate sweeps from ``p0`` until the residual criterion is met.

    Returns the first iterate whose residual sup-norm is ``<= residual_tol``
    (or whose step is ``<= step_tol`` when that criterion is enabled),
    together with the trace of every sweep including the initial point as
    sweep 0. Raises :class:`MaxSweepsExceeded` (carrying the trace) when the
    budget runs out.

    A Jacobi sweep that bisects hands its lockstep run the trace record's
    excess, the values at every hint, and (undamped) each coordinate's
    root predicted from its last steps (:func:`_predict`). They save hook
    calls; every iterate keeps its bits. A Gauss-Seidel solve checks and
    splits its ``sweep_order`` once and hands the runs to every sweep.
    """
    opts = opts or _DEFAULT_OPTIONS
    if p0.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    jacobi = opts.mode == "jacobi"
    hinted = jacobi and Q.update_value is None
    predicts = hinted and opts.damping == 1.0
    trace = SolveTrace()
    p = p0
    excess = Q._excess(p.values)
    rec = _record(Q, 0, p, None, excess)
    trace.records.append(rec)
    if rec.residual_sup <= opts.residual_tol:
        return p, trace
    steps, guess = (), None
    runs = None if jacobi else Q._sweep_runs(opts.sweep_order)
    for t in range(1, opts.max_sweeps + 1):
        # The module-level names, so that a wrapper sees each sweep.
        if jacobi:
            hints = (excess, guess) if hinted else None
            p_next = jacobi_sweep(Q, p, opts, _hints=hints)
        else:
            p_next = gauss_seidel_sweep(Q, p, opts, _runs=runs)
        excess = Q._excess(p_next.values)
        rec = _record(Q, t, p_next, p, excess)
        trace.records.append(rec)
        if rec.residual_sup <= opts.residual_tol:
            return p_next, trace
        if opts.step_tol > 0 and float(
            np.max(np.abs(p_next.values - p.values))
        ) <= opts.step_tol:
            return p_next, trace
        if predicts:
            with np.errstate(over="ignore", invalid="ignore"):
                steps = (p_next.values - p.values, *steps[:2])
            if len(steps) > 1:
                guess = _predict(Q, p_next.values, steps, guess)
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
    adj = A > 0

    def reaches_all(matrix) -> bool:
        seen = np.zeros(len(matrix), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = matrix[frontier].any(axis=0) & ~seen
            seen |= frontier
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
    sorted so that ``q_lo = Q(lo) <= Q(hi) = q_hi``. ``sample_count`` and
    ``rng_seed`` must be non-negative integers, ``box`` finite and ``> 0``."""
    _require_count("sample_count", sample_count, 0)
    _require_count("rng_seed", rng_seed, 0)
    _require_nonneg("box", box, positive=True)
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
    the same way, recording each failing pair. ``sample_count`` and
    ``rng_seed`` must be non-negative integers and ``box`` finite and
    ``> 0`` (``ValueError`` otherwise).
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
    ``Q(p meet q) = Q(p)`` and ``Q(p join q) = Q(q)`` within ``tol``, which
    must be finite and ``>= 0``; the other arguments are checked as in
    :func:`check_inverse_isotone`.
    """
    _require_nonneg("tol", tol)
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
