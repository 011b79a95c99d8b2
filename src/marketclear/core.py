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


def _positive_vector(name: str, value, count: int) -> Array:
    """Read-only copy of a length-``count`` vector of finite positive entries."""
    out = np.array(value, dtype=float).reshape(-1)
    if out.size != count:
        raise ValueError(f"{name} must have length {count}")
    if not np.all(np.isfinite(out)) or not np.all(out > 0):
        raise ValueError(f"{name} must be finite and strictly positive")
    out.setflags(write=False)
    return out


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
        labels = tuple(str(label) for label in self.labels)
        values = np.array(self.values, dtype=float).reshape(-1)
        if len(labels) != values.size:
            raise ValueError(
                f"{len(labels)} labels but {values.size} values"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if self._require_finite and not np.all(np.isfinite(values)):
            raise ValueError("all values must be finite")
        values.setflags(write=False)
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

    def with_label(self, label: str, value: float):
        """Return a copy extended by a new trailing coordinate."""
        return type(self)(
            self.labels + (str(label),), np.append(self.values, value)
        )

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], pos: dict[str, int], values: Array):
        """Build from already validated ``labels``/``pos`` without copying.

        ``values`` must be a fresh 1-D float array of matching length that
        no one else writes to; it is frozen here.
        """
        if cls._require_finite and not np.all(np.isfinite(values)):
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
        Optional closed-form coordinate update ``(index, values) -> price``
        solving ``Q_z(pi, p_{-z}) = 0`` for the smallest root.
    residual_value:
        Optional fast per-coordinate residual ``(index, pi, values) -> float``.
        Must reproduce ``eval_values`` bit-for-bit on its coordinate; when
        omitted, the residual substitutes into a copy and calls
        ``eval_values`` so consistency is automatic.
    z_function, diagonal_isotone, m_function, m0_function:
        Declared structure flags. They are caller declarations, verified
        only by the sampling checks in this module.
    blocks, update_block:
        Optional block form of ``update_value``. ``blocks`` splits the
        coordinates into consecutive ``(start, stop)`` ranges whose
        coordinates never read each other's prices; ``update_block(b,
        values)`` returns the updates of block ``b`` as an array equal bit
        for bit to ``update_value`` on each of its coordinates. A sweep
        updates a block through it whenever its visit order covers the whole
        block in one stretch, and only while ``update_value`` is set too.
    """

    labels: tuple[str, ...]
    eval_values: Callable[[Array], Array]
    update_value: Callable[[int, Array], float] | None = None
    residual_value: Callable[[int, float, Array], float] | None = None
    z_function: bool = False
    diagonal_isotone: bool = False
    m_function: bool = False
    m0_function: bool = False
    blocks: tuple[tuple[int, int], ...] | None = None
    update_block: Callable[[int, Array], Array] | None = None

    def __post_init__(self):
        labels = tuple(str(z) for z in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pos", {z: i for i, z in enumerate(labels)})
        if self.update_block is not None and self.blocks is None:
            raise ValueError("update_block needs blocks")
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
        object.__setattr__(self, "_runs", _visit_runs(self, range(len(labels))))

    def index(self, label: str) -> int:
        return self._pos[label]

    def evaluate(self, p: PriceVector) -> ExcessVector:
        """Full evaluation ``Q(p)`` as an ExcessVector."""
        if p.labels != self.labels:
            raise ValueError("price vector labels do not match the map")
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array(self.eval_values(p.values), dtype=float)
        if out.shape != p.values.shape:
            raise InternalError("evaluator returned a wrong-shaped excess")
        return ExcessVector._trusted(self.labels, self._pos, out)

    def residual(self, z: str, pi: float, p: PriceVector) -> float:
        """Single-coordinate residual ``Q_z(pi, p_{-z})``."""
        if p.labels != self.labels:
            raise ValueError("price vector labels do not match the map")
        return self.residual_at(self._pos[z], pi, p.values)

    def residual_at(self, i: int, pi: float, values: Array) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            if self.residual_value is not None:
                return float(self.residual_value(i, pi, values))
            vals = values.copy()
            vals[i] = pi
            return float(np.asarray(self.eval_values(vals))[i])


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
        if not self.initial_halfwidth > 0:
            raise ValueError("initial_halfwidth must be > 0")
        if not self.growth_factor > 1:
            raise ValueError("growth_factor must be > 1")
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be a positive integer")
        if not self.bisection_tol > 0:
            raise ValueError("bisection_tol must be > 0")


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
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be > 0")
        if self.step_tol < 0:
            raise ValueError("step_tol must be >= 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be a positive integer")
        if self.mode not in ("jacobi", "gauss_seidel"):
            raise ValueError("mode must be 'jacobi' or 'gauss_seidel'")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


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
        bad = Q.labels[int(np.flatnonzero(~np.isfinite(out))[0])]
        raise NonFiniteResidual(f"residual at coordinate {bad!r} is non-finite")
    return out


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
# Scalar root finding


def _eval_scalar(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if math.isnan(v):
        raise NonFiniteResidual(f"f({x!r}) is NaN")
    return v


def _bisect_on_negative(f, lo, hi, tol) -> float:
    # invariant: f(lo) < 0 <= f(hi); converges to inf{pi : f(pi) >= 0}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _eval_scalar(f, mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def _bisect_on_nonpositive(f, lo, hi, tol) -> float:
    # invariant: f(lo) <= 0 < f(hi); converges to sup{pi : f(pi) <= 0}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _eval_scalar(f, mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


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
    budget, raises :class:`ResponsivenessViolation`.
    """
    opts = opts or BracketOptions()
    hint = float(hint)
    fh = _eval_scalar(f, hint)

    if fh < 0:
        lo = hint
        hi = None
        h = opts.initial_halfwidth
        for _ in range(opts.max_expansions):
            cand = hint + h
            if _eval_scalar(f, cand) >= 0:
                hi = cand
                break
            lo = cand
            h *= opts.growth_factor
        if hi is None:
            raise ResponsivenessViolation(
                "no point with f >= 0 found above the hint"
            )
        return _bisect_on_negative(f, lo, hi, opts.bisection_tol)

    # f(hint) >= 0: search downward for a strictly negative value.
    hi = hint  # smallest known point with f >= 0
    pos_hi = hint if fh > 0 else None  # smallest known point with f > 0
    le_lo = hint if fh == 0 else None  # largest known point with f <= 0
    lo = None
    h = opts.initial_halfwidth
    for _ in range(opts.max_expansions):
        cand = hint - h
        fc = _eval_scalar(f, cand)
        if fc < 0:
            lo = cand
            break
        hi = cand
        if fc > 0:
            pos_hi = cand
        elif le_lo is None:
            le_lo = cand
        h *= opts.growth_factor
    if lo is not None:
        return _bisect_on_negative(f, lo, hi, opts.bisection_tol)
    if le_lo is None:
        raise ResponsivenessViolation(
            "no point with f <= 0 found below the hint"
        )

    # f reaches zero but never goes negative: locate the boundary root.
    if pos_hi is None:
        h = opts.initial_halfwidth
        for _ in range(opts.max_expansions):
            cand = hint + h
            fc = _eval_scalar(f, cand)
            if fc > 0:
                pos_hi = cand
                break
            le_lo = cand
            h *= opts.growth_factor
        if pos_hi is None:
            raise ResponsivenessViolation(
                "f has no sign change on the searched range"
            )
    return _bisect_on_nonpositive(f, le_lo, pos_hi, opts.bisection_tol)


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
    z = Q.labels[i]
    if Q.update_value is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(Q.update_value(i, values))
    else:
        try:
            val = smallest_root(
                lambda pi: Q.residual_at(i, pi, values),
                opts.root_finder,
                hint=float(values[i]),
            )
        except ResponsivenessViolation as exc:
            raise ResponsivenessViolation(f"coordinate {z!r}: {exc}") from None
    if not math.isfinite(val):
        raise NonFiniteResidual(f"coordinate {z!r}: update is non-finite")
    return val


def coordinate_update(
    Q: EquilibriumMap,
    z: str,
    p: PriceVector,
    opts: SolverOptions | None = None,
) -> float:
    """Price solving ``Q_z(pi, p_{-z}) = 0`` (smallest root).

    Uses the map's closed-form update when one is registered, otherwise
    bracketed bisection hinted at the current ``p_z``.
    """
    opts = opts or SolverOptions()
    if p.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    return _update_at(Q, Q.index(z), p.values, opts)


def _damp(old, new, damping: float):
    # Elementwise on scalars and arrays alike, so both paths round the same.
    # An overflow here is reported as NonFiniteResidual by the caller.
    if damping == 1.0:
        return new
    with np.errstate(over="ignore", invalid="ignore"):
        return old + damping * (new - old)


def _block_update(Q: EquilibriumMap, b: int, values: Array) -> Array:
    lo, hi = Q.blocks[b]
    with np.errstate(over="ignore", invalid="ignore"):
        new = np.asarray(Q.update_block(b, values), dtype=float)
    if new.shape != (hi - lo,):
        raise InternalError("block update returned a wrong-shaped array")
    return new


def _damped_nonfinite(Q: EquilibriumMap, i: int) -> NonFiniteResidual:
    return NonFiniteResidual(f"coordinate {Q.labels[i]!r}: damped update non-finite")


def _raise_first_nonfinite(Q, visit, lo: int, new: Array, damped=None) -> None:
    """Raise as the per-coordinate loop would: at the first coordinate in
    visit order whose update, or else damped update, is non-finite."""
    for i in visit:
        if not math.isfinite(new[i - lo]):
            z = Q.labels[i]
            raise NonFiniteResidual(f"coordinate {z!r}: update is non-finite")
        if damped is not None and not math.isfinite(damped[i - lo]):
            raise _damped_nonfinite(Q, i)


def _visit_runs(Q: EquilibriumMap, order: Sequence[int]) -> tuple:
    """Split a visit order into runs ``(block, visit)``.

    A stretch that visits a whole block, in any order inside it, is one run
    through ``update_block``. Every other coordinate ``i`` is a run
    ``(None, i)`` of its own. Blocks count only while ``update_value`` is set
    too. A block can only be visited whole from its first coordinate in
    ``order``, so each block is tested once.
    """
    use_blocks = Q.update_block is not None and Q.update_value is not None
    runs, tested, k = [], set(), 0
    while k < len(order):
        i = order[k]
        b = int(Q._block_of[i]) if use_blocks else None
        if b is not None and b not in tested:
            tested.add(b)
            lo, hi = Q.blocks[b]
            stretch = order[k:k + hi - lo]
            if sorted(stretch) == list(range(lo, hi)):
                runs.append((b, stretch))
                k += hi - lo
                continue
        runs.append((None, i))
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
    already updated and is damped at once (Gauss-Seidel). Non-finite values
    raise at the coordinate the per-coordinate loop would name: Gauss-Seidel
    checks each update, then its damped step, in visit order; Jacobi checks
    every update before any damped step.
    """
    if p.labels != Q.labels:
        raise ValueError("price vector labels do not match the map")
    if order is None:
        runs = Q._runs
    elif sorted(order) != sorted(Q.labels):
        raise ValueError("sweep_order must be a permutation of the map labels")
    else:
        runs = _visit_runs(Q, [Q.index(z) for z in order])
    damping = opts.damping
    values = p.values.copy()
    read = p.values if frozen else values
    for b, visit in runs:
        if b is None:
            new = _update_at(Q, visit, read, opts)
            if not frozen:
                new = _damp(values[visit], new, damping)
                if not math.isfinite(new):
                    raise _damped_nonfinite(Q, visit)
            values[visit] = new
        else:
            lo, hi = Q.blocks[b]
            new = _block_update(Q, b, read)
            step = new if frozen else _damp(values[lo:hi], new, damping)
            if not np.all(np.isfinite(step)):
                _raise_first_nonfinite(Q, visit, lo, new, None if frozen else step)
            values[lo:hi] = step
    if frozen:
        values = _damp(p.values, values, damping)
        if not np.all(np.isfinite(values)):
            raise _damped_nonfinite(Q, int(np.flatnonzero(~np.isfinite(values))[0]))
    return PriceVector._trusted(p.labels, p._pos, values)


def jacobi_sweep(
    Q: EquilibriumMap, p: PriceVector, opts: SolverOptions | None = None
) -> PriceVector:
    """One Jacobi sweep: every coordinate updated from the same ``p``.

    With damping ``d`` the result is ``p + d * (T(p) - p)`` where ``T`` is
    the coordinate-update operator; ``d = 1`` returns ``T(p)`` exactly.
    Each update reads only the frozen input vector, so evaluation order is
    immaterial; a map with block updates is updated one block at a time.
    """
    return _sweep(Q, p, opts or SolverOptions(), None, frozen=True)


def gauss_seidel_sweep(
    Q: EquilibriumMap, p: PriceVector, opts: SolverOptions | None = None
) -> PriceVector:
    """One Gauss-Seidel sweep: coordinates updated sequentially in order.

    Each update sees the values already updated earlier in the sweep. The
    order is ``opts.sweep_order`` when given, else the map's label order.
    A stretch of the order that visits a whole block (the label order
    visits every block so) is updated through the block hook; since a
    block's coordinates never read each other, the result is the same.
    """
    opts = opts or SolverOptions()
    return _sweep(Q, p, opts, opts.sweep_order or None, frozen=False)


# ---------------------------------------------------------------------------
# Solve driver


def _record(
    Q: EquilibriumMap, sweep: int, p: PriceVector, prev: PriceVector | None
) -> TraceRecord:
    excess = _finite_excess(Q, p)
    if prev is None:
        nondec = noninc = True
    else:
        nondec = bool(np.all(p.values >= prev.values))
        noninc = bool(np.all(p.values <= prev.values))
    return TraceRecord(
        sweep=sweep,
        prices=p,
        residual_sup=float(np.max(np.abs(excess))),
        nondecreasing=nondec,
        nonincreasing=noninc,
        is_sub=bool(np.all(excess <= 0.0)),
        is_super=bool(np.all(excess >= 0.0)),
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
    opts = opts or SolverOptions()
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


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"z{i + 1}" for i in range(n))


def linear_map(A, labels: Sequence[str] | None = None) -> EquilibriumMap:
    """Map ``Q(p) = A p`` with structure flags derived from ``A``.

    Off-diagonal entries ``<= 0`` declare a Z-function; a nonnegative
    diagonal declares diagonal isotonicity; positive (nonnegative) column
    sums additionally declare an M-function (weak variant). A closed-form
    coordinate update is registered when every diagonal entry is positive.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    n = A.shape[0]
    labels = tuple(labels) if labels is not None else _default_labels(n)
    if len(labels) != n:
        raise ValueError("label count must match the matrix size")

    diag = np.diag(A)
    offdiag = A - np.diag(diag)
    z_flag = bool(np.all(offdiag <= 0))
    colsums = A.sum(axis=0)

    update = None
    if np.all(diag > 0):

        def update(i: int, values: Array) -> float:
            others = float(A[i] @ values) - float(A[i, i] * values[i])
            return -others / float(A[i, i])

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
    delta = np.array(delta, dtype=float).reshape(-1)
    A = np.array(A, dtype=float)
    n = delta.size
    if A.shape != (n, n):
        raise ValueError("A must be square and match delta's length")
    if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(A))):
        raise ValueError("inputs must be finite")
    if not np.all(delta > 0):
        raise ValueError("delta must be strictly positive")
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
    labels = tuple(labels) if labels is not None else _default_labels(n)
    if len(labels) != n:
        raise ValueError("label count must match the matrix size")
    M = np.diag(delta) - A

    def update(i: int, values: Array) -> float:
        return float(A[i] @ values) / float(delta[i])

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


@dataclass(frozen=True)
class SetOrderReport:
    """Outcome of a strong-set-order sampling check on the inverse."""

    samples: int
    comparable: int
    violations: tuple[tuple[PriceVector, PriceVector], ...]


def _ordered_pairs(Q: EquilibriumMap, sample_count: int, rng_seed: int, box: float):
    """Draw ``sample_count`` i.i.d. uniform pairs ``(a, b)`` from ``[-box,
    box]`` per coordinate and yield ``(a, b, lo, hi, q_lo, q_hi)`` for each
    pair whose images are componentwise ordered: ``(lo, hi)`` is the pair
    sorted so that ``q_lo = Q(lo) <= Q(hi) = q_hi``."""
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
