"""Market-file loading and deterministic artifact export.

Market files are JSON. Every file carries a ``"model"`` field selecting the
schema:

``linear``
    ``{"model": "linear", "A": matrix, "labels"?: [...], "p0"?: [...]}``
``constant_aggregate``
    ``{"model": "constant_aggregate", "delta": [...], "A": matrix,
    "labels"?: [...]}``
``transfer`` / ``ot`` / ``housing``
    ``{"model": ..., "sigma": s, "n": {...}, "m": {...},
    "frontier": {"kind": "tu"|"taxes"|"ntu", ...}, "singles": bool,
    "seed"?: int, "y0"?: label, "pi"?: float}``
``hedonic``
    ``{"model": "hedonic", "n": {...}, "m": {...}, "locations"?: [...],
    "c": matrix, "a": matrix}``
``nt``
    ``{"model": "nt", "alpha": matrix, "gamma": matrix,
    "workers"?: [...], "firms"?: [...]}`` — adding ``"n"`` and ``"m"``
    mass tables switches to the aggregate variant.

Mass tables (``n``, ``m``) are either explicit ``{label: mass}`` mappings
(order preserved) or generators ``{"count": k, "prefix": "x",
"uniform": [lo, hi]}`` / ``{"count": k, "prefix": "x", "const": v}``.
Matrices are either nested row-major lists or generators
``{"uniform": [lo, hi]}`` / ``{"const": v}`` whose shape comes from
context. All generators draw from one ``numpy`` generator seeded by the
file's ``"seed"`` (overridable by the caller) in a fixed documented order —
masses first (``n`` then ``m``), then matrix fields in schema order — so a
given file and seed always produce the same market.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    _default_labels,
    _finite_vector,
    _require_count,
    constant_aggregate_map,
    linear_map,
)
from .hedonic import HedonicMarket
from .matching import AggregateNTMarket, IndividualMarket
from .transfers import (
    AggregateMarket,
    FrontierGrid,
    TaxSchedule,
    _require_housing,
    _require_kind,
)

__all__ = [
    "MarketFileError",
    "LoadedMarket",
    "load_market",
    "load_json",
    "write_json",
    "format_float",
    "write_csv",
]


class MarketFileError(ValueError):
    """A market or outcome file failed to parse or validate."""


@dataclass(frozen=True)
class LoadedMarket:
    """A parsed market file: normalized model name, model object, options.

    ``model`` is one of ``linear``, ``constant_aggregate``, ``transfer``,
    ``ot``, ``housing``, ``hedonic``, ``nt``, ``nt_aggregate``. ``payload``
    is the model object: for the linear family that is the map itself
    (``linear_map`` or ``constant_aggregate_map``), otherwise the
    constructed market. ``extras`` carries optional per-file solver
    defaults (``p0``, ``y0``, ``pi``).
    """

    model: str
    payload: Any
    extras: dict[str, Any] = field(default_factory=dict)


class _Resolver:
    """Lazy RNG shared by every generator field of one file."""

    def __init__(self, seed):
        if seed is not None:
            _require_count("'seed'", seed, 0)
        self._seed = seed
        self._rng = None

    def rng(self) -> np.random.Generator:
        if self._rng is None:
            if self._seed is None:
                raise MarketFileError(
                    "a seed is required when the file uses generators"
                )
            self._rng = np.random.default_rng(self._seed)
        return self._rng


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MarketFileError(message)


def _numeric(name: str, value):
    """``value`` as given, once no entry of it (nested lists included) is a
    string or a boolean, which numpy would read as a number."""
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, list):
            _numeric(name, item)
        elif isinstance(item, (str, bool)):
            raise MarketFileError(f"{name} must hold JSON numbers, not {json.dumps(item)}")
    return value


def _generated(obj, name: str, shape, resolver: _Resolver) -> np.ndarray:
    """Resolve a ``uniform`` or ``const`` generator to an array of ``shape``."""
    if "uniform" in obj:
        bounds = _numeric(f"{name}: 'uniform'", obj["uniform"])
        lo, hi = _finite_vector(f"{name}: 'uniform'", bounds, 2)
        _require(lo < hi, f"{name}: 'uniform' bounds must satisfy lo < hi")
        return resolver.rng().uniform(lo, hi, shape)
    if "const" in obj:
        value = _numeric(f"{name}: 'const'", obj["const"])
        _require(not isinstance(value, (list, dict)), f"{name}: 'const' must be one JSON number")
        return np.full(shape, value, dtype=float)
    raise MarketFileError(f"{name}: generator needs 'uniform' or 'const'")


def _masses(obj, name: str, default_prefix: str, resolver: _Resolver):
    """Resolve a mass table to ``(labels, values)``; the market checks both."""
    _require(isinstance(obj, dict) and obj, f"'{name}' must be a non-empty object")
    if "count" not in obj:
        return tuple(obj), _numeric(name, list(obj.values()))
    count = obj["count"]
    _require_count(f"{name}: 'count'", count)
    prefix = str(obj.get("prefix", default_prefix))
    return _default_labels(count, prefix), _generated(obj, name, count, resolver)


def _matrix(obj, name: str, shape: tuple[int, int], resolver: _Resolver):
    """Resolve a matrix field: a generator to ``shape``, explicit rows as
    given (the market checks their shape and values)."""
    if isinstance(obj, dict):
        return _generated(obj, name, shape, resolver)
    return _numeric(name, obj)


def _label_list(raw: dict, key: str, count: int | None, prefix: str):
    """The labels listed under ``key``, or ``count`` generated ones."""
    obj = raw.get(key)
    if obj is None:
        return _default_labels(count, prefix)
    _require(isinstance(obj, list), f"'{key}' must be a list of labels")
    return obj


def _rows(raw: dict, key: str) -> list:
    """A matrix field that must be given as explicit, non-empty rows."""
    rows = raw[key]
    _require(
        isinstance(rows, list) and rows and isinstance(rows[0], list),
        f"'{key}' must be a non-empty matrix",
    )
    return rows


def _frontier(obj, shape, resolver: _Resolver) -> FrontierGrid:
    _require(isinstance(obj, dict), "'frontier' must be an object")
    kind = obj.get("kind")
    if kind == "tu":
        _require("phi" in obj, "tu frontier needs 'phi'")
        return FrontierGrid.tu(_matrix(obj["phi"], "frontier.phi", shape, resolver))
    if kind in ("taxes", "ntu"):
        _require(
            "alpha" in obj and "gamma" in obj,
            f"{kind} frontier needs 'alpha' and 'gamma'",
        )
        alpha = _matrix(obj["alpha"], "frontier.alpha", shape, resolver)
        gamma = _matrix(obj["gamma"], "frontier.gamma", shape, resolver)
        if kind == "ntu":
            return FrontierGrid.ntu(alpha, gamma)
        sched = obj.get("schedule")
        _require(
            isinstance(sched, dict) and "rates" in sched and "thresholds" in sched,
            "taxes frontier needs 'schedule' with 'rates' and 'thresholds'",
        )
        rates, thresholds = (_numeric(k, sched[k]) for k in ("rates", "thresholds"))
        return FrontierGrid.taxes(alpha, gamma, TaxSchedule(rates, thresholds))
    raise MarketFileError("frontier 'kind' must be 'tu', 'taxes', or 'ntu'")


def _load_transfer_family(raw: dict, model: str, resolver: _Resolver) -> LoadedMarket:
    for key in ("n", "m", "frontier"):
        _require(key in raw, f"'{model}' files need '{key}'")
    singles = raw.get("singles", model != "ot")
    _require(isinstance(singles, bool), "'singles' must be true or false")
    _require(
        not (model == "ot" and singles),
        "the balanced transport model has no singles",
    )
    x_labels, n = _masses(raw["n"], "n", "x", resolver)
    y_labels, m = _masses(raw["m"], "m", "y", resolver)
    market = AggregateMarket(
        x_labels=x_labels,
        y_labels=y_labels,
        n=n,
        m=m,
        frontiers=_frontier(raw["frontier"], (len(x_labels), len(y_labels)), resolver),
        sigma=_numeric("sigma", raw.get("sigma", 1.0)),
        singles=singles,
    )
    # The checks the model's map builder makes, at load time.
    if model == "ot":
        _require_kind(market, "tu")
    if model == "housing":
        _require_housing(market)
    extras: dict[str, Any] = {}
    if not singles and model != "ot":
        if raw.get("y0") is not None:
            _require(str(raw["y0"]) in y_labels, "'y0' must be a y-side label")
            extras["y0"] = str(raw["y0"])
        pi = _numeric("pi", raw.get("pi", 0.0))
        extras["pi"] = float(_finite_vector("pi", pi, 1)[0])
    return LoadedMarket(model, market, extras)


def _load_hedonic(raw: dict, resolver: _Resolver) -> LoadedMarket:
    for key in ("n", "m", "c", "a"):
        _require(key in raw, f"'hedonic' files need '{key}'")
    x_labels, n = _masses(raw["n"], "n", "x", resolver)
    y_labels, m = _masses(raw["m"], "m", "y", resolver)
    width = None
    if raw.get("locations") is None:
        _require(
            not isinstance(raw["c"], dict),
            "'locations' is required when 'c' is generated",
        )
        width = len(_rows(raw, "c")[0])
    z_labels = _label_list(raw, "locations", width, "z")
    c = _matrix(raw["c"], "c", (len(x_labels), len(z_labels)), resolver)
    a = _matrix(raw["a"], "a", (len(y_labels), len(z_labels)), resolver)
    market = HedonicMarket(
        x_labels=x_labels, y_labels=y_labels, z_labels=z_labels,
        n=n, m=m, c=c, a=a,
    )
    return LoadedMarket("hedonic", market)


def _load_nt(raw: dict, resolver: _Resolver) -> LoadedMarket:
    for key in ("alpha", "gamma"):
        _require(key in raw, f"'nt' files need '{key}'")
    aggregate = "n" in raw or "m" in raw
    if aggregate:
        _require(
            "n" in raw and "m" in raw,
            "aggregate 'nt' files need both 'n' and 'm'",
        )
        x_labels, n = _masses(raw["n"], "n", "x", resolver)
        y_labels, m = _masses(raw["m"], "m", "y", resolver)
        shape = (len(x_labels), len(y_labels))
        market = AggregateNTMarket(
            x_labels=x_labels,
            y_labels=y_labels,
            n=n,
            m=m,
            alpha=_matrix(raw["alpha"], "alpha", shape, resolver),
            gamma=_matrix(raw["gamma"], "gamma", shape, resolver),
        )
        return LoadedMarket("nt_aggregate", market)
    rows = _rows(raw, "alpha")
    shape = (len(rows), len(rows[0]))
    i_labels = _label_list(raw, "workers", shape[0], "w")
    j_labels = _label_list(raw, "firms", shape[1], "f")
    market = IndividualMarket(
        i_labels=i_labels,
        j_labels=j_labels,
        alpha=_matrix(raw["alpha"], "alpha", shape, resolver),
        gamma=_matrix(raw["gamma"], "gamma", shape, resolver),
    )
    return LoadedMarket("nt", market)


def _load_linear(raw: dict, model: str) -> LoadedMarket:
    """The linear family's map, which checks the file's ``A`` and labels."""
    _require("A" in raw, f"'{model}' files need 'A'")
    if model == "constant_aggregate":
        _require("delta" in raw, "'constant_aggregate' files need 'delta'")
    A = _numeric("A", _rows(raw, "A"))
    labels = _label_list(raw, "labels", len(A), "z")
    if model == "linear":
        q = linear_map(A, labels)
    else:
        q = constant_aggregate_map(_numeric("delta", raw["delta"]), A, labels)
    extras: dict[str, Any] = {}
    if raw.get("p0") is not None:
        p0 = _numeric("p0", raw["p0"])
        extras["p0"] = _finite_vector("p0", p0, len(q.labels))
    return LoadedMarket(model, q, extras)


def load_json(path) -> Any:
    """Parse a JSON file, reporting failures with line context."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MarketFileError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketFileError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc


def load_market(path, *, seed=None) -> LoadedMarket:
    """Load and validate a market file.

    ``seed`` overrides the file's ``"seed"`` field for generator
    resolution. Raises :class:`MarketFileError` on any parse or schema
    problem; model-level validation errors are re-raised with file context.
    """
    raw = load_json(path)
    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    model = raw.get("model")
    try:
        resolver = _Resolver(seed if seed is not None else raw.get("seed"))
        if model in ("linear", "constant_aggregate"):
            return _load_linear(raw, model)
        if model in ("transfer", "ot", "housing"):
            return _load_transfer_family(raw, model, resolver)
        if model == "hedonic":
            return _load_hedonic(raw, resolver)
        if model == "nt":
            return _load_nt(raw, resolver)
    except (TypeError, ValueError) as exc:
        raise MarketFileError(f"{path}: {exc}") from exc
    raise MarketFileError(
        f"{path}: unknown model {model!r}; expected one of linear, "
        "constant_aggregate, transfer, ot, housing, hedonic, nt"
    )


# ---------------------------------------------------------------------------
# Export helpers


def format_float(value) -> str:
    """Shortest-exact decimal used by every CSV artifact."""
    return format(float(value), ".17g")


def write_json(path, payload) -> None:
    """Write sorted, indented JSON with a trailing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV with LF newlines; floats go through :func:`format_float`."""
    lines = [",".join(header)]
    for row in rows:
        cells = [
            cell if isinstance(cell, str) else format_float(cell) for cell in row
        ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
