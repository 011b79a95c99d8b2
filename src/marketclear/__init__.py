"""Equilibrium solvers for matching markets.

A coordinate-update engine for systems of gross-substitutes excess maps,
with model layers for regularized transport, matching with imperfectly
transferable utility (frontier distance functions), hedonic pricing,
rent-controlled housing, and two-sided matching without transfers — plus a
CLI (``marketclear``) that loads JSON market files and exports solutions.

Each module's ``__all__`` lists its public names, and the package exports
them all; of :mod:`marketclear.io` it exports the market-file loader alone.
"""

from . import core, errors, hedonic, matching, transfers
from .core import *
from .errors import *
from .hedonic import *
from .io import LoadedMarket, MarketFileError, load_market
from .matching import *
from .transfers import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *errors.__all__,
    *transfers.__all__,
    *hedonic.__all__,
    *matching.__all__,
    "LoadedMarket", "MarketFileError", "load_market",
]
