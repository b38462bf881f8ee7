# spectral_forge
"""
Rank-2 holomorphic bundles on elliptic surfaces over a Tate curve.

The library covers four layers:

- fibre arithmetic on the Tate curve (``tate``, ``fiber``): line bundles,
  cohomology, rank-2 fibre classes and the extension chart,
- exact divisor arithmetic on hyperelliptic double covers (``covers``):
  Mumford representation, reduction, norm-kernel membership,
- surfaces and spectral data (``surface``, ``spectral``, ``families``):
  multiple fibres, bisections, invariance, pushforward and split families,
  elementary modifications with their jump bookkeeping,
- the transform (``fourier``): descent twist verification, forward and
  inverse transforms, roundtrip reports.

Scenario files and the command line driver live in ``scenario`` and ``cli``.
"""

from __future__ import annotations

from . import covers, errors, families, fiber, fourier, scenario, spectral, surface, tate
from .covers import *
from .errors import *
from .families import *
from .fiber import *
from .fourier import *
from .scenario import *
from .spectral import *
from .surface import *
from .tate import *

__version__ = "0.1.0"

__all__ = [*covers.__all__, *errors.__all__, *families.__all__, *fiber.__all__,
           *fourier.__all__, *scenario.__all__, *spectral.__all__,
           *surface.__all__, *tate.__all__]
