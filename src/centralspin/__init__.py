"""Certified central-spin dephasing on Delone point sets.

The package simulates Ramsey dephasing of a central spin coupled to a bath
of spins sitting on a uniformly discrete, relatively dense (Delone) point
set, with power-law couplings.  Every reported quantity carries a rigorous
error bound: lattice-sum tails are bracketed by integral sandwiches, cosine
products carry truncation certificates, and the self-similar spectral and
basis identities are checked in exact arithmetic where floats would lie.

Modules
-------
pointsets  Delone point-set generators, radii measurement, annulus counts
bounds     certified tail sums and integral sandwich / midpoint checks
ramsey     dephasing profiles, Gaussian comparison, envelope calibration
spectra    self-similar cosine products, Cantor function, digit maps
basis      digit-sign orthonormal system, Fourier data, L2 partial sums
cli        command-line front end (`centralspin ...`)

The package re-exports each library module's ``__all__``, which is the one
place a public name is declared.
"""

__version__ = "0.1.0"

from . import basis, bounds, pointsets, ramsey, spectra
from .basis import *
from .bounds import *
from .pointsets import *
from .ramsey import *
from .spectra import *

__all__ = ["__version__", *pointsets.__all__, *bounds.__all__,
           *ramsey.__all__, *spectra.__all__, *basis.__all__]
