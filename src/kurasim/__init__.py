"""Kuramoto oscillators on finite graphs.

Numerical fixed-step integration of the sine-coupled model next to the
closed-form evaluation of its complex-valued linear counterpart through the
adjacency eigenspectrum, plus the comparison experiments between the two.
Every module's `__all__` is re-exported here.
"""

__version__ = "0.1.0"

from . import dynamics, experiments, graphs, seeding, spectral
from .dynamics import *
from .experiments import *
from .graphs import *
from .seeding import *
from .spectral import *

__all__ = ["__version__", *graphs.__all__, *spectral.__all__, *dynamics.__all__,
           *experiments.__all__, *seeding.__all__]
