"""Numerical laboratory for two-population competition-diffusion systems and
their reduction to a single bistable frequency equation."""

from .model import *
from .solver import *
from .reduction import *
from .experiments import *
from .config import *

__version__ = "0.1.0"
