"""Reversible MCT circuits: permutation semantics, quantum cost, and
identity elimination."""

from .circuit import *
from .corpus import *
from .cost import *
from .generate import *
from .reduce import *
from .semantics import *

__version__ = "0.1.0"
