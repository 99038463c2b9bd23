"""CNOT circuits on a line of wires: synthesis, bounds, and search.

Circuits use only controlled-NOT gates between adjacent wires of a
linear array.  Their action on wire values is linear over GF(2), so a
circuit is a sequence of elementary column operations on an invertible
bit matrix.  This package builds the standard circuit families
(addition, swap, rotation, reversal, permutation routing, gathering),
synthesizes a depth-bounded circuit for an arbitrary invertible matrix,
certifies per-cut lower bounds, and exhaustively searches minimum
depths for small wire counts.
"""

# Each module's __all__ is its public interface; the package republishes them.
from .bounds import *
from .circuit import *
from .constructions import *
from .f2 import *
from .glsynth import *
from .render import *
from .search import *

__version__ = "0.1.0"

__all__ = (bounds.__all__ + circuit.__all__ + constructions.__all__ + f2.__all__
           + glsynth.__all__ + render.__all__ + search.__all__)
