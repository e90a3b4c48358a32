"""Numerical toolkit for double-phase Musielak-Orlicz analysis.

Areas: generalized Phi-functions over exponent fields (``phi_core``), grid
modulars and Luxemburg norms (``modular``), the Sobolev conjugate with
inequality verification (``conjugate``), dilation scaling experiments
(``embedding_lab``), level-set truncation iteration (``degiorgi``), a
desk-scale double-phase solver (``solver``) and a file-driven command line
(``cli``).  A public name is declared once, in its module's ``__all__``.
"""

from .errors import *
from .phi_core import *
from .modular import *
from .conjugate import *
from .embedding_lab import *
from .degiorgi import *
from .solver import *

__version__ = "0.1.0"
