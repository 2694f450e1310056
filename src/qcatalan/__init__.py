"""Exact coefficient arithmetic for q-Catalan polynomials and their limit law.

The package answers three kinds of question about the coefficient sequences
of q-Catalan numbers and, more generally, of any polynomial quotient
prod(1 - q^{a_i}) / prod(1 - q^{b_i}):

  * what are the coefficients, exactly (polyq);
  * what are the moments of the coefficient distribution, exactly, and do
    they match their closed forms (moments, exactnum);
  * how close is the standardized coefficient law to a standard normal at
    finite n, and how is it shaped on the way there (limitlaw, shape).

All core arithmetic is exact (big integers and fractions); floats appear
only at the final step of explicitly approximate diagnostics.  The `qcat`
command line tool exposes the same answers as CSV or JSON.

A public name is listed once, in its module's `__all__`; the package
re-exports those lists and adds `__version__`.
"""

from .exactnum import *
from .limitlaw import *
from .moments import *
from .polyq import *
from .shape import *

__version__ = "0.1.0"

__all__ = (
    exactnum.__all__
    + limitlaw.__all__
    + moments.__all__
    + polyq.__all__
    + shape.__all__
    + ["__version__"]
)
