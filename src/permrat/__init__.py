"""permrat: the rational map family x + 1/(x^{p^d} - x + b) over F_{p^n}.

Exhaustive permutation scans with collision witnesses, plane-curve point
counts in exact arithmetic, Hasse-Weil-style bound audits as pure integer
comparisons, and the verification campaigns tying them together.

The package is its modules: import each name from the one that defines it
(`permrat.field`, `maps`, `curves`, `verify`, `cli`).  Importing the package
alone loads none of them.
"""

__version__ = "0.1.0"
