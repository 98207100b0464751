"""Hermitian structures on products of Sasakian manifolds.

Closed-form construction of the two-parameter family of Hermitian
structures on the product of two Sasakian manifolds, evaluation of all
its curvature quantities, the Einstein decision with its structural
characterization, and an independent finite-difference oracle on
stereographic sphere charts.
"""

__version__ = "0.1.0"
