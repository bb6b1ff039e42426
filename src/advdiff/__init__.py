"""Numerical laboratory for advection-diffusion of a passive scalar on the torus.

Import each name from the module that owns it (``advdiff.solver.solve``,
``advdiff.regimes.classify``, ...); the package itself holds only the version.
"""

__version__ = "0.1.0"
