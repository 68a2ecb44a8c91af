"""Spectral and asymptotic geometry of a family of harmonic homogeneous spaces.

Layers, bottom up: exact series and linear algebra, the Clifford module
machinery, left-invariant curvature, direction and point invariants, radial
expansions, heat-coefficient decompositions, the exact identity bookkeeping,
polynomial harmonics, radial spectra, and a CLI over all of it.  Each name
is imported from its module, e.g.
``from hmlab.geometry import damek_ricci_geometry``; the package binds none.

Importing the package only sets ``OPENBLAS_NUM_THREADS=1``, before any of
its modules loads numpy.  The package's dense products are too small to
gain from a second thread: on a 2-vCPU host it spun after each threaded
product and raised CPU time by about half, with no gain in wall time.
OpenBLAS reads the variable once, when it loads, so any earlier value is
overwritten here; child processes inherit it.  If numpy was imported
before hmlab, numpy's OpenBLAS keeps the threads it started with.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
