"""Desk-scale laboratory for memory-bounded parity learning: an exact
GF(2) affine-subspace engine, branching-program simulation, constructive
subspace grouping and program reduction, reach-probability bounds,
streaming learners, and an inner-product bounded-storage cipher.

Import each name from its module (``paritylab.gf2``, ``paritylab.bp``,
...); the package itself exports only ``__version__``."""

__version__ = "0.1.0"
