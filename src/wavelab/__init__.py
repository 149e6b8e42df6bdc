"""Filter banks, transfer operators, and multiresolution checks.

Subpackages by theme:

- ``code_space``: exact shift/transfer operator algebra on cylinder functions
- ``ifs_filters``: filter-bank construction, verification, loop-group actions
- ``circle_filters``: Laurent-polynomial multirate algebra on the circle
- ``classic_mra``: cascade scaling functions and the line filter-bank pipeline
- ``solenoid``: path-space moments and unitary dilation checks
- ``rkhs_kernels``: positive-definite kernel conditions on finite point sets
- ``examples_geometry``: logistic-map quadrature and affine fractal sampling
- ``cli``: the ``wavelab`` command-line front end

The two names in ``__all__`` come from ``code_space``, which is imported on
their first use, so that ``import wavelab.cli`` does not run it.
"""

__all__ = ["CylinderFn", "IfsSpec"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        from . import code_space

        return getattr(code_space, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
