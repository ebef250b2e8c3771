"""Pytest set-up shared by every test directory.

The suite turns warnings into errors.  When a hypothesis test fails,
hypothesis builds its failure report with ``hypothesis.extra._patching``,
whose import of libcst raises a third-party ``DeprecationWarning``; under
``error`` that aborts the whole run with an INTERNALERROR.  Importing the
module once here, with that warning ignored, keeps a failing property
test an ordinary failure.  Library code still runs under ``error``.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst missing: nothing to pre-import
        pass
