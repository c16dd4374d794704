"""The two ways the generation loops run: in the C module of
:mod:`repro.kernel.fast`, and in their Python reference.

``python_reference()`` makes :func:`repro.kernel.fast.native` answer None
for the block under it, as on a host with no C compiler, without the
fallback warning; ``stream_paths()`` names both paths.  Without a
compiler, both paths are the reference.
"""

from __future__ import annotations

import contextlib

from repro.kernel import fast


@contextlib.contextmanager
def python_reference():
    saved = fast._native, fast._compiler, fast._warned
    fast._native, fast._compiler, fast._warned = None, lambda: None, True
    try:
        yield
    finally:
        fast._native, fast._compiler, fast._warned = saved


def stream_paths() -> dict:
    """``{"native": ..., "python": ...}``: one fresh context manager per path."""
    return {"native": contextlib.nullcontext(), "python": python_reference()}
