"""Mechanism adapters for the security analysis (§VII).

:mod:`~repro.security.adapters` wraps each protection mechanism's
functional model in a uniform interface, so the scenario recipes of
:mod:`repro.adversary.scenarios` run against every mechanism;
``python -m repro security`` tabulates who detects what.
:mod:`~repro.security.entropy` models the brute-force odds of PACs and
memory tags.
"""

from .adapters import MECHANISM_ADAPTERS, make_adapter

__all__ = [
    "MECHANISM_ADAPTERS",
    "make_adapter",
]
