"""Forgery-entropy analysis for the security evaluation (§VII-E, §X).

:mod:`~repro.security.entropy` models the brute-force odds of PACs and
memory tags.  The attacks themselves are the scenario recipes of
:mod:`repro.adversary`, run against each mechanism's runtime;
``python -m repro security`` tabulates who detects what.
"""
