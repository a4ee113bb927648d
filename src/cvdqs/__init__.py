"""Distributed quantum sensing of a common displacement over lossy channels,
with noiseless linear amplifiers as loss-mitigating repeaters.

Import each module by name; the package itself holds only ``__version__``.
Modules: :mod:`cvdqs.fock` (truncated Fock kernel), :mod:`cvdqs.gaussian`
(covariance engine and cross-check oracle), :mod:`cvdqs.nla` (amplifier
models), :mod:`cvdqs.sensing` (pipelines, closed forms, and the pure-state
QFI formula ``1/sqrt(4 Var(sum p))``), :mod:`cvdqs.cli` (deterministic CSV
sweeps), :mod:`cvdqs.validate` (self-consistency suite).
"""

__version__ = "0.1.0"
