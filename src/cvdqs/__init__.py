"""Distributed quantum sensing of a common displacement over lossy channels,
with noiseless linear amplifiers as loss-mitigating repeaters.

Subpackages: :mod:`cvdqs.fock` (truncated Fock kernel), :mod:`cvdqs.gaussian`
(covariance engine and cross-check oracle), :mod:`cvdqs.nla` (amplifier
models), :mod:`cvdqs.sensing` (pipelines, closed forms, Cramer-Rao bounds),
:mod:`cvdqs.cli` (deterministic CSV sweeps), :mod:`cvdqs.validate`
(self-consistency suite).
"""

from .fock import (
    FockVector,
    ModeOperator,
    TruncationError,
    balanced_splitter,
    beamsplitter,
    normalize,
    quadratures,
    sv_fock,
)
from .gaussian import GaussianState, avg_x_std, loss_gaussian, splitter_gaussian, sv_gaussian
from .nla import (
    NlaSpec,
    UnphysicalGainError,
    clipped_gain_operator,
    effective_gain,
    effective_sv_photons,
    effective_transmissivity,
    nla_operator,
    projector_pi,
    scissor_kraus,
)
from .sensing import (
    ScenarioConfig,
    SensitivityPoint,
    crlb_entangled,
    crlb_product,
    delta_alpha_entangled,
    delta_alpha_ideal_nla,
    delta_alpha_product,
    qfi_pure_displacement,
    simulate_no_nla_fock,
    simulate_practical,
)
from .validate import run_validation_suite

__version__ = "0.1.0"
