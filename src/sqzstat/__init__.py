"""Generalized-ensemble thermostatistics under squeezing deformations.

Exact discrete-spectrum ensembles for an arbitrary positive deformation
of the configuration-count statistics, with fluctuation analysis, a
deformed discrete-velocity kinetic integrator, and inference of the
deformation from temperature-ratio data.
"""

import importlib

_EXPORTS = {
    "engine": ("ClassTable", "DegeneracySpectrum", "EnsembleSpec", "ProbabilityTable", "ThermoReport",
               "characteristic_class", "combine_independent", "entropy_from_probabilities",
               "generalized_boltzmann_factor", "observed_mean", "phi_and_entropies", "phi_of",
               "phi_surface_from_spectrum", "probabilities", "report_for"),
    "errors": ("DatasetError", "DegenerateEnsembleError", "ModelValidationError",
               "SqueezeDomainError", "StepSizeError"),
    "squeeze": ("LogValue", "SqueezeFamily", "squeeze_log", "unsqueeze_log"),
    "thermo": ("EnvironmentSplit", "ThermoPoint", "conjugates_from_phi",
               "euler_residual", "gibbs_duhem_residual"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Resolve a re-export on first access (PEP 562), so that importing a
    submodule such as ``sqzstat.cli`` loads only what it uses."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
