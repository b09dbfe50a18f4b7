"""Binaural-cue models, dual-channel measurement, and recording-rig simulation.

Importing the package loads none of its modules and no numpy: each public name is imported
from its module on first use (PEP 562), so a cold CLI process loads only the modules its
subcommand runs, and `bincues compare`, which reads JSON, needs no numpy at all.
"""

import importlib

__version__ = "0.1.0"  # the one version string; pyproject.toml and reports read it

# Each module and the public names the package exports from it.
_EXPORTS = {
    "analysis": ("CalibrationVerdict", "CueReport", "TransferFunction", "analyze_blocks",
                 "analyze_capture", "band_itd", "calibration_check", "cross_correlation",
                 "estimate_itd", "ild_spectrum_summary", "transfer_function"),
    "cue_models": ("CueBand", "DuplexThresholds", "HeadGeometry", "ShadowParams",
                   "duplex_classify", "head_shadow_ild", "ipd_from_itd", "itd_modified",
                   "itd_simple", "speed_of_sound", "wrap_phase_deg"),
    "errors": ("AnalysisError", "BincuesError", "ClippingError", "SilentSignalError",
               "ValidationError", "WavFormatError"),
    "render": ("RenderSpec", "binauralize", "binauralize_scene"),
    "rigsim": ("RigKind", "RigSpec", "SourceSpec", "default_rig", "ear_gains", "far_ear",
               "fit_path_extension", "full_dummy", "human_head", "jecklin", "load_rig_config",
               "ortf", "predicted_ild_db", "predicted_itd", "shadow_filter_kernel", "semi_dummy",
               "simulate_capture"),
    "signals": ("DEFAULT_SAMPLE_RATE", "SampleBuffer", "StereoBuffer", "apply_fractional_delay",
                "gen_impulse", "gen_pink_noise", "gen_sine"),
    "wavio": ("WavReader", "read_wav", "write_wav"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, as `bincues.rigsim` after `import bincues`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
