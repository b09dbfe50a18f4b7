"""Binaural-cue models, dual-channel measurement, and recording-rig simulation."""

__version__ = "0.1.0"  # the one version string; pyproject.toml and reports read it

from .analysis import (CalibrationVerdict, CueReport, TransferFunction, analyze_blocks,
                       analyze_capture, band_itd, calibration_check, cross_correlation,
                       estimate_itd, ild_spectrum_summary, transfer_function)
from .cue_models import (CueBand, DuplexThresholds, HeadGeometry, ShadowParams,
                         duplex_classify, head_shadow_ild, ild_min_frequency, ipd_from_itd,
                         itd_modified, itd_simple, speed_of_sound, wrap_phase_deg)
from .errors import (AnalysisError, BincuesError, ClippingError, SilentSignalError,
                     ValidationError, WavFormatError)
from .render import RenderSpec, binauralize, binauralize_scene
from .rigsim import (RigKind, RigSpec, SourceSpec, default_rig, far_ear, fit_path_extension,
                     full_dummy, human_head, jecklin, load_rig_config, ortf,
                     predicted_ild_db, predicted_itd, save_rig_config,
                     shadow_filter_kernel, semi_dummy, simulate_capture)
from .signals import (DEFAULT_SAMPLE_RATE, SampleBuffer, StereoBuffer,
                      apply_fractional_delay, gen_impulse, gen_pink_noise, gen_sine)
from .wavio import WavReader, read_wav, write_wav
