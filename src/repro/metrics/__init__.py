"""Error and quality metrics used throughout the study."""
from .acceptance import (
    DEFAULT_MAA_THRESHOLDS,
    AcceptanceCurve,
    acceptance_curve,
    acceptance_probability,
    result_accuracy,
)
from .clustering import confusion_matrix, match_labels, success_rate
from .error import (
    ErrorReport,
    bias,
    bit_error_metrics,
    bit_error_rate,
    characterize_error,
    error_rate,
    mean_absolute_error,
    mean_relative_error,
    mse,
    mse_db,
    positional_bit_error_rate,
)
from .image import SsimReference, SsimResult, gaussian_window, mssim, ssim
from .signal import psnr_db, signal_mse, snr_db
from .spectral import ErrorPdf, ErrorPsd, error_pdf, error_psd

__all__ = [
    "ErrorReport",
    "characterize_error",
    "mse",
    "mse_db",
    "mean_absolute_error",
    "bias",
    "error_rate",
    "mean_relative_error",
    "bit_error_metrics",
    "bit_error_rate",
    "positional_bit_error_rate",
    "AcceptanceCurve",
    "acceptance_curve",
    "acceptance_probability",
    "result_accuracy",
    "DEFAULT_MAA_THRESHOLDS",
    "ErrorPdf",
    "ErrorPsd",
    "error_pdf",
    "error_psd",
    "psnr_db",
    "snr_db",
    "signal_mse",
    "SsimReference",
    "SsimResult",
    "ssim",
    "mssim",
    "gaussian_window",
    "confusion_matrix",
    "match_labels",
    "success_rate",
]
