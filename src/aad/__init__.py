"""Acoustic anomaly detection pipeline.

WAV ingestion, Mel-spectrogram features, frame segmentation, three anomaly
detectors (K-Means, OC-SVM, LSTM autoencoder), percentile threshold
calibration, and a synthetic benchmark harness. See the `aad` CLI for the
end-to-end flow.
"""

from .audio_io import AudioClip, load_wav, rms_normalize, save_wav
from .calibration import CalibrationResult, ThresholdCandidate, percentile, select_by_f1, sweep_thresholds
from .detector_api import AnomalyScoreSeries, Detector, Vectorizer, persist, restore
from .features import (
    DB_FLOOR,
    FrameTensor,
    MelSpectrogram,
    StftMatrix,
    default_framing,
    fft_amplitude_spectrum,
    frame_pipeline,
    load_frames,
    mel_filterbank,
    mfcc,
    minmax_normalize,
    power_to_db,
    save_frames,
    segment_frames,
    stft,
)
from .kmeans import KMeansDetector, KMeansModel, kmeans_fit, kmeans_score
from .lstm_ae import LstmAeDetector, LstmAeModel, lstm_ae_forward, lstm_ae_init, lstm_ae_score, lstm_ae_train
from .metrics import ConfusionMatrix, EvalReport, confusion, precision_recall_f1, roc_auc, timed
from .ocsvm import OcSvmDetector, OcSvmModel, ocsvm_fit, ocsvm_score
from .synthgen import AnomalyInterval, LabeledClip, frame_labels, gen_normal, inject_knocks, inject_transient

__version__ = "0.1.0"
