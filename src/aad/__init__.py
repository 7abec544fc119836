"""Acoustic anomaly detection pipeline.

WAV ingestion, Mel-spectrogram features, frame segmentation, three anomaly
detectors (K-Means, OC-SVM, LSTM autoencoder), percentile threshold
calibration, and a synthetic benchmark harness. See the `aad` CLI for the
end-to-end flow; library callers import the modules (`from aad import features`).
"""

# restore() finds each detector kind among Detector.__subclasses__(), so all three are imported here
from . import kmeans, lstm_ae, ocsvm
