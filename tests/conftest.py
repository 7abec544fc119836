import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from aad.audio_io import AudioClip
from aad.blocks import encode_blocks
from aad.features import FrameTensor, MelSpectrogram


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_clip(samples, sample_rate=16000):
    return AudioClip(samples=np.asarray(samples, dtype=float), sample_rate=sample_rate)


def sine_clip(freq=440.0, duration_s=1.0, sample_rate=16000, amplitude=1.0):
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    return make_clip(amplitude * np.sin(2 * np.pi * freq * t), sample_rate)


def mel_db_matrix(values, sample_rate=16000, hop_length=512):
    return MelSpectrogram(values=np.asarray(values, dtype=float), stage="db",
                          sample_rate=sample_rate, hop_length=hop_length)


def random_frames(num_frames=20, n_mels=12, frame_size=6, hop_size=3, seed=0,
                  sample_rate=16000, hop_length=512):
    gen = np.random.default_rng(seed)
    frames = gen.uniform(0.0, 1.0, (num_frames, n_mels, frame_size))
    origins = np.arange(num_frames, dtype=np.int64) * hop_size
    return FrameTensor(frames=frames, frame_size=frame_size, hop_size=hop_size,
                       origin_columns=origins, sample_rate=sample_rate, hop_length=hop_length)


def write_frame_archive(path, frames, tail=b"", **overrides):
    """Write a version-2 frame archive by hand, re-checksummed after appending tail.

    An override of None drops that block; any other value replaces it.
    """
    header = b"AADFRAME" + struct.pack("<I", 2)
    blocks = {"frames": frames.frames.astype("<f4"), "hop_size": frames.hop_size,
              "sample_rate": frames.sample_rate, "hop_length": frames.hop_length, **overrides}
    table = encode_blocks({k: v for k, v in blocks.items() if v is not None})[4:] + tail
    crc = zlib.crc32(table, zlib.crc32(header))
    Path(path).write_bytes(header + struct.pack("<I", crc) + table)
