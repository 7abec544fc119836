import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from aad.audio_io import AudioClip
from aad.blocks import decode_blocks, encode_blocks
from aad.detector_api import _HEADER_LEN
from aad.features import FrameTensor, MelSpectrogram, stft


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs; numpy reports its array buffers to it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_clip(samples, sample_rate=16000):
    return AudioClip(samples=np.asarray(samples, dtype=float), sample_rate=sample_rate)


def sine_clip(freq=440.0, duration_s=1.0, sample_rate=16000, amplitude=1.0):
    t = np.arange(int(duration_s * sample_rate)) / sample_rate
    return make_clip(amplitude * np.sin(2 * np.pi * freq * t), sample_rate)


def mel_db_matrix(values, sample_rate=16000, hop_length=512):
    return MelSpectrogram(values=np.asarray(values, dtype=float), stage="db",
                          sample_rate=sample_rate, hop_length=hop_length)


def whole_mel_power(clip, fb, n_fft=1024, hop_length=512):
    """The reference Mel power fb @ |STFT|^2, over the clip's whole complex STFT."""
    spec = stft(clip, n_fft=n_fft, hop_length=hop_length)
    return MelSpectrogram(values=fb @ np.abs(spec.values) ** 2, stage="power",
                          sample_rate=clip.sample_rate, hop_length=hop_length)


def random_frames(num_frames=20, n_mels=12, frame_size=6, hop_size=3, seed=0,
                  sample_rate=16000, hop_length=512):
    """Frames cut from a uniform random spectrogram exactly num_frames frames wide."""
    gen = np.random.default_rng(seed)
    spectrogram = gen.uniform(0.0, 1.0, (n_mels, (num_frames - 1) * hop_size + frame_size))
    return FrameTensor(parts=(spectrogram,), frame_size=frame_size, hop_size=hop_size,
                       sample_rate=sample_rate, hop_length=hop_length)


def write_frame_archive(path, tensor, tail=b"", edit=None, **overrides):
    """Write a version-3 frame archive by hand, re-checksummed after appending tail.

    An override of None drops that block; any other value replaces it. edit,
    if given, maps the block table's bytes to the bytes checksummed and written.
    """
    header = b"AADFRAME" + struct.pack("<I", 3)
    blocks = {"spectrogram": tensor.parts[0].astype("<f4"), "frame_size": tensor.frame_size,
              "hop_size": tensor.hop_size, "sample_rate": tensor.sample_rate,
              "hop_length": tensor.hop_length, **overrides}
    table = encode_blocks({k: v for k, v in blocks.items() if v is not None})[4:] + tail
    if edit is not None:
        table = edit(table)
    crc = zlib.crc32(table, zlib.crc32(header))
    Path(path).write_bytes(header + struct.pack("<I", crc) + table)


def forge_model(model_bytes, edit=None, kind: bytes | None = None) -> bytes:
    """A model file's bytes with its blocks re-encoded, the block checksum redone.

    edit, if given, changes the decoded {name: array} dict in place; kind, if
    given, replaces the header's kind tag, otherwise the file keeps its header.
    """
    header = model_bytes[:_HEADER_LEN]
    blocks = decode_blocks(model_bytes[_HEADER_LEN:], "model", header)
    if edit is not None:
        edit(blocks)
    if kind is not None:
        header = header[:12] + kind.ljust(8, b"\x00") + header[20:]
    return header + encode_blocks(blocks, header)
