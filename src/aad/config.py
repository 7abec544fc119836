"""Run configuration and dataset manifest handling.

Config files are line-oriented ``key = value`` text; the digest is a sha256
over canonical sorted lines, so key order never changes it. Manifests are
tab-separated ``path<TAB>split[<TAB>labels_path]`` rows with '#' comments.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ManifestError

SPLITS = ("train", "val", "calib", "test")


@dataclass
class RunConfig:
    n_fft: int = 1024
    hop_length: int = 512
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float | None = None          # None = sample_rate / 2
    time_per_frame: float = 0.512
    hop_ratio: float = 0.2
    target_rms: float | None = 0.1     # None disables RMS normalization
    denoise: bool = False
    denoise_percentile: float = 20.0
    denoise_margin_db: float = 6.0
    kmeans_k: int = 8
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-4
    ocsvm_nu: float = 0.1
    ocsvm_gamma: float | str = "scale"
    ocsvm_tol: float = 1e-3
    ocsvm_max_passes: int = 50
    lstm_hidden: int = 64
    lstm_epochs: int = 30
    lstm_batch: int = 64
    lstm_lr: float = 1e-3
    seed: int = 0

    def canonical_lines(self) -> list[str]:
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return lines

    def digest(self) -> bytes:
        return hashlib.sha256("\n".join(self.canonical_lines()).encode()).digest()

    def digest_hex(self) -> str:
        return self.digest().hex()

    def write(self, path) -> None:
        text = "".join(f"{f.name} = {_format_value(getattr(self, f.name))}\n"
                       for f in dataclasses.fields(self))
        Path(path).write_text(text)


def _text_lines(path, error_type) -> list[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file; undecodable bytes raise error_type at file:line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error_type(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc
    return list(enumerate(text.splitlines(), start=1))


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _coerce(name: str, text: str, field_type):
    text = text.strip()
    lowered = text.lower()
    if name in ("fmax", "target_rms"):
        return None if lowered in ("none", "") else float(text)
    if name == "ocsvm_gamma":
        return "scale" if lowered == "scale" else float(text)
    if field_type is bool or lowered in ("true", "false"):
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: cannot parse boolean from {text!r}")
    if field_type is int:
        return int(text)
    if field_type is float:
        return float(text)
    return text


def load_config(path) -> RunConfig:
    """Parse a key = value config file; unknown keys are errors."""
    # fmax, target_rms and ocsvm_gamma have default types that _coerce special-cases
    types = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
    values = {}
    for lineno, line in _text_lines(path, ConfigError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, value, types[key])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


@dataclass(frozen=True)
class ManifestRecord:
    wav: Path
    split: str
    labels: Path | None = None


def load_manifest(path) -> list[ManifestRecord]:
    """Read and validate a dataset manifest.

    train/val rows must be label-free (normal-only by contract); test rows
    must name a labels file (possibly listing zero intervals).
    """
    path = Path(path)
    base = path.parent
    records = []
    for lineno, line in _text_lines(path, ManifestError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) not in (2, 3):
            raise ManifestError(f"{path}:{lineno}: expected 'path<TAB>split[<TAB>labels]'")
        wav = base / parts[0]
        split = parts[1].strip()
        labels = base / parts[2] if len(parts) == 3 and parts[2] else None
        if split not in SPLITS:
            raise ManifestError(f"{path}:{lineno}: unknown split {split!r}")
        if split in ("train", "val") and labels is not None:
            raise ManifestError(f"{path}:{lineno}: {split} records are normal-only, no labels allowed")
        if split == "test" and labels is None:
            raise ManifestError(f"{path}:{lineno}: test records need a labels file")
        records.append(ManifestRecord(wav=wav, split=split, labels=labels))
    if not records:
        raise ManifestError(f"{path}: empty manifest")
    return records


def write_manifest(path, rows: list[tuple[str, str, str | None]]) -> None:
    """Write manifest rows given as (wav_name, split, labels_name or None)."""
    with open(path, "w") as fh:
        fh.write("# path\tsplit\tlabels\n")
        for wav, split, labels in rows:
            if labels:
                fh.write(f"{wav}\t{split}\t{labels}\n")
            else:
                fh.write(f"{wav}\t{split}\n")
