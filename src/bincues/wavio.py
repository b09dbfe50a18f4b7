"""RIFF/WAVE file I/O.

Supports little-endian PCM (16- and 24-bit integer) and 32-bit float, mono
or stereo, at any sample rate. Integer samples map to amplitude by 1/32768
(16-bit) or 1/8388608 (24-bit); writing a value whose quantized code would
overflow the integer range raises ClippingError rather than saturating.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ClippingError, ValidationError, WavFormatError
from .signals import SampleBuffer, StereoBuffer

_TAG_PCM = 0x0001
_TAG_FLOAT = 0x0003
_TAG_EXTENSIBLE = 0xFFFE

PCM16_SCALE = 32768.0
PCM24_SCALE = 8388608.0

ENCODINGS = ("float32", "pcm16", "pcm24")


def _encode(frames: np.ndarray, encoding: str) -> tuple[bytes, int, int]:
    """Return (payload, format_tag, bits_per_sample) for interleaved frames."""
    if encoding == "float32":
        return frames.astype("<f4").tobytes(), _TAG_FLOAT, 32
    if encoding == "pcm16":
        q = np.round(frames * PCM16_SCALE)
        if q.max(initial=0.0) > 32767 or q.min(initial=0.0) < -32768:
            raise ClippingError("samples exceed the 16-bit PCM range; reduce level or use float32")
        return q.astype("<i2").tobytes(), _TAG_PCM, 16
    if encoding == "pcm24":
        q = np.round(frames * PCM24_SCALE)
        if q.max(initial=0.0) > 8388607 or q.min(initial=0.0) < -8388608:
            raise ClippingError("samples exceed the 24-bit PCM range; reduce level or use float32")
        as32 = q.astype("<i4")
        # keep the low three little-endian bytes of each 32-bit code
        return as32.view(np.uint8).reshape(-1, 4)[:, :3].tobytes(), _TAG_PCM, 24
    raise ValidationError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")


def write_wav(path: str | Path, buffer: SampleBuffer | StereoBuffer,
              encoding: str = "float32") -> None:
    """Write a mono or stereo buffer as a RIFF/WAVE file."""
    if isinstance(buffer, StereoBuffer):
        frames = np.column_stack([buffer.left.samples, buffer.right.samples])
        rate = buffer.sample_rate
    elif isinstance(buffer, SampleBuffer):
        frames = buffer.samples[:, None]
        rate = buffer.sample_rate
    else:
        raise ValidationError(f"expected SampleBuffer or StereoBuffer, got {type(buffer).__name__}")

    channels = frames.shape[1]
    payload, tag, bits = _encode(frames.reshape(-1), encoding)
    block_align = channels * bits // 8
    byte_rate = rate * block_align

    header = b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, byte_rate,
                                   block_align, bits)
    if tag == _TAG_FLOAT:
        header += b"fact" + struct.pack("<II", 4, frames.shape[0])
    header += b"data" + struct.pack("<I", len(payload))
    pad = b"\x00" * (len(payload) % 2)
    riff_size = 4 + len(header) + len(payload) + len(pad)
    # The payload goes out in its own write, so it is never copied into a bigger bytes object.
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + header)
        fh.write(payload)
        fh.write(pad)


def _decode(payload: bytes, tag: int, bits: int) -> np.ndarray:
    if tag == _TAG_PCM and bits == 16:
        return np.frombuffer(payload, dtype="<i2").astype(np.float64) / PCM16_SCALE
    if tag == _TAG_PCM and bits == 24:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        codes = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        codes = np.where(codes >= 1 << 23, codes - (1 << 24), codes)
        return codes.astype(np.float64) / PCM24_SCALE
    if tag == _TAG_FLOAT and bits == 32:
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)
    raise WavFormatError(f"unsupported encoding: format tag {tag}, {bits} bits per sample")


def read_wav(path: str | Path) -> SampleBuffer | StereoBuffer:
    """Read a WAV file; returns SampleBuffer for mono, StereoBuffer for stereo.

    Raises WavFormatError for malformed files, unsupported encodings, more
    than two channels, a zero sample rate, or float samples that are NaN or inf.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt: bytes | None = None
    payload: bytes | None = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4 : pos + 8])
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: fmt chunk too short")

    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == _TAG_EXTENSIBLE:
        if len(fmt) < 26:
            raise WavFormatError(f"{path}: extensible fmt chunk too short")
        (tag,) = struct.unpack("<H", fmt[24:26])
    if channels == 0 or channels > 2:
        raise WavFormatError(f"{path}: {channels} channels; only mono and stereo are supported")
    if rate == 0:
        raise WavFormatError(f"{path}: sample rate is 0")

    frame_bytes = channels * bits // 8
    if frame_bytes == 0 or len(payload) % frame_bytes:
        raise WavFormatError(f"{path}: data size is not a whole number of frames")

    samples = _decode(payload, tag, bits).reshape(-1, channels)
    try:
        channel_buffers = [SampleBuffer(samples[:, c], rate) for c in range(channels)]
    except ValidationError as exc:  # float samples that are NaN or inf
        raise WavFormatError(f"{path}: {exc}") from None
    return channel_buffers[0] if channels == 1 else StereoBuffer(*channel_buffers)
