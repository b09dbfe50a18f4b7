"""RIFF/WAVE file I/O.

Supports little-endian PCM (16- and 24-bit integer) and 32-bit float, mono
or stereo, at any sample rate. Integer samples map to amplitude by 1/32768
(16-bit) or 1/8388608 (24-bit); writing a value whose quantized code would
overflow the integer range raises ClippingError, before the file is opened,
rather than saturating. Every encoding's samples are exact in float32, so a read
holds float32 channels, which its buffers adopt: about 1x a float32 file plus one
step of about 1 MiB of file bytes, never the whole file. WavReader.blocks also
streams float64 samples with no channel arrays at all. A write likewise holds
about 1 MiB: it encodes and writes the data chunk in whole-frame steps whose
codes, and for PCM one channel's float64 scaled samples, fit in 1 MiB.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ClippingError, ValidationError, WavFormatError
from .signals import SampleBuffer, StereoBuffer

_TAG_PCM = 0x0001
_TAG_FLOAT = 0x0003
_TAG_EXTENSIBLE = 0xFFFE

# One row per encoding: format tag, bits per sample, code dtype and full scale
_FORMATS = {
    "float32": (_TAG_FLOAT, 32, "<f4", 1.0),
    "pcm16": (_TAG_PCM, 16, "<i2", 2.0**15),
    "pcm24": (_TAG_PCM, 24, "<i4", 2.0**23),  # the file keeps the low three bytes of the <i4
}
ENCODINGS = tuple(_FORMATS)
_CHUNK_BYTES = 1 << 20  # file bytes per read or write step, rounded down to whole frames


def _encode(channels: list[np.ndarray], encoding: str) -> np.ndarray:
    """Return the payload: the channels' codes, interleaved. PCM samples are scaled and
    rounded in one float64 scratch array, with no range check."""
    tag, bits, dtype, scale = _FORMATS[encoding]
    codes = np.empty((channels[0].size, len(channels)), dtype)
    scratch = np.empty(channels[0].size if tag == _TAG_PCM else 0)
    for c, samples in enumerate(channels):
        if tag == _TAG_PCM:
            samples = np.round(np.multiply(samples, scale, out=scratch), out=scratch)
        codes[:, c] = samples
    del scratch, samples  # before the byte planes
    if bits == 24:  # each code's low three bytes, little-endian, one byte plane at a time
        flat, codes = codes.reshape(-1), np.empty((codes.size, 3), np.uint8)
        for plane in codes.T:
            plane[...] = flat  # the cast keeps the low byte
            flat >>= 8
    return codes


def write_wav(path: str | Path, buffer: SampleBuffer | StereoBuffer,
              encoding: str = "float32") -> None:
    """Write a mono or stereo buffer as a RIFF/WAVE file.

    The data chunk is encoded and written in whole-frame steps that hold about 1 MiB: their
    codes and, for PCM, one channel's float64 scaled samples. A PCM sample whose code would
    overflow raises ClippingError, and a byte rate or file size past the header's 32-bit fields
    ValidationError, before the file is opened.
    """
    if isinstance(buffer, StereoBuffer):
        channels = [buffer.left.samples, buffer.right.samples]
    elif isinstance(buffer, SampleBuffer):
        channels = [buffer.samples]
    else:
        raise ValidationError(f"expected SampleBuffer or StereoBuffer, got {type(buffer).__name__}")
    if encoding not in _FORMATS:
        raise ValidationError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")
    tag, bits, dtype, scale = _FORMATS[encoding]
    if tag == _TAG_PCM:  # scaling and rounding are monotone: a channel's extremes bound its codes
        for samples in channels:
            extremes = np.array([samples.min(initial=0.0), samples.max(initial=0.0)])
            low, high = np.round(extremes * scale)
            if low < -scale or high > scale - 1:
                raise ClippingError(f"samples exceed the {bits}-bit PCM range; reduce level or use float32")
    rate, frames = buffer.sample_rate, channels[0].size
    block_align = len(channels) * bits // 8
    byte_rate, data_bytes = rate * block_align, frames * block_align
    # "WAVE", the fmt chunk (24 bytes), float32's fact chunk (12), the data chunk's header (8)
    # and its padded data: the RIFF size, which bounds the data size
    riff_size = 4 + 24 + 12 * (tag == _TAG_FLOAT) + 8 + data_bytes + data_bytes % 2
    if max(byte_rate, riff_size) > 2**32 - 1:
        raise ValidationError(f"a WAV header holds a byte rate and a RIFF size up to 2**32 - 1;"
                              f" {len(channels)} {encoding} channel(s) of {frames} samples at"
                              f" {rate} Hz need {byte_rate} and {riff_size}")

    header = b"fmt " + struct.pack("<IHHIIHH", 16, tag, len(channels), rate, byte_rate,
                                   block_align, bits)
    if tag == _TAG_FLOAT:
        header += b"fact" + struct.pack("<II", 4, frames)
    header += b"data" + struct.pack("<I", data_bytes)
    pad = b"\x00" * (data_bytes % 2)
    # A step's codes and a PCM step's float64 scratch fit in _CHUNK_BYTES; pcm24's byte planes
    # replace the scratch and are smaller.
    step = _CHUNK_BYTES // (len(channels) * np.dtype(dtype).itemsize + 8 * (tag == _TAG_PCM))
    # Each step's codes go out in their own write, so they are never copied into a bytes
    # object, and are dropped before the next step is encoded.
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + header)
        for start in range(0, frames, step):
            fh.write(_encode([c[start : start + step] for c in channels], encoding))
        fh.write(pad)


class WavReader:
    """An open RIFF/WAVE file whose samples are read in whole-frame steps of about 1 MiB.

    Opening walks the chunk headers with seeks and checks the format, so `channels`,
    `sample_rate` and `frames` (samples per channel) are known before any sample is read.
    It is a context manager that closes the file, and iterating it draws blocks(). Raises
    WavFormatError for malformed files, unsupported encodings, over two channels or a 0 Hz rate.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._fh.close()

    def __iter__(self) -> Iterator[list[np.ndarray]]:
        return self.blocks()

    def _read_header(self) -> None:
        path, fh = self.path, self._fh
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt, data_at, data_size = None, None, 0
        pos = 12
        while pos + 8 <= file_size:
            fh.seek(pos)
            chunk_id, size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + size > file_size:
                raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
            if chunk_id == b"fmt ":
                fmt = fh.read(min(size, 26))  # no field past the extensible tag is read
            elif chunk_id == b"data":
                data_at, data_size = pos + 8, size
            pos += 8 + size + (size & 1)
        if fmt is None or data_at is None:
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
        if frame_bytes == 0 or data_size % frame_bytes:
            raise WavFormatError(f"{path}: data size is not a whole number of frames")
        rows = [row for row in _FORMATS.values() if row[:2] == (tag, bits)]
        if not rows:
            raise WavFormatError(f"unsupported encoding: format tag {tag}, {bits} bits per sample")
        self.channels, self.sample_rate, self.frames = channels, rate, data_size // frame_bytes
        self._data_at, self._bits, self._dtype, self._scale = data_at, bits, rows[0][2], rows[0][3]

    def blocks(self, out: list[np.ndarray] | None = None) -> Iterator[list[np.ndarray]]:
        """Decodes the data chunk in whole-frame steps of about 1 MiB, yielding each step as
        one array per channel.

        Into `out`, one float32 array of `frames` samples per channel, which holds every
        encoding's samples exactly, each step is decoded in place and yielded as views of it,
        which the caller checks (read_wav's buffers do). Without `out` the steps are float64
        views of one step buffer, valid until the next step, and a float sample that is NaN or
        inf raises WavFormatError.
        """
        channels, bits, frames = self.channels, self._bits, self.frames
        frame_bytes = channels * bits // 8
        step = _CHUNK_BYTES // frame_bytes
        lead = int(bits == 24)  # a byte ahead of the data: each pcm24 code is the top of an <i4
        raw = bytearray(lead + min(step, frames) * frame_bytes)
        own = out is None
        if own:
            out = list(np.empty((channels, min(step, frames))))
        self._fh.seek(self._data_at)
        for start in range(0, frames, step):
            count = min(step, frames - start)
            view = memoryview(raw)[lead : lead + count * frame_bytes]
            if self._fh.readinto(view) < count * frame_bytes:
                raise WavFormatError(f"{self.path}: truncated b'data' chunk")
            codes = np.ndarray((count, channels), self._dtype, raw,
                               strides=(frame_bytes, bits // 8))
            parts = [o[:count] if own else o[start : start + count] for o in out]
            for c, part in enumerate(parts):
                if bits == 32:  # float32 codes, copied or widened exactly
                    part[...] = codes[:, c]
                    # min and max carry any NaN or inf, as SampleBuffer's check does
                    if own and not (np.isfinite(part.min()) and np.isfinite(part.max())):
                        raise WavFormatError(f"{self.path}: samples must be finite; the data"
                                             " chunk holds NaN or inf")
                else:  # pcm24's arithmetic shift drops the <i4's low byte, which precedes the code
                    np.divide(codes[:, c] >> 8 if bits == 24 else codes[:, c], self._scale,
                              out=part)
            yield parts


def read_wav(path: str | Path) -> SampleBuffer | StereoBuffer:
    """Read a WAV file; returns SampleBuffer for mono, StereoBuffer for stereo.

    A WavReader decodes the data chunk in whole-frame steps of about 1 MiB straight into
    one float32 array per channel, exact for every encoding, which each buffer adopts: a read
    holds 4 bytes a sample, 1x a float32 file, plus one step.

    Raises WavFormatError for malformed files, unsupported encodings, more
    than two channels, a zero sample rate, or float samples that are NaN or inf.
    """
    with WavReader(path) as wav:
        samples = [np.empty(wav.frames, np.float32) for _ in range(wav.channels)]
        for _ in wav.blocks(samples):
            pass
    for out in samples:
        out.setflags(write=False)
    try:
        channel_buffers = [SampleBuffer(out, wav.sample_rate) for out in samples]
    except ValidationError as exc:  # float samples that are NaN or inf
        raise WavFormatError(f"{path}: {exc}") from None
    return channel_buffers[0] if wav.channels == 1 else StereoBuffer(*channel_buffers)
