import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincues import (ClippingError, SampleBuffer, StereoBuffer, ValidationError,
                     WavFormatError, read_wav, wavio, write_wav)

SR = 48000


def float32_noise(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n).astype(np.float32).astype(np.float64)


def test_float32_stereo_round_trip_bit_exact(tmp_path):
    left = SampleBuffer(float32_noise(4096, 0), SR)
    right = SampleBuffer(float32_noise(4096, 1), SR)
    path = tmp_path / "stereo.wav"
    write_wav(path, StereoBuffer(left, right))
    back = read_wav(path)
    assert isinstance(back, StereoBuffer)
    assert back.sample_rate == SR
    assert np.array_equal(back.left.samples, left.samples)
    assert np.array_equal(back.right.samples, right.samples)


def test_float32_read_widens_every_code_bit_exactly(tmp_path):
    # every finite float32 class: normals, subnormals, both zeros, the extremes
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**32, 20000, dtype=np.uint64).astype(np.uint32)
    bits = bits[(bits & 0x7F800000) != 0x7F800000]  # drop NaN and inf
    extremes = [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF]
    codes = np.concatenate([bits, np.array(extremes, np.uint32)]).view("<f4")
    path = tmp_path / "codes.wav"
    path.write_bytes(riff((b"fmt ", struct.pack("<HHIIHH", 3, 1, SR, 4 * SR, 4, 32)),
                          (b"data", codes.tobytes())))
    back = read_wav(path).samples
    assert back.dtype == np.float32 and np.array_equal(back.view(np.uint32), codes.view(np.uint32))
    # so each sample widens to the very float64 bits of its code
    widened = back.astype(np.float64).view(np.uint64)
    assert np.array_equal(widened, codes.astype(np.float64).view(np.uint64))


def test_float32_mono_round_trip(tmp_path):
    buf = SampleBuffer(float32_noise(1000, 2), 44100)
    path = tmp_path / "mono.wav"
    write_wav(path, buf)
    back = read_wav(path)
    assert isinstance(back, SampleBuffer)
    assert back.sample_rate == 44100
    assert np.array_equal(back.samples, buf.samples)


def test_pcm16_scaling_convention(tmp_path):
    codes = np.array([-32768, -1, 0, 1, 12345, 32767])
    buf = SampleBuffer(codes / 32768.0, SR)
    path = tmp_path / "q16.wav"
    write_wav(path, buf, encoding="pcm16")
    back = read_wav(path)
    assert np.array_equal(back.samples, codes / 32768.0)


def test_pcm16_full_scale_positive_clips(tmp_path):
    buf = SampleBuffer(np.array([0.0, 1.0]), SR)
    with pytest.raises(ClippingError):
        write_wav(tmp_path / "clip.wav", buf, encoding="pcm16")


@pytest.mark.parametrize("encoding, scale", [("pcm16", 2.0**15), ("pcm24", 2.0**23)])
def test_pcm_clip_rule_keeps_every_code_in_range(tmp_path, encoding, scale):
    path = tmp_path / "edge.wav"
    edges = np.array([-1.0, (scale - 1) / scale])  # the lowest and the highest code
    write_wav(path, SampleBuffer(edges, SR), encoding=encoding)
    assert np.array_equal(read_wav(path).samples, edges)
    for over in (1.0, -(scale + 1) / scale):
        with pytest.raises(ClippingError):
            write_wav(path, SampleBuffer(np.array([0.0, over]), SR), encoding=encoding)


def test_pcm24_round_trip_on_grid(tmp_path):
    codes = np.array([-(1 << 23), -77, 0, 1, 123456, (1 << 23) - 1])
    buf = SampleBuffer(codes / float(1 << 23), SR)
    path = tmp_path / "q24.wav"
    write_wav(path, buf, encoding="pcm24")
    back = read_wav(path)
    assert np.array_equal(back.samples, codes / float(1 << 23))

    # random stereo codes over the full range: every sign bit and byte pattern is decoded
    left, right = np.random.default_rng(24).integers(-(1 << 23), 1 << 23, (2, 5001))
    write_wav(path, StereoBuffer(SampleBuffer(left / float(1 << 23), SR),
                                 SampleBuffer(right / float(1 << 23), SR)), encoding="pcm24")
    back = read_wav(path)
    assert np.array_equal(back.left.samples * (1 << 23), left)
    assert np.array_equal(back.right.samples * (1 << 23), right)


def test_pcm24_payload_is_each_codes_low_three_bytes():
    # the byte planes hold what the little-endian <i4 codes' first three bytes hold, for
    # random codes of both signs and both full-scale edges, in either channel
    codes = np.random.default_rng(3).integers(-(1 << 23), 1 << 23, (2, 4001))
    codes[:, :4] = [[-(1 << 23), (1 << 23) - 1, -1, 0], [(1 << 23) - 1, -(1 << 23), 0, -1]]
    payload = wavio._encode([c / float(1 << 23) for c in codes], "pcm24")
    want = np.ascontiguousarray(codes.T, "<i4").view(np.uint8).reshape(-1, 4)[:, :3]
    assert payload.dtype == np.uint8 and payload.tobytes() == want.tobytes()


def test_pcm24_odd_frame_count_pads(tmp_path):
    buf = SampleBuffer(np.array([0.5, -0.25, 0.125]), SR)  # 9 payload bytes, needs a pad
    path = tmp_path / "odd24.wav"
    write_wav(path, buf, encoding="pcm24")
    back = read_wav(path)
    assert len(back) == 3
    np.testing.assert_allclose(back.samples, buf.samples, atol=1.0 / (1 << 23))


def read_peak(path):
    """(buffer, peak bytes traced while read_wav reads path)."""
    tracemalloc.start()
    try:
        back = read_wav(path)
        return back, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float32_read_holds_the_file_plus_one_step(tmp_path):
    # Each step of file bytes is copied straight into the two float32 channels, which the
    # buffers adopt, so the peak is the channels, 1x the file, plus one step; a quarter step
    # covers the small objects. A copy of the file bytes or of a channel would add 1x the
    # file, and float64 channels another 1x.
    path = tmp_path / "long.wav"
    mono = SampleBuffer(float32_noise(1 << 19, 3), SR)
    write_wav(path, StereoBuffer(mono, mono))
    back, peak = read_peak(path)
    assert np.array_equal(back.right.samples, mono.samples)
    assert back.right.samples.dtype == np.float32
    assert peak < path.stat().st_size + 1.25 * wavio._CHUNK_BYTES, peak / path.stat().st_size


@pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
def test_read_peaks_at_the_channels_plus_two_chunks(tmp_path, encoding):
    # The reader never holds the whole file, and no encoding passes through an interleaved
    # float64 array: a pcm16 read that did peaked at 9.3x the file. The channels are float32,
    # 4 bytes a sample.
    path = tmp_path / f"long_{encoding}.wav"
    left, right = (SampleBuffer(0.5 * float32_noise(1 << 19, seed), SR) for seed in (4, 5))
    write_wav(path, StereoBuffer(left, right), encoding=encoding)
    back, peak = read_peak(path)
    assert np.allclose(back.left.samples, left.samples, rtol=0, atol=2.0**-15)
    channels = 2 * (1 << 19) * 4
    assert peak <= channels + 2 * wavio._CHUNK_BYTES, (peak - channels) / wavio._CHUNK_BYTES


# Code dtype, full scale and format tag of each encoding, as the reader's oracle sees them.
ORACLE = {"float32": ("<f4", 1.0, 3), "pcm16": ("<i2", 2.0**15, 1), "pcm24": ("<i4", 2.0**23, 1)}


def whole_payload_decode(payload, encoding, channels):
    """Samples by frame and channel, from one np.frombuffer over the whole data chunk."""
    dtype, scale, _ = ORACLE[encoding]
    if encoding == "pcm24":  # three little-endian bytes, sign-extended from bit 23
        b = np.frombuffer(payload, np.uint8).reshape(-1, 3).astype(np.int64)
        codes = b[:, 0] | b[:, 1] << 8 | b[:, 2] << 16
        codes -= (codes >> 23) << 24
    else:
        codes = np.frombuffer(payload, dtype)
    return (codes / scale).reshape(-1, channels)


@given(encoding=st.sampled_from(sorted(ORACLE)), channels=st.sampled_from([1, 2]),
       step_frames=st.integers(1, 5), spare=st.integers(0, 7), data=st.data(),
       list_after_data=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_reader_steps_across_chunk_boundaries(tmp_path_factory, encoding, channels, step_frames,
                                              spare, data, list_after_data, seed):
    # The read step is cut to a few frames (plus spare bytes short of a frame, which round
    # down), so files of 0-3 steps decode across every kind of boundary: a step that ends
    # the data, a partial last step, pcm24's odd pad byte and a chunk after the data.
    dtype, _, tag = ORACLE[encoding]
    width = 3 if encoding == "pcm24" else np.dtype(dtype).itemsize
    frame_bytes = channels * width
    frames = data.draw(st.integers(0, 3 * step_frames), label="frames")
    rng = np.random.default_rng(seed)
    if encoding == "float32":
        payload = rng.uniform(-2.0, 2.0, frames * channels).astype("<f4").tobytes()
    else:
        payload = rng.bytes(frames * frame_bytes)
    fmt = struct.pack("<HHIIHH", tag, channels, SR, SR * frame_bytes, frame_bytes, 8 * width)
    chunks = [(b"fmt ", fmt), (b"data", payload)]
    if list_after_data:
        chunks.append((b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00"))
    path = tmp_path_factory.getbasetemp() / "steps.wav"
    path.write_bytes(riff(*chunks))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavio, "_CHUNK_BYTES", step_frames * frame_bytes + spare % frame_bytes)
        back = read_wav(path)
        with wavio.WavReader(path) as wav:  # the same steps, streamed through one step buffer
            assert (wav.channels, wav.sample_rate, wav.frames) == (channels, SR, frames)
            steps = [[part.copy() for part in step] for step in wav.blocks()]
    got = [back.samples] if channels == 1 else [back.left.samples, back.right.samples]
    want = whole_payload_decode(payload, encoding, channels)
    for c, samples in enumerate(got):
        # float32 holds every code exactly: the samples are the oracle's values, and a float32
        # file's samples are its codes, bit for bit (signed zeros too)
        assert samples.dtype == np.float32 and not samples.flags.writeable
        assert np.array_equal(samples.astype(np.float64), want[:, c])
        if encoding == "float32":
            codes = np.frombuffer(payload, "<u4").reshape(-1, channels)[:, c]
            assert np.array_equal(samples.view(np.uint32), codes)
        streamed = np.concatenate([step[c] for step in steps] or [np.empty(0)])
        assert streamed.dtype == np.float64 and np.array_equal(streamed, want[:, c])
    assert all(step[0].size <= step_frames for step in steps)


def whole_buffer_file(channels, encoding):
    """The WAV file of the channels from one pass over the whole buffer: every sample scaled,
    rounded and cast at once, interleaved, each pcm24 code's low three bytes kept."""
    dtype, scale, tag = ORACLE[encoding]
    codes = np.stack(channels, axis=1) * scale
    codes = (np.round(codes) if scale != 1.0 else codes).astype(dtype)
    width = 3 if encoding == "pcm24" else codes.itemsize
    payload = codes.view(np.uint8).reshape(-1, codes.itemsize)[:, :width].tobytes()
    frames, frame_bytes = codes.shape[0], len(channels) * width
    fmt = struct.pack("<HHIIHH", tag, len(channels), SR, SR * frame_bytes, frame_bytes, 8 * width)
    fact = [(b"fact", struct.pack("<I", frames))] if encoding == "float32" else []
    return riff((b"fmt ", fmt), *fact, (b"data", payload))


def as_buffer(channels):
    buffers = [SampleBuffer(c, SR) for c in channels]
    return buffers[0] if len(buffers) == 1 else StereoBuffer(*buffers)


@given(encoding=st.sampled_from(sorted(ORACLE)), channels=st.sampled_from([1, 2]),
       step_frames=st.integers(1, 5), spare=st.integers(0, 7), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_write_steps_give_the_whole_buffer_bytes(tmp_path_factory, encoding, channels,
                                                 step_frames, spare, data, seed):
    # The write step is cut to a few frames (plus spare bytes short of a frame, which round
    # down), so files a frame short of a step, of one step, a frame over and of 2.5 steps are
    # encoded across every kind of step boundary. PCM samples sit on, between and halfway
    # between codes, so rounding ties are written too.
    dtype, scale, _ = ORACLE[encoding]
    # a write step holds each frame's codes and, for PCM, one channel's float64 scaled sample
    frame = channels * np.dtype(dtype).itemsize + (0 if encoding == "float32" else 8)
    frames = data.draw(st.sampled_from([step_frames - 1, step_frames, step_frames + 1,
                                        5 * step_frames // 2]) | st.integers(0, 3 * step_frames),
                       label="frames")
    rng = np.random.default_rng(seed)
    if encoding == "float32":
        samples = rng.uniform(-2.0, 2.0, (channels, frames))
    else:
        samples = rng.integers(1 - scale, scale - 1, (channels, frames))
        samples = (samples + rng.choice([0.0, 0.5, -0.5, 0.3], samples.shape)) / scale
    path = tmp_path_factory.getbasetemp() / "steps_out.wav"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavio, "_CHUNK_BYTES", step_frames * frame + spare % frame)
        write_wav(path, as_buffer(list(samples)), encoding=encoding)
    assert path.read_bytes() == whole_buffer_file(list(samples), encoding)


@pytest.mark.parametrize("encoding, layout", [(e, n) for n in (2, 1) for e in ORACLE],
                         ids=[f"{'mono-' * (n == 1)}{e}" for n in (2, 1) for e in ORACLE])
def test_write_holds_one_step_of_codes(tmp_path, encoding, layout):
    # 30 s is 11 MiB a channel. Encoding it whole held every code and a float64 copy of each
    # channel: 11.0, 16.5 and 30.2 MiB in stereo. A step holds about 1 MiB: its codes and, for
    # PCM, one channel's scaled samples. Steps of 1 MiB of codes beside a scratch of the whole
    # step held up to 5 MiB (mono pcm16).
    channels = [0.5 * float32_noise(30 * SR, seed) for seed in (6, 7)][:layout]
    buffer, path = as_buffer(channels), tmp_path / f"long_{encoding}.wav"
    write_wav(path, as_buffer([c[:10] for c in channels]), encoding=encoding)
    tracemalloc.start()
    try:
        write_wav(path, buffer, encoding=encoding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2**20, peak / 2**20
    assert path.read_bytes() == whole_buffer_file(channels, encoding)


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24"])
def test_a_clip_in_the_last_write_step_leaves_no_file(tmp_path, encoding):
    # The clip check reads each channel's extremes before the file is opened, so a code that
    # overflows only in the last step raises before any step is written.
    _, scale, _ = ORACLE[encoding]
    step = wavio._CHUNK_BYTES // (2 * (3 if encoding == "pcm24" else 2))
    path = tmp_path / "clip.wav"
    for c, over in ((0, -(scale + 1) / scale), (1, 1.0)):
        channels = [np.zeros(2 * step + 10), np.zeros(2 * step + 10)]
        channels[c][-1] = over
        with pytest.raises(ClippingError):
            write_wav(path, as_buffer(channels), encoding=encoding)
        assert not path.exists()


def test_a_rate_past_the_header_fields_leaves_no_file(tmp_path):
    # 600 MHz stereo float32 is 4.8e9 bytes a second, past the header's 32-bit byte rate; mono,
    # at 2.4e9, still fits
    path = tmp_path / "fast.wav"
    channel = SampleBuffer(np.zeros(4), 600_000_000)
    with pytest.raises(ValidationError, match=r"byte rate and a RIFF size up to 2\*\*32 - 1"):
        write_wav(path, StereoBuffer(channel, channel))
    assert not path.exists()
    write_wav(path, channel)
    assert read_wav(path).sample_rate == 600_000_000


def test_wav_writer_writes_exactly_the_frames_its_header_holds(tmp_path):
    # The header, sizes and all, goes out first, so a stream that ends short or runs past it
    # raises; a block it refuses (past the end, the wrong shape, out of range) writes nothing.
    path, whole = tmp_path / "blocks.wav", tmp_path / "whole.wav"
    samples = np.linspace(-0.5, 0.5, 11)
    with pytest.raises(ValidationError, match="10 frames written, but the header holds 11"):
        with wavio.WavWriter(path, 1, SR, 11, "pcm24") as writer:
            writer.write([samples[:10]])
    with wavio.WavWriter(path, 1, SR, 11, "pcm24") as writer:
        writer.write([samples[:6]])
        for block, error in (([samples[:6]], "12 frames past the header's 11"),
                             ([samples[6:], samples[6:]], "1 1-D array"),
                             ([np.full(5, np.nan)], "samples must be a finite number"),
                             ([np.full(5, 1.0)], "24-bit PCM range")):
            with pytest.raises(ValidationError, match=error):
                writer.write(block)
        writer.write([samples[6:]])
    write_wav(whole, SampleBuffer(samples, SR), encoding="pcm24")
    assert path.read_bytes() == whole.read_bytes()


def riff(*chunks):
    """A RIFF/WAVE file from (tag, body) chunks, each padded to an even length."""
    body = b"WAVE" + b"".join(tag + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) % 2)
                              for tag, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_write_wav_file_layout(tmp_path):
    path = tmp_path / "odd24.wav"
    write_wav(path, SampleBuffer(np.array([0.5, -0.25, 0.125]), SR), encoding="pcm24")
    fmt = struct.pack("<HHIIHH", 1, 1, SR, 3 * SR, 3, 24)
    codes = bytes.fromhex("000040 0000e0 000010")  # 0.5, -0.25, 0.125 as 24-bit little-endian
    assert path.read_bytes() == riff((b"fmt ", fmt), (b"data", codes))

    path = tmp_path / "stereo32.wav"
    write_wav(path, StereoBuffer(SampleBuffer([0.5], SR), SampleBuffer([-1.0], SR)))
    fmt = struct.pack("<HHIIHH", 3, 2, SR, 8 * SR, 8, 32)
    payload = np.array([0.5, -1.0], dtype="<f4").tobytes()
    assert path.read_bytes() == riff((b"fmt ", fmt), (b"fact", struct.pack("<I", 1)),
                                     (b"data", payload))


def test_write_rejects_nonfinite(tmp_path):
    with pytest.raises(ValidationError):
        buf = SampleBuffer(np.array([0.0, np.nan]), SR)
        write_wav(tmp_path / "nan.wav", buf)


def test_write_rejects_unknown_encoding(tmp_path):
    buf = SampleBuffer(np.zeros(4), SR)
    with pytest.raises(ValidationError):
        write_wav(tmp_path / "x.wav", buf, encoding="pcm32")


def test_write_rejects_what_is_not_a_buffer(tmp_path):
    with pytest.raises(ValidationError, match="expected SampleBuffer or StereoBuffer, got ndarray"):
        write_wav(tmp_path / "x.wav", np.zeros(4))
    assert not (tmp_path / "x.wav").exists()


@pytest.mark.parametrize("fmt, match", [
    (struct.pack("<HHIIH", 1, 1, SR, 2 * SR, 2), "fmt chunk too short"),
    (struct.pack("<HHIIHHHH", 0xFFFE, 1, SR, 2 * SR, 2, 16, 22, 16),
     "extensible fmt chunk too short"),
], ids=["14 bytes", "extensible 20 bytes"])
def test_read_rejects_a_short_fmt_chunk(fmt, match, tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(riff((b"fmt ", fmt), (b"data", bytes(8))))
    with pytest.raises(WavFormatError, match=match):
        read_wav(path)


def _raw_wav(path, fmt_tag, channels, bits, payload, rate=48000):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_read_rejects_three_channels(tmp_path):
    path = tmp_path / "three.wav"
    _raw_wav(path, 1, 3, 16, bytes(6 * 4))
    with pytest.raises(WavFormatError, match="channel"):
        read_wav(path)


def test_read_rejects_unsupported_encoding(tmp_path):
    path = tmp_path / "mulaw.wav"
    _raw_wav(path, 7, 1, 8, bytes(16))
    with pytest.raises(WavFormatError, match="unsupported"):
        read_wav(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_rejects_non_finite_float_samples(tmp_path, bad):
    path = tmp_path / "nan.wav"
    _raw_wav(path, 3, 2, 32, np.array([0.5, -0.5, bad, 0.0], dtype="<f4").tobytes())
    with pytest.raises(WavFormatError, match="NaN or inf"):
        read_wav(path)
    with wavio.WavReader(path) as wav, pytest.raises(WavFormatError, match="NaN or inf"):
        list(wav.blocks())


def test_read_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "rate0.wav"
    write_wav(path, SampleBuffer(np.zeros(16), SR))
    blob = bytearray(path.read_bytes())
    blob[24:28] = struct.pack("<I", 0)  # fmt chunk: sample rate field
    path.write_bytes(bytes(blob))
    with pytest.raises(WavFormatError, match="sample rate"):
        read_wav(path)


def test_read_rejects_non_wav(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"this is definitely not audio")
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_read_rejects_truncated_data_chunk(tmp_path):
    good = tmp_path / "good.wav"
    write_wav(good, SampleBuffer(np.zeros(1000), SR))
    blob = good.read_bytes()
    (tmp_path / "cut.wav").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WavFormatError):
        read_wav(tmp_path / "cut.wav")


def test_read_extensible_pcm16(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE wrapping plain PCM: first two GUID bytes carry the tag
    payload = struct.pack("<4h", -16384, 0, 16384, 32767)
    ext = struct.pack("<HHIIHH", 0xFFFE, 1, SR, SR * 2, 2, 16)
    ext += struct.pack("<HHI", 22, 16, 0) + struct.pack("<H", 1) + bytes(14)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(ext)) + ext
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    back = read_wav(path)
    assert np.array_equal(back.samples, np.array([-16384, 0, 16384, 32767]) / 32768.0)


@given(encoding=st.sampled_from(["float32", "pcm16", "pcm24"]), stereo=st.booleans(),
       cut=st.integers(0, 80), edits=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 255)),
                                                 max_size=4),
       truncate=st.booleans())
@settings(max_examples=200, deadline=None)
def test_damaged_header_raises_only_wav_format_error(tmp_path_factory, encoding, stereo, cut,
                                                      edits, truncate):
    path = tmp_path_factory.getbasetemp() / "damaged.wav"
    mono = SampleBuffer(np.linspace(-0.5, 0.5, 7), SR)
    write_wav(path, StereoBuffer(mono, mono) if stereo else mono, encoding=encoding)
    blob = bytearray(path.read_bytes())
    header = blob.index(b"data") + 8  # 44 bytes, 56 with float32's fact chunk
    for offset, value in edits:
        blob[offset % header] = value
    path.write_bytes(bytes(blob[:cut] if truncate else blob))
    try:
        back = read_wav(path)
    except WavFormatError:
        return
    assert isinstance(back, (SampleBuffer, StereoBuffer))
