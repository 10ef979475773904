"""Multimodal columns: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by actor-pool ``map_batches`` stages.

Decoding goes through a **pluggable codec registry**
(:data:`DECODERS` / :func:`register_decoder`): one real pure-Python
codec ships in-container (binary PPM "P6" — encode + decode, numpy
only) so the ``real=True`` path is exercised end-to-end on real bytes;
codecs that need external libraries (jpeg/png → PIL/libvips, video →
ffmpeg) raise NotImplementedError at the exact plug point. The
``real=False`` path produces deterministic fake features so plumbing —
schema, batch sizing, actor signatures, output layout — stays testable
without any codec.

Design notes for the real thing at scale: binary payloads make blocks
heavy → small ``batch_size`` (64-256) and a raised
``DataContext.target_max_block_size``; decode is CPU-bound → actor pool
with ``num_cpus=1`` per actor and ``concurrency`` sized to the node;
decoded features (small, fixed-width) flow on while payloads are
dropped as early as possible (select_columns before any shuffle).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        (
            "meta",
            pa.struct(
                [
                    ("width", pa.int32()),
                    ("height", pa.int32()),
                    ("sample_rate", pa.int32()),
                    ("n_frames", pa.int32()),
                    ("codec", pa.string()),
                ]
            ),
        ),
    ]
)


# --------------------------------------------------------------- codecs
def encode_ppm(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6) encoder — (h, w, 3) uint8 → bytes. Pure Python/
    numpy; the public Netpbm format."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6) decoder — bytes → (h, w, 3) uint8. Raises
    ValueError on malformed input (routes to the failure path)."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    # header: magic, width, height, maxval — whitespace separated
    parts, pos = [], 2
    while len(parts) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        parts.append(int(data[pos:end]))
        pos = end
    pos += 1  # single whitespace after maxval
    w, h, maxval = parts
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    pix = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pix.reshape(h, w, 3)


def encode_bmp(pixels: np.ndarray) -> bytes:
    """Uncompressed 24-bit BMP encoder — (h, w, 3) uint8 RGB → bytes.
    Pure numpy: rows are bottom-up, BGR, padded to 4-byte multiples
    (the Windows BITMAPINFOHEADER format — the second public format the
    container can handle without an image library)."""
    import struct

    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    row_len = (w * 3 + 3) & ~3
    body = np.zeros((h, row_len), dtype=np.uint8)
    body[:, : w * 3] = pixels[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    data = body.tobytes()
    header = struct.pack(
        "<2sIHHI", b"BM", 54 + len(data), 0, 0, 54
    ) + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data), 2835, 2835, 0, 0)
    return header + data


def decode_bmp(data: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP decoder — bytes → (h, w, 3) uint8 RGB.
    Raises ValueError on malformed/unsupported input (routes to the
    failure path). Handles bottom-up and top-down rows."""
    import struct

    if len(data) < 54 or data[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off = struct.unpack_from("<I", data, 10)[0]
    hdr_size, w, h = struct.unpack_from("<Iii", data, 14)
    planes, bpp, comp = struct.unpack_from("<HHI", data, 26)
    if hdr_size < 40 or bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP (bpp={bpp}, compression={comp})")
    flip = h > 0
    h = abs(h)
    row_len = (w * 3 + 3) & ~3
    if len(data) < off + row_len * h:
        raise ValueError("truncated BMP payload")
    body = np.frombuffer(data, dtype=np.uint8, count=row_len * h, offset=off)
    rows = body.reshape(h, row_len)[:, : w * 3].reshape(h, w, 3)
    rgb = rows[:, :, ::-1]  # BGR → RGB
    return (rgb[::-1] if flip else rgb).copy()


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Canonical RIFF/WAVE PCM16 mono encoder — (n,) int16 → bytes.
    Pure struct/numpy (the third public format the container handles
    without a media library)."""
    import struct

    assert samples.dtype == np.int16 and samples.ndim == 1
    data = samples.tobytes()
    return (
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate,
                                sample_rate * 2, 2, 16)
        + b"data" + struct.pack("<I", len(data)) + data
    )


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM16 mono decoder — bytes → ((n,) int16, sample_rate).
    Walks the chunk list (tolerates extra chunks); raises ValueError on
    malformed/unsupported input (routes to the failure path)."""
    import struct

    if len(data) < 44 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(data):
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        if pos + 8 + size > len(data):
            raise ValueError(f"truncated WAV payload (short {cid!r} chunk)")
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise ValueError(f"truncated WAV payload ({size}-byte fmt chunk)")
            fmt, ch, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if fmt != 1 or ch != 1 or bits != 16:
                raise ValueError(f"unsupported WAV (fmt={fmt}, ch={ch}, bits={bits})")
        elif cid == b"data":
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("truncated WAV payload (missing fmt/data chunk)")
    return samples.astype(np.int16, copy=False), rate


def encode_rvid(frames: list[np.ndarray]) -> bytes:
    """Minimal real video container — list of (h, w, 3) uint8 frames →
    bytes: ``RVID`` magic + u32 frame count, then one length-prefixed
    BMP per frame (the fourth pure-Python format the container handles
    without a media library; a real byte-level chunk walk on decode)."""
    import struct

    parts = [b"RVID", struct.pack("<I", len(frames))]
    for f in frames:
        bmp = encode_bmp(f)
        parts.append(struct.pack("<I", len(bmp)))
        parts.append(bmp)
    return b"".join(parts)


def decode_rvid(data: bytes) -> list[np.ndarray]:
    """RVID decoder — bytes → list of (h, w, 3) uint8 frames. Raises
    ValueError on malformed/truncated input (routes to the failure
    path)."""
    import struct

    if len(data) < 8 or data[:4] != b"RVID":
        raise ValueError("not an RVID payload")
    n = struct.unpack_from("<I", data, 4)[0]
    pos, frames = 8, []
    for _ in range(n):
        if pos + 4 > len(data):
            raise ValueError("truncated RVID payload (missing frame header)")
        size = struct.unpack_from("<I", data, pos)[0]
        pos += 4
        if pos + size > len(data):
            raise ValueError("truncated RVID payload (short frame)")
        frames.append(decode_bmp(data[pos:pos + size]))
        pos += size
    return frames


# codec name (meta.codec) -> bytes → ndarray decoder. Extend via
# register_decoder — e.g. register_decoder("jpeg", PIL_based_fn) where
# image libraries exist. ("wav" decodes to (samples, rate) — audio
# stages know the tuple shape; "rvid" to a list of frames — video
# stages know the list shape.)
DECODERS: dict = {"ppm": decode_ppm, "bmp": decode_bmp, "wav": decode_wav,
                  "rvid": decode_rvid}


def register_decoder(codec: str, fn) -> None:
    DECODERS[codec] = fn


def register_pil_codecs() -> bool:
    """Wire jpeg/png (and anything else PIL reads) into the registry when
    Pillow is importable; returns whether it was. Called once at import —
    in containers with an image library the real path covers compressed
    formats with zero code changes (the reference's bulk-payload analog:
    ``AttributeList.java:1263-1315`` read-without-decompress)."""
    try:
        from PIL import Image
    except ImportError:
        return False
    import io

    def _pil_decode(data: bytes) -> np.ndarray:
        with Image.open(io.BytesIO(bytes(data))) as im:
            return np.asarray(im.convert("RGB"))

    for codec in ("jpeg", "jpg", "png", "gif", "webp", "tiff"):
        DECODERS[codec] = _pil_decode
    return True


HAVE_PIL = register_pil_codecs()


def _no_decoder(codec: str):
    return NotImplementedError(
        f"no registered decoder for codec {codec!r}: real decode requires an "
        "image library (PIL/libvips/ffmpeg) not present in this container; "
        "plug it in via register_decoder()"
    )


def attach_fake_media(ds: ray.data.Dataset, id_col: str = "doc_id", kind: str = "image",
                      payload_bytes: int = 512, codec: str = "fake") -> ray.data.Dataset:
    """Deterministically synthesize a media column from row ids (test/
    bench substrate for the decode stages). ``codec="ppm"`` /
    ``codec="bmp"`` emit REAL payloads in those formats (decodable by
    the registry); the default ``"fake"`` emits opaque hash bytes
    (plumbing-only path)."""

    def gen(t: pa.Table) -> pa.Table:
        ids = [str(v) for v in t[id_col].to_pylist()]
        payloads, metas = [], []
        for i in ids:
            seed = hashlib.md5(i.encode()).digest()
            w, h = 16 + seed[0] % 64, 16 + seed[1] % 64
            if codec in ("ppm", "bmp"):
                rng = np.random.default_rng(int.from_bytes(seed[:8], "little"))
                enc = encode_ppm if codec == "ppm" else encode_bmp
                payloads.append(enc(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
            else:
                reps = payload_bytes // len(seed) + 1
                payloads.append((seed * reps)[:payload_bytes])
            metas.append(
                {
                    "width": w,
                    "height": h,
                    "sample_rate": 16000,
                    "n_frames": 1 + seed[2] % 32,
                    "codec": codec,
                }
            )
        return pa.table(
            {
                "media_id": pa.array(ids),
                "kind": pa.array([kind] * len(ids)),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=256)


def attach_gradient_media(ds: ray.data.Dataset, id_col: str = "doc_id",
                          codec: str = "bmp") -> ray.data.Dataset:
    """Synthesize REAL encoded images whose pixel values are a closed-form
    function of the row id — ``pix[y, x, c] = s_c + x`` with
    ``s_c = md5_byte(id, 2+c) % 128`` and ``w/h = 16 + md5_byte(id,
    0/1) % 64`` (no uint8 wrap: 127 + 79 < 256) — so a SQL oracle can
    recompute every per-image statistic from ``md5(doc_id)`` alone while
    the engine must actually DECODE the bytes to reproduce them. This is
    what makes the multimodal decode path oracle-checkable."""

    enc = {"ppm": encode_ppm, "bmp": encode_bmp}[codec]

    def gen(t: pa.Table) -> pa.Table:
        ids = [str(v) for v in t[id_col].to_pylist()]
        payloads, metas = [], []
        for i in ids:
            seed = hashlib.md5(i.encode()).digest()
            w, h = 16 + seed[0] % 64, 16 + seed[1] % 64
            s = np.array([seed[2] % 128, seed[3] % 128, seed[4] % 128], dtype=np.uint8)
            pix = (s[None, None, :] + np.arange(w, dtype=np.uint8)[None, :, None]
                   ) * np.ones((h, 1, 1), dtype=np.uint8)
            payloads.append(enc(pix))
            metas.append({"width": w, "height": h, "sample_rate": 16000,
                          "n_frames": 1, "codec": codec})
        return pa.table(
            {
                "media_id": pa.array(ids),
                "kind": pa.array(["image"] * len(ids)),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=256)


def attach_gradient_audio(ds: ray.data.Dataset, id_col: str = "doc_id",
                          sample_rate: int = 16000) -> ray.data.Dataset:
    """Audio twin of :func:`attach_gradient_media`: REAL RIFF PCM16
    payloads whose waveform is a closed-form ramp of the row id —
    ``samples[i] = s + i`` with ``s = md5_byte(id, 1) * 16`` and
    ``n = 1000 + md5_byte(id, 0) * 4`` (max 4335 + 2019 < 32767: no
    int16 wrap) — so a SQL oracle can recompute duration/sum/sumsq from
    ``md5(doc_id)`` while the engine must decode the WAV bytes."""

    def gen(t: pa.Table) -> pa.Table:
        ids = [str(v) for v in t[id_col].to_pylist()]
        payloads, metas = [], []
        for i in ids:
            seed = hashlib.md5(i.encode()).digest()
            n = 1000 + seed[0] * 4
            s = seed[1] * 16
            samples = (s + np.arange(n, dtype=np.int32)).astype(np.int16)
            payloads.append(encode_wav(samples, sample_rate))
            metas.append({"width": 0, "height": 0, "sample_rate": sample_rate,
                          "n_frames": n, "codec": "wav"})
        return pa.table(
            {
                "media_id": pa.array(ids),
                "kind": pa.array(["audio"] * len(ids)),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=256)


def attach_gradient_video(ds: ray.data.Dataset, id_col: str = "doc_id") -> ray.data.Dataset:
    """Video twin of :func:`attach_gradient_media`: REAL RVID payloads of
    2–8 gradient BMP frames, closed-form in the row id —
    ``pix[f][y, x, c] = s_c + x + f`` with ``s_c = md5_byte(id, 2+c) %
    128``, ``w/h = 8 + md5_byte(id, 0/1) % 24`` and ``n_frames = 2 +
    md5_byte(id, 5) % 7`` (no uint8 wrap: 127 + 30 + 7 < 256) — so a SQL
    oracle can recompute per-video statistics INCLUDING the frame-sample
    schedule from ``md5(doc_id)`` while the engine must walk the
    container and decode every sampled frame."""

    def gen(t: pa.Table) -> pa.Table:
        ids = [str(v) for v in t[id_col].to_pylist()]
        payloads, metas = [], []
        for i in ids:
            seed = hashlib.md5(i.encode()).digest()
            w, h = 8 + seed[0] % 24, 8 + seed[1] % 24
            s = np.array([seed[2] % 128, seed[3] % 128, seed[4] % 128], dtype=np.uint8)
            nf = 2 + seed[5] % 7
            base = (s[None, None, :] + np.arange(w, dtype=np.uint8)[None, :, None]
                    ) * np.ones((h, 1, 1), dtype=np.uint8)
            payloads.append(encode_rvid([base + np.uint8(f) for f in range(nf)]))
            metas.append({"width": w, "height": h, "sample_rate": 0,
                          "n_frames": nf, "codec": "rvid"})
        return pa.table(
            {
                "media_id": pa.array(ids),
                "kind": pa.array(["video"] * len(ids)),
                "payload": pa.array(payloads, type=pa.binary()),
                "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=256)


class VideoStats:
    """Actor-pool REAL-decode video statistics with frame sampling:
    walk the RVID container, decode every ``every_n``-th frame (indices
    0, every_n, … — the classic frame-sample schedule), and emit exact
    integer channel sums over the SAMPLED frames. Frame count and
    dimensions come from the DECODED container, not metadata, so a green
    oracle proves both the byte-level container walk and the per-frame
    BMP decode. Means of the gradient synthesis are exact half-integers:
    f64-exact against the SQL closed form."""

    def __init__(self, every_n: int = 2, decoders: dict | None = None):
        self.every_n = every_n
        self.decoders = dict(DECODERS) if decoders is None else dict(decoders)

    def __call__(self, batch: pa.Table) -> pa.Table:
        codecs = [m["codec"] for m in batch["meta"].to_pylist()]
        nfs, nss, ws, hs, sums = [], [], [], [], []
        for payload, codec in zip(batch["payload"].to_pylist(), codecs):
            dec = self.decoders.get(codec)
            if dec is None:
                raise _no_decoder(codec)
            frames = dec(bytes(payload))
            sampled = frames[:: self.every_n]
            nfs.append(len(frames))
            nss.append(len(sampled))
            hs.append(sampled[0].shape[0])
            ws.append(sampled[0].shape[1])
            acc = np.zeros(3, dtype=np.int64)
            for f in sampled:
                acc += f.astype(np.int64).sum(axis=(0, 1))
            sums.append(acc)
        s = np.array(sums, dtype=np.int64).reshape(len(ws), 3)
        w = np.array(ws, dtype=np.int64)
        h = np.array(hs, dtype=np.int64)
        k = np.array(nss, dtype=np.int64)
        n = (k * w * h).astype(np.float64)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_frames": pa.array(np.array(nfs, dtype=np.int64), pa.int64()),
                "n_sampled": pa.array(k, pa.int64()),
                "width": pa.array(w, pa.int64()),
                "height": pa.array(h, pa.int64()),
                "sum_r": pa.array(s[:, 0], pa.int64()),
                "sum_g": pa.array(s[:, 1], pa.int64()),
                "sum_b": pa.array(s[:, 2], pa.int64()),
                "mean_r": pa.array(s[:, 0] / n, pa.float64()),
                "mean_g": pa.array(s[:, 1] / n, pa.float64()),
                "mean_b": pa.array(s[:, 2] / n, pa.float64()),
            }
        )


def video_stats(ds: ray.data.Dataset, every_n: int = 2,
                concurrency: int | tuple[int, int] = (1, 4),
                batch_size: int = 128) -> ray.data.Dataset:
    """Gradient-video → container walk + sampled-frame real decode →
    exact per-video stats (the oracle-checkable video pipeline; see
    attach_gradient_video)."""
    return ds.map_batches(
        VideoStats,
        fn_constructor_kwargs={"every_n": every_n, "decoders": dict(DECODERS)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class AudioStats:
    """Actor-pool REAL-decode audio statistics: decode every WAV payload,
    emit exact integer amplitude sums (n_samples/rate from the DECODED
    stream, not metadata — a green oracle proves real decode).
    ``mean_amp`` of the ramp waveform is a half-integer: f64-exact."""

    def __init__(self, decoders: dict | None = None):
        self.decoders = dict(DECODERS) if decoders is None else dict(decoders)

    def __call__(self, batch: pa.Table) -> pa.Table:
        codecs = [m["codec"] for m in batch["meta"].to_pylist()]
        ns, rates, sums, sumsqs = [], [], [], []
        for payload, codec in zip(batch["payload"].to_pylist(), codecs):
            dec = self.decoders.get(codec)
            if dec is None:
                raise _no_decoder(codec)
            samples, rate = dec(bytes(payload))
            a = samples.astype(np.int64)
            ns.append(len(a))
            rates.append(rate)
            sums.append(int(a.sum()))
            sumsqs.append(int((a * a).sum()))
        n = np.array(ns, dtype=np.int64)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "n_samples": pa.array(n, pa.int64()),
                "sample_rate": pa.array(np.array(rates, dtype=np.int64), pa.int64()),
                "sum_amp": pa.array(np.array(sums, dtype=np.int64), pa.int64()),
                "sumsq_amp": pa.array(np.array(sumsqs, dtype=np.int64), pa.int64()),
                "mean_amp": pa.array(np.array(sums, dtype=np.int64) / n, pa.float64()),
            }
        )


def audio_stats(ds: ray.data.Dataset, concurrency: int | tuple[int, int] = (1, 4),
                batch_size: int = 128) -> ray.data.Dataset:
    """Gradient-audio → real WAV decode → exact per-clip stats (the
    oracle-checkable audio pipeline; see attach_gradient_audio)."""
    return ds.map_batches(
        AudioStats,
        fn_constructor_kwargs={"decoders": dict(DECODERS)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class MediaStats:
    """Actor-pool REAL-decode statistics stage: decode every payload via
    the codec registry, accumulate exact integer channel sums from the
    pixels, and emit (width, height, sum/mean per channel). Dimensions
    come from the DECODED array (not the meta column), so a green oracle
    proves the bytes were truly decoded. Integer sums + float64 means of
    half-integer values are bit-exact against the SQL closed form."""

    def __init__(self, decoders: dict | None = None):
        self.decoders = dict(DECODERS) if decoders is None else dict(decoders)

    def __call__(self, batch: pa.Table) -> pa.Table:
        codecs = [m["codec"] for m in batch["meta"].to_pylist()]
        ws, hs, sums = [], [], []
        for payload, codec in zip(batch["payload"].to_pylist(), codecs):
            dec = self.decoders.get(codec)
            if dec is None:
                raise _no_decoder(codec)
            pix = dec(bytes(payload))
            hs.append(pix.shape[0])
            ws.append(pix.shape[1])
            sums.append(pix.astype(np.int64).sum(axis=(0, 1)))
        s = np.array(sums, dtype=np.int64).reshape(len(ws), 3)
        w = np.array(ws, dtype=np.int64)
        h = np.array(hs, dtype=np.int64)
        n = (w * h).astype(np.float64)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "width": pa.array(w, pa.int64()),
                "height": pa.array(h, pa.int64()),
                "sum_r": pa.array(s[:, 0], pa.int64()),
                "sum_g": pa.array(s[:, 1], pa.int64()),
                "sum_b": pa.array(s[:, 2], pa.int64()),
                "mean_r": pa.array(s[:, 0] / n, pa.float64()),
                "mean_g": pa.array(s[:, 1] / n, pa.float64()),
                "mean_b": pa.array(s[:, 2] / n, pa.float64()),
            }
        )


def media_stats(ds: ray.data.Dataset, concurrency: int | tuple[int, int] = (1, 4),
                batch_size: int = 128) -> ray.data.Dataset:
    """Gradient-media → real-decode → per-image exact channel stats (the
    oracle-checkable multimodal pipeline; see attach_gradient_media)."""
    return ds.map_batches(
        MediaStats,
        fn_constructor_kwargs={"decoders": dict(DECODERS)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class DecodeImage:
    """Actor-pool decode stage. ``real=True`` decodes through the codec
    registry (PPM works in-container; unregistered codecs raise at the
    plug point) and emits real pixel statistics as the feature vector;
    the fake path derives a deterministic feature vector from the
    payload hash (so downstream stages are testable without codecs)."""

    def __init__(self, real: bool = False, feature_dim: int = 8,
                 decoders: dict | None = None):
        self.real = real
        self.feature_dim = feature_dim
        # registry snapshot: actor-pool workers import this module FRESH,
        # so driver-side register_decoder() calls never reach them — the
        # stage must carry its codec table (pipeline builders snapshot
        # DECODERS at construction; see decode_features)
        self.decoders = dict(DECODERS) if decoders is None else dict(decoders)

    def _real_features(self, payload: bytes, codec: str) -> list[float]:
        dec = self.decoders.get(codec)
        if dec is None:
            raise _no_decoder(codec)
        pix = dec(bytes(payload)).astype(np.float32) / np.float32(255.0)
        h, w = pix.shape[:2]
        v = np.array(
            [
                *pix.mean(axis=(0, 1)),  # mean r, g, b
                *pix.std(axis=(0, 1)),  # std r, g, b
                min(1.0, h / 256.0),
                min(1.0, w / 256.0),
            ],
            dtype=np.float32,
        )
        return v[: self.feature_dim].tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        if self.real:
            codecs = [m["codec"] for m in batch["meta"].to_pylist()]
            for payload, codec in zip(batch["payload"].to_pylist(), codecs):
                feats.append(self._real_features(payload, codec))
        else:
            for payload in batch["payload"].to_pylist():
                h = hashlib.sha256(bytes(payload)).digest()
                v = np.frombuffer(h[: self.feature_dim * 4], dtype=np.uint32).astype(np.float32)
                feats.append((v / np.float32(2**32)).tolist())
        out = batch.drop_columns(["payload"])  # drop heavy bytes ASAP
        return out.append_column("features", pa.array(feats, type=pa.list_(pa.float32())))


def decode_features(ds: ray.data.Dataset, concurrency: int | tuple[int, int] = (1, 4),
                    batch_size: int = 128, real: bool = False) -> ray.data.Dataset:
    """The canonical multimodal pipeline shape: small batches through an
    actor pool, heavy payloads dropped at the decode boundary."""
    return ds.map_batches(
        DecodeImage,
        # snapshot the registry HERE (driver side): fn_constructor_kwargs
        # are shipped to each actor, carrying any register_decoder() calls
        fn_constructor_kwargs={"real": real, "decoders": dict(DECODERS)},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
