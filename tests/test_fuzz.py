"""Checkpoint bytes, mutated, through ``arn enhance`` and ``arn evaluate
--model``: each run either succeeds with finite output and nothing on
standard error, or is refused with exit 4 and one ``error:`` line, before
any output of the file that it refuses. WAV bytes, mutated, through
``arn enhance``: each run either succeeds with finite output, or is refused
with exit 3 and one ``error:`` line, with no output for the file that it
refuses or after it."""

import contextlib
import io
import math
import re
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from arn import cli, model, wavio
from arn.model import ARNConfig
from arn.training import checkpoint_from, save_checkpoint

# width-8 toys of both presets' kinds, two blocks each
CONFIGS = {causal: ARNConfig(width=8, frame_in=16 if causal else 8, frame_out=8, shift=8,
                             num_blocks=2, causal=causal, dropout=0.0)
           for causal in (True, False)}
VALUES = [np.nan, np.inf, -np.inf, 3e38, -3e38]
INPUTS = ("a.wav", "b.wav")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The base checkpoint of each kind, as bytes, with its directory
    ``[(name, first payload byte, count)]``; the input directory; and an
    evaluate manifest of two pairs, the second file of each enhanced."""
    root = tmp_path_factory.mktemp("fuzz")
    bases = {}
    for causal, cfg in CONFIGS.items():
        path = root / f"base{int(causal)}.ckpt"
        params = model.init_params(cfg, np.random.default_rng(2400 + causal), np.float32)
        save_checkpoint(checkpoint_from(params, cfg), path)
        blob = path.read_bytes()
        head = blob[:blob.index(b"\nDATA ")]
        start = blob.index(b"\n", len(head) + 1) + 1
        entries = [(name, start + 4 * int(offset), int(count))
                   for _, name, _, offset, count in (line.split() for line in
                                                     head.decode().splitlines()
                                                     if line.startswith("tensor "))]
        bases[causal] = blob, entries
    src = root / "in"
    src.mkdir()
    for j, name in enumerate(INPUTS):
        wavio.write_wav(src / name, 0.25 * np.sin(np.arange(480) / (5.0 + j)))
    manifest = root / "pairs.tsv"
    manifest.write_text("".join(f"{src / INPUTS[0]}\t{src / name}\n" for name in INPUTS))
    return root, bases, src, manifest


@st.composite
def mutated(draw, bases):
    """A base checkpoint with one mutation: a payload value (a non-finite
    or extreme float32, or four random bytes) in any entry, a header or
    directory line deleted, repeated or with one byte replaced, or the file
    cut short."""
    blob, entries = bases[draw(st.booleans())]
    kind = draw(st.sampled_from(["value", "line", "truncate"]))
    if kind == "value":
        _, start, count = draw(st.sampled_from(entries))
        at = start + 4 * draw(st.integers(0, count - 1))
        raw = draw(st.one_of(st.sampled_from(VALUES).map(lambda v: np.float32(v).tobytes()),
                             st.binary(min_size=4, max_size=4)))
        return blob[:at] + raw + blob[at + 4:]
    if kind == "line":
        head_end = blob.index(b"\n", blob.index(b"\nDATA ") + 1) + 1
        lines = blob[:head_end].splitlines(keepends=True)
        j = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "byte"]))
        if op == "delete":
            lines[j] = b""
        elif op == "repeat":
            lines[j] *= 2
        else:
            k = draw(st.integers(0, len(lines[j]) - 1))
            lines[j] = lines[j][:k] + draw(st.binary(min_size=1, max_size=1)) + lines[j][k + 1:]
        return b"".join(lines) + blob[head_end:]
    return blob[:draw(st.integers(0, len(blob) - 1))]


def run_cli(argv):
    """``cli.main(argv)``: its exit code, standard output, and standard
    error with any warning it raised. An exception it lets through, which
    would be a traceback, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(str(w.message) for w in caught)


def one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def strategy(files):
    return mutated(files[1])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_enhances_or_exits_4(files, strategy, data):
    root, _, src, manifest = files
    ckpt = root / "model.ckpt"
    ckpt.write_bytes(data.draw(strategy))
    dst = root / "out"
    shutil.rmtree(dst, ignore_errors=True)

    code, _, err = run_cli(["enhance", "--model", str(ckpt), "--in", str(src),
                            "--out", str(dst)])
    written = sorted(p.name for p in dst.glob("*.wav")) if dst.exists() else []
    event(f"enhance exit {code}, {len(written)} written")
    if code == 0:
        assert err == ""
        assert written == list(INPUTS)
        for name in INPUTS:
            assert np.isfinite(wavio.read_wav(dst / name)).all()
    else:
        assert code == 4, err
        one_error_line(err)
        # the files are enhanced in order: the one refused, named by an
        # overflow and otherwise the first, has no output, nor has any after it
        refused = INPUTS.index(next((n for n in INPUTS[1:] if str(src / n) in err), INPUTS[0]))
        assert written == list(INPUTS[:refused])

    code, out, err = run_cli(["evaluate", "--model", str(ckpt), "--pairs", str(manifest)])
    records = out.splitlines()
    event(f"evaluate exit {code}")
    if code == 0:
        assert err == ""
        assert len(records) == len(INPUTS) + 1 and records[-1].startswith("mean\t")
        for line in records:
            assert all(math.isfinite(float(v)) for v in line.split("\t")[-2:]), line
    else:
        assert code == 4, err
        one_error_line(err)
        # a pair's error names its manifest line; no record is printed for
        # it or after it, and a refused load prints none
        line = re.search(r", line (\d+) \(", err)
        assert len(records) == (int(line[1]) - 1 if line else 0)


# where ``wavio.write_wav`` puts each field of its 44-byte header: the RIFF
# size, the fmt chunk's length, its format tag, channels, rate, byte rate,
# block align and bits, and the data chunk's length
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"), (28, "<I"),
              (32, "<H"), (34, "<H"), (40, "<I")]
WAV_HEADER = 44


@pytest.fixture(scope="module")
def wav_files(tmp_path_factory):
    """A width-8 causal checkpoint; the bytes of a valid WAV in each
    encoding, a tone of 480 samples."""
    root = tmp_path_factory.mktemp("wavfuzz")
    ckpt = root / "model.ckpt"
    cfg = CONFIGS[True]
    save_checkpoint(checkpoint_from(
        model.init_params(cfg, np.random.default_rng(2410), np.float32), cfg), ckpt)
    blobs = []
    for encoding in ("float32", "pcm16"):
        path = root / f"base_{encoding}.wav"
        wavio.write_wav(path, 0.25 * np.sin(np.arange(480) / 5.0), encoding=encoding)
        blobs.append(path.read_bytes())
    return root, ckpt, blobs


@st.composite
def mutated_wav(draw, blobs):
    """A valid WAV with one mutation: a header field or chunk length set to
    a nearby or an arbitrary value, one header byte replaced (the RIFF,
    WAVE and chunk ids included), or the file cut short."""
    blob = draw(st.sampled_from(blobs))
    kind = draw(st.sampled_from(["field", "byte", "truncate"]))
    if kind == "field":
        at, fmt = draw(st.sampled_from(WAV_FIELDS))
        top = 256 ** struct.calcsize(fmt)
        (old,) = struct.unpack_from(fmt, blob, at)
        new = draw(st.one_of(st.integers(-8, 8).map(lambda d: (old + d) % top),
                             st.integers(0, top - 1)))
        return blob[:at] + struct.pack(fmt, new) + blob[at + struct.calcsize(fmt):]
    if kind == "byte":
        at = draw(st.integers(0, WAV_HEADER - 1))
        return blob[:at] + draw(st.binary(min_size=1, max_size=1)) + blob[at + 1:]
    return blob[:draw(st.integers(0, len(blob) - 1))]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_wav_enhances_or_exits_3(wav_files, data):
    root, ckpt, blobs = wav_files
    src, dst = root / "in", root / "out"
    shutil.rmtree(src, ignore_errors=True)
    shutil.rmtree(dst, ignore_errors=True)
    src.mkdir()
    bad = data.draw(st.sampled_from(INPUTS))
    for name in INPUTS:
        (src / name).write_bytes(data.draw(mutated_wav(blobs)) if name == bad else blobs[0])

    code, _, err = run_cli(["enhance", "--model", str(ckpt), "--in", str(src),
                            "--out", str(dst)])
    written = sorted(p.name for p in dst.glob("*.wav")) if dst.exists() else []
    event(f"enhance exit {code}, {bad} mutated")
    if code == 0:
        assert err == ""
        assert written == list(INPUTS)
        for name in INPUTS:
            assert np.isfinite(wavio.read_wav(dst / name)).all()
    else:
        assert code == 3, err
        one_error_line(err)
        # the mutated file, or its output, is named; it has no output, nor
        # has any file after it
        assert str(src / bad) in err or str(dst / bad) in err, err
        assert written == list(INPUTS[:INPUTS.index(bad)])
