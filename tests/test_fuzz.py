"""Checkpoint bytes, mutated, through ``arn enhance`` and ``arn evaluate
--model``: each run either succeeds with finite output and nothing on
standard error, or is refused with exit 4 and one ``error:`` line, before
any output of the file that it refuses. The same bytes through the full
load: it either raises a ``CheckpointError`` or returns every tensor and
Adam moment finite, in its directory's shape. WAV bytes, mutated, through
``arn enhance``: each run either succeeds with finite output, or is refused
with exit 3 and one ``error:`` line, with no output for the file that it
refuses or after it. List-file bytes, mutated, through ``arn evaluate
--pairs``, ``CorpusIndex`` and ``arn train --speech-index``: a file that
does not parse is refused with exit 2 and one ``error:`` line naming it and
the line, with no output; one that parses gives its fields their declared
types, and the CLI exits with the documented code of what fails next."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from arn import cli, model, training, wavio
from arn.mixing import CorpusIndex, ListFileError
from arn.model import ARNConfig
from arn.optim import AdamState
from arn.training import CheckpointError, checkpoint_from, save_checkpoint

from test_cli import tiny_train_config

# width-8 toys of both presets' kinds, two blocks each
CONFIGS = {causal: ARNConfig(width=8, frame_in=16 if causal else 8, frame_out=8, shift=8,
                             num_blocks=2, causal=causal, dropout=0.0)
           for causal in (True, False)}
VALUES = [np.nan, np.inf, -np.inf, 3e38, -3e38]
INPUTS = ("a.wav", "b.wav")


def toy_checkpoints(root, with_adam: bool) -> dict:
    """The base checkpoint of each kind, as bytes, with its directory
    ``[(name, first payload byte, count)]``, and with random Adam moments
    if ``with_adam``."""
    bases = {}
    for causal, cfg in CONFIGS.items():
        path = root / f"base{int(causal)}{'_adam' * with_adam}.ckpt"
        rng = np.random.default_rng(2400 + causal)
        params = model.init_params(cfg, rng, np.float32)
        adam = None
        if with_adam:
            adam = AdamState.for_params(params)
            for moments in (adam.m, adam.v):
                for arr in moments.values():
                    arr[...] = np.abs(rng.standard_normal(arr.shape))
            adam.step_count = 7
        save_checkpoint(checkpoint_from(params, cfg, adam), path)
        blob = path.read_bytes()
        head = blob[:blob.index(b"\nDATA ")]
        start = blob.index(b"\n", len(head) + 1) + 1
        entries = [(name, start + 4 * int(offset), int(count))
                   for _, name, _, offset, count in (line.split() for line in
                                                     head.decode().splitlines()
                                                     if line.startswith("tensor "))]
        bases[causal] = blob, entries
    return bases


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The base checkpoints (``toy_checkpoints``); the input directory; and
    an evaluate manifest of two pairs, the second file of each enhanced."""
    root = tmp_path_factory.mktemp("fuzz")
    bases = toy_checkpoints(root, with_adam=False)
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


@pytest.fixture(scope="module")
def adam_strategy(tmp_path_factory):
    root = tmp_path_factory.mktemp("loadfuzz")
    return root, mutated(toy_checkpoints(root, with_adam=True))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_full_load_refused_or_finite(adam_strategy, data):
    root, strategy = adam_strategy
    path = root / "model.ckpt"
    blob = data.draw(strategy)
    path.write_bytes(blob)
    try:
        ckpt = training.load_checkpoint(path)
    except CheckpointError as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("loaded")
    head = blob[:blob.index(b"\nDATA ")].decode("ascii")
    shapes = {fields[1]: tuple(int(d) for d in fields[2].split("x"))
              for fields in (line.split() for line in head.splitlines())
              if fields and fields[0] == "tensor"}
    loaded = dict(ckpt.tensors)
    if ckpt.adam is not None:
        loaded |= {f"adam.{kind}.{name}": arr for kind, moments in
                   (("m", ckpt.adam.m), ("v", ckpt.adam.v)) for name, arr in moments.items()}
    assert loaded
    for name, arr in loaded.items():
        assert arr.shape == shapes[name], name
        assert np.isfinite(arr).all(), name


# a list file's fields replaced by these, or by arbitrary bytes: empty,
# blank, numbers that do and do not convert to int, bytes that are not
# UTF-8, and characters other than the line feed that ``str.splitlines``
# breaks a line at, which a list file keeps inside its line and, but for a
# carriage return at its end, at its ends too
MANGLED = [b"", b" ", b"-1", b"0", b"1e3", b"nan", b"0x1e0", b" 480", b"4_80",
           b"\xff", b"\xc3", b"\xed\xa0\x80", b"\r", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8"]


@st.composite
def mutated_list(draw, rows):
    """The tab-separated lines of ``rows``, each a list of byte fields, with
    one mutation: a field deleted, repeated or replaced, a line deleted or
    repeated, one byte of the file replaced, or the file cut short."""
    rows = [list(row) for row in rows]
    kind = draw(st.sampled_from(["field", "line", "byte", "truncate"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "field":
        j = draw(st.integers(0, len(rows[i]) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "replace"]))
        if op == "delete":
            del rows[i][j]
        elif op == "repeat":
            rows[i].insert(j, rows[i][j])
        else:
            rows[i][j] = draw(st.one_of(st.sampled_from(MANGLED), st.binary(max_size=6)))
    elif kind == "line":
        if draw(st.booleans()):
            del rows[i]
        else:
            rows.insert(i, rows[i])
    blob = b"".join(b"\t".join(row) + b"\n" for row in rows)
    if kind == "byte":
        k = draw(st.integers(0, len(blob) - 1))
        blob = blob[:k] + draw(st.binary(min_size=1, max_size=1)) + blob[k + 1:]
    elif kind == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    return blob


def expected_rows(blob: bytes, types):
    """What a list file of ``blob`` parses to: ``(rows, None)``, each row a
    (line number, converted fields) pair, or ``(None, n)`` with ``n`` the
    first line that does not parse. A line holding a byte that is not UTF-8
    is found before any line's fields are read. Lines end at a line feed
    alone, and each loses one carriage return at its end, then its
    surrounding spaces and tabs."""
    lines = blob.decode("utf-8", "surrogateescape").split("\n")
    for number, line in enumerate(lines, start=1):
        if any("\udc80" <= ch <= "\udcff" for ch in line):
            return None, number
    rows = []
    for number, line in enumerate(lines, start=1):
        line = line.removesuffix("\r").strip(" \t")
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != len(types):
                raise ValueError
            rows.append((number, tuple(convert(f) for convert, f in zip(types, fields))))
        except ValueError:
            return None, number
    return rows, None


@pytest.fixture(scope="module")
def list_files(tmp_path_factory):
    """Two WAVs; the rows of an evaluate manifest of three pairs of them by
    absolute path and of a corpus index of three utterances by relative
    path; a valid noise index; and a training config."""
    root = tmp_path_factory.mktemp("listfuzz")
    for j, name in enumerate(INPUTS):
        wavio.write_wav(root / name, 0.25 * np.sin(np.arange(480) / (5.0 + j)))
    a, b = (os.fsencode(root / name) for name in INPUTS)
    manifest_rows = [[a, a], [a, b], [b, a]]
    index_rows = [[b"s0", b"a.wav", b"480"], [b"s1", b"b.wav", b"480"], [b"s2", b"a.wav", b"480"]]
    noise_index = root / "noise.idx"
    noise_index.write_text("n0\tb.wav\t480\n")
    config = root / "config.json"
    config.write_text(json.dumps(tiny_train_config()))
    return root, manifest_rows, index_rows, noise_index, config


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_manifest_evaluates_or_exits_2(list_files, data):
    root, manifest_rows, _, _, _ = list_files
    manifest = root / "pairs.tsv"
    blob = data.draw(mutated_list(manifest_rows))
    manifest.write_bytes(blob)
    rows, bad_line = expected_rows(blob, (str, str))

    code, out, err = run_cli(["evaluate", "--pairs", str(manifest)])
    event(f"evaluate exit {code}")
    if rows is None:
        assert code == 2, err
        one_error_line(err)
        assert err.startswith(f"error: {manifest}, line {bad_line}: "), err
        assert out == ""
        return
    records = [line.split("\t") for line in out.splitlines()]
    if code == 0:
        assert err == ""
        assert [r[:2] for r in records[:-1]] == [list(fields) for _, fields in rows]
        assert records[-1][:2] == ["mean", str(len(rows))]
    else:
        # a pair's WAV is missing or is not one; the error names its line,
        # and the pairs above it were scored
        assert code in (1, 3), err
        one_error_line(err)
        failed = re.match(rf"error: {re.escape(str(manifest))}, line (\d+) \(", err)
        assert failed, err
        assert [r[:2] for r in records] == [list(fields) for number, fields in rows
                                            if number < int(failed[1])]


def decimal(field: str) -> int:
    """A corpus index's sample count, which is ASCII decimal digits alone."""
    if not re.fullmatch("[0-9]+", field):
        raise ValueError(field)
    return int(field)


def expected_index(blob: bytes):
    """``expected_rows`` for a corpus index, as ``(entries, None)`` or
    ``(None, message)``, the message that refuses it: an id listed twice
    does not parse either."""
    rows, bad_line = expected_rows(blob, (str, str, decimal))
    if rows is None:
        return None, f", line {bad_line}: "
    entries, first = {}, {}
    for number, (utt_id, rel_path, count) in rows:
        if utt_id in entries:
            return None, f": id {utt_id!r} is listed twice, on lines {first[utt_id]} and {number}"
        entries[utt_id], first[utt_id] = (rel_path, count), number
    return entries, None


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_corpus_index_loads_or_exits_2(list_files, data):
    root, _, index_rows, noise_index, config = list_files
    index = root / "speech.idx"
    blob = data.draw(mutated_list(index_rows))
    index.write_bytes(blob)
    entries, message = expected_index(blob)
    if entries is not None:
        event("parsed")
        corpus = CorpusIndex(index)
        assert corpus.entries == entries
        assert all(type(count) is int for _, count in corpus.entries.values())
        assert corpus.ids == sorted(entries)
        return
    event("refused")
    with pytest.raises(ListFileError) as refused:
        CorpusIndex(index)
    assert str(refused.value).startswith(f"{index}{message}"), refused.value
    out_dir = root / "run"
    code, out, err = run_cli(["train", "--config", str(config), "--speech-index", str(index),
                              "--noise-index", str(noise_index), "--out", str(out_dir)])
    assert code == 2, err
    one_error_line(err)
    assert err.startswith(f"error: {index}{message}"), err
    assert out == "" and not out_dir.exists()
