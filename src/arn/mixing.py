"""Dynamic mixing: deterministic construction of (noisy, clean) training pairs.

Each pair is described by a recipe (speech id, noise id, chunk offsets,
SNR in dB) that fully determines the output bit-for-bit, so batches can be
replayed and recipes materialized concurrently. Speech utterances are
silence-trimmed before chunking; recipe offsets index the trimmed signal.
Mixtures are RMS-normalized with the clean reference scaled by the same
gain, which preserves the constructed SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import DegenerateSignalError, rms, rms_normalize
from .model import ConfigurationError, check_type
from .wavio import SAMPLE_RATE, read_wav

CHUNK_LEN = 4 * SAMPLE_RATE            # 4-second training chunks
TRAIN_SNRS_DB = (-5, -4, -3, -2, -1, 0)
TRIM_WINDOW = 320                      # 20 ms at 16 kHz
TRIM_THRESHOLD_DB = -40.0
MAX_TRIES = 16                         # draws before a corpus counts as silent


@dataclass(frozen=True)
class MixtureRecipe:
    speech_id: str
    noise_id: str
    speech_offset: int
    noise_offset: int
    snr_db: float


def trim_silence(x: np.ndarray, threshold_db: float = TRIM_THRESHOLD_DB) -> np.ndarray:
    """Drop leading/trailing ``TRIM_WINDOW``-sample windows whose short-time
    RMS falls below ``threshold_db`` relative to the peak short-time RMS.

    Trimming is window-granular and never touches interior samples; the
    result is a view of ``x``. An entirely silent signal trims to an empty
    buffer (callers skip it). Window levels are computed in float64 whatever
    the dtype of ``x``, so float32 samples trim exactly as their float64
    values do.
    """
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("trim_silence needs a non-empty signal")
    if threshold_db == -np.inf:
        return x[:]
    # each window's mean square, the last one possibly partial; a row mean
    # sums its window exactly as a mean over that window alone would
    power = np.square(x, dtype=np.float64)
    full = x.size // TRIM_WINDOW
    level = np.empty(math.ceil(x.size / TRIM_WINDOW))
    level[:full] = power[:full * TRIM_WINDOW].reshape(full, TRIM_WINDOW).mean(axis=1)
    if level.size > full:
        level[full] = power[full * TRIM_WINDOW:].mean()
    np.sqrt(level, out=level)
    peak = level.max()
    if peak == 0.0:
        return x[:0]
    active = np.flatnonzero(level >= peak * 10.0 ** (threshold_db / 20.0))
    if active.size == 0:
        return x[:0]
    return x[active[0] * TRIM_WINDOW:min((active[-1] + 1) * TRIM_WINDOW, x.size)]


def noise_gain(snr_db) -> float:
    """10^(-snr_db / 20): the noise's amplitude, relative to the speech's,
    that mixes them at ``snr_db`` dB.

    An SNR that is not finite, or so low that the gain overflows a float,
    raises ``ValueError``. ``make_mixture``, ``arn mix --snr`` and
    ``DynamicMixer``'s ``snr_choices`` all use this one check.
    """
    try:
        snr = float(snr_db)
        gain = 10.0 ** (-snr / 20.0)
    except OverflowError:  # an int beyond the float range, or its gain
        snr = gain = math.inf
    if not (math.isfinite(snr) and math.isfinite(gain)):
        raise ValueError(f"SNR {snr_db!r} dB is not finite or its noise gain "
                         f"10^(-SNR/20) overflows")
    return gain


def make_mixture(recipe: MixtureRecipe, speech: np.ndarray, noise: np.ndarray,
                 target_len: int = CHUNK_LEN):
    """Materialize one (noisy, clean) pair from a recipe.

    The noise chunk is scaled so that snr(clean, noisy) equals
    ``recipe.snr_db`` exactly, then the mixture is RMS-normalized and the
    clean signal scaled by the same gain. Speech shorter than ``target_len``
    is used unaltered (the pair shrinks to the speech length). An SNR so low
    that the mixture's power overflows a float raises
    ``DegenerateSignalError``: normalizing it would scale both signals to
    zero.
    """
    speech = np.asarray(speech)
    noise = np.asarray(noise)
    if speech.size <= target_len:
        s = speech
    else:
        if recipe.speech_offset + target_len > speech.size:
            raise ValueError("speech offset leaves no room for the chunk")
        s = speech[recipe.speech_offset:recipe.speech_offset + target_len]
    if s.size == 0:
        raise DegenerateSignalError("empty speech chunk")
    if recipe.noise_offset + s.size > noise.size:
        raise ValueError("noise chunk does not cover the target length")
    n = noise[recipe.noise_offset:recipe.noise_offset + s.size]
    # only the chunks are converted, so float32 corpora mix in float64 too
    s, n = np.asarray(s, dtype=np.float64), np.asarray(n, dtype=np.float64)

    rms_s, rms_n = rms(s), rms(n)
    if rms_s == 0.0 or rms_n == 0.0:
        raise DegenerateSignalError("silent speech or noise chunk")
    gain = (rms_s / rms_n) * noise_gain(recipe.snr_db)
    with np.errstate(over="ignore", invalid="ignore"):
        x = s + gain * n
        level = rms(x)
    if not math.isfinite(level):
        raise DegenerateSignalError(
            f"at SNR {recipe.snr_db!r} dB the mixture's power overflows a float")
    return rms_normalize(x, s)


class ListFileError(ValueError):
    """A line of a tab-separated list file (corpus index, evaluation
    manifest) does not have the expected fields."""


def read_list_file(path, types) -> list:
    """Rows of a tab-separated list file: one (1-based line number, fields)
    pair per non-blank line, the number for messages about the row.

    The file is UTF-8 text. Field ``i`` of each line is converted by
    ``types[i]``. A byte that is not UTF-8, a line with the wrong number of
    fields, or a field that does not convert raises ``ListFileError``
    naming the file and the line number.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line breaks before the bad byte, counted as splitlines counts them
        number = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ListFileError(f"{path}, line {number}: not UTF-8 text "
                            f"({exc.reason} at byte {exc.start})") from None
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != len(types):
                raise ValueError(f"expected {len(types)} tab-separated fields, "
                                 f"found {len(fields)}")
            rows.append((number, tuple(convert(f) for convert, f in zip(types, fields))))
        except ValueError as exc:
            raise ListFileError(f"{path}, line {number}: {exc}") from None
    return rows


class _Corpus:
    """Named utterances: ``ids`` in sorted order and ``load(utt_id)``.

    ``trimmed`` memoizes each utterance's silence-trimmed samples per
    threshold, a read-only view of ``load``'s array, so a corpus drawn from
    repeatedly trims each utterance once.
    """

    def __init__(self):
        self._trimmed = {}

    def trimmed(self, utt_id: str, trim_db: float) -> np.ndarray:
        key = (utt_id, trim_db)
        speech = self._trimmed.get(key)
        if speech is None:
            speech = trim_silence(self.load(utt_id), trim_db)
            speech.flags.writeable = False
            self._trimmed[key] = speech
        return speech

    def __len__(self):
        return len(self.ids)


class ArrayCorpus(_Corpus):
    """In-memory corpus of named utterances (tests, synthetic data)."""

    def __init__(self, utterances: dict):
        super().__init__()
        self.ids = sorted(utterances)
        self._utts = {k: np.asarray(v, dtype=np.float64) for k, v in utterances.items()}

    def load(self, utt_id: str) -> np.ndarray:
        return self._utts[utt_id]


class CorpusIndex(_Corpus):
    """File-backed corpus: one tab-separated line per utterance,
    ``<id>\\t<relative path>\\t<sample_count>``, paths relative to the index.

    Each file is read and decoded on its first ``load`` only, and its samples
    are kept for every later one as a read-only float32 array, which holds
    both accepted WAV encodings exactly: once every utterance has been
    drawn, the whole corpus is held decoded in memory, at 4 bytes a sample.
    """

    def __init__(self, index_path):
        super().__init__()
        self.index_path = Path(index_path)
        self.root = self.index_path.parent
        self.entries = {}
        first_lines = {}
        for number, (utt_id, rel_path, count) in read_list_file(self.index_path,
                                                                (str, str, int)):
            if utt_id in self.entries:
                raise ListFileError(f"{self.index_path}: id {utt_id!r} is listed twice, "
                                    f"on lines {first_lines[utt_id]} and {number}")
            self.entries[utt_id] = (rel_path, count)
            first_lines[utt_id] = number
        self.ids = sorted(self.entries)
        self._samples = {}

    def load(self, utt_id: str) -> np.ndarray:
        samples = self._samples.get(utt_id)
        if samples is None:
            rel_path, count = self.entries[utt_id]
            samples = read_wav(self.root / rel_path)
            if samples.size != count:
                raise ValueError(
                    f"{utt_id}: index declares {count} samples, file has {samples.size}")
            samples = samples.astype(np.float32)
            samples.flags.writeable = False
            self._samples[utt_id] = samples
        return samples


def sample_recipe(rng: np.random.Generator, speech_corpus, noise_corpus,
                  snr_choices=TRAIN_SNRS_DB, target_len: int = CHUNK_LEN,
                  trim_db: float = TRIM_THRESHOLD_DB):
    """Draw one recipe (uniform utterances, offsets, and SNR) and
    materialize it. Returns (recipe, noisy, clean).

    The corpora are ``ArrayCorpus`` or ``CorpusIndex`` objects; speech is
    trimmed once per utterance and ``trim_db`` (``trimmed``), and a
    ``CorpusIndex`` decodes each file once.
    """
    if len(speech_corpus) == 0 or len(noise_corpus) == 0:
        raise ConfigurationError("cannot sample from an empty corpus")
    for _ in range(MAX_TRIES):
        speech_id = speech_corpus.ids[rng.integers(len(speech_corpus))]
        speech = speech_corpus.trimmed(speech_id, trim_db)
        if speech.size == 0:
            continue  # silent utterance: skip and redraw
        noise_id = noise_corpus.ids[rng.integers(len(noise_corpus))]
        noise = noise_corpus.load(noise_id)
        chunk = min(target_len, speech.size)
        if noise.size < chunk:
            raise ConfigurationError(
                f"noise {noise_id!r} shorter than the {chunk}-sample chunk")
        recipe = MixtureRecipe(
            speech_id=speech_id,
            noise_id=noise_id,
            speech_offset=int(rng.integers(speech.size - chunk + 1)),
            noise_offset=int(rng.integers(noise.size - chunk + 1)),
            snr_db=snr_choices[rng.integers(len(snr_choices))],
        )
        x, s = make_mixture(recipe, speech, noise, target_len)
        return recipe, x, s
    raise ConfigurationError("corpus appears to contain only silent utterances")


class DynamicMixer:
    """Bundles corpora and mixing options behind a ``sample`` interface.

    The options are checked here, the block of a training config as any
    other caller's: ``snr_choices`` a non-empty list of numbers, each one
    that ``noise_gain`` accepts, ``target_len`` an int of at least 1, and
    ``trim_db`` a number of at most 0 (-inf trims nothing). A bad one raises
    ``ConfigurationError`` naming it.
    """

    def __init__(self, speech_corpus, noise_corpus, snr_choices=TRAIN_SNRS_DB,
                 target_len: int = CHUNK_LEN, trim_db: float = TRIM_THRESHOLD_DB):
        if not isinstance(snr_choices, (list, tuple)) or not snr_choices:
            raise ConfigurationError(
                f"snr_choices must be a non-empty list of numbers, got {snr_choices!r}")
        for snr in snr_choices:
            check_type("snr_choices", snr, 0.0)
            try:
                noise_gain(snr)
            except ValueError as exc:
                raise ConfigurationError(f"snr_choices: {exc}") from None
        check_type("target_len", target_len, CHUNK_LEN)
        if target_len < 1:
            raise ConfigurationError(f"target_len must be at least 1, got {target_len}")
        check_type("trim_db", trim_db, TRIM_THRESHOLD_DB)
        if not trim_db <= 0.0:
            # above 0 (or NaN) no window reaches the threshold, and every
            # utterance would trim to silence
            raise ConfigurationError(f"trim_db must be at most 0 dB, got {trim_db}")
        self.speech_corpus = speech_corpus
        self.noise_corpus = noise_corpus
        self.snr_choices = tuple(snr_choices)
        self.target_len = target_len
        self.trim_db = trim_db

    def sample(self, rng: np.random.Generator, count: int):
        """``count`` (noisy, clean) pairs; deterministic given the generator
        state."""
        return [(x, s) for _, x, s in self.sample_with_recipes(rng, count)]

    def sample_with_recipes(self, rng: np.random.Generator, count: int):
        return [sample_recipe(rng, self.speech_corpus, self.noise_corpus,
                              self.snr_choices, self.target_len, self.trim_db)
                for _ in range(count)]
