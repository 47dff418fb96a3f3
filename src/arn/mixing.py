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
from .model import ConfigurationError
from .wavio import read_wav

SAMPLE_RATE = 16000
CHUNK_LEN = 4 * SAMPLE_RATE            # 4-second training chunks
TRAIN_SNRS_DB = (-5, -4, -3, -2, -1, 0)
TRIM_WINDOW = 320                      # 20 ms at 16 kHz
TRIM_THRESHOLD_DB = -40.0


@dataclass(frozen=True)
class MixtureRecipe:
    speech_id: str
    noise_id: str
    speech_offset: int
    noise_offset: int
    snr_db: int


def trim_silence(x: np.ndarray, threshold_db: float = TRIM_THRESHOLD_DB,
                 window: int = TRIM_WINDOW) -> np.ndarray:
    """Drop leading/trailing windows whose short-time RMS falls below
    ``threshold_db`` relative to the peak short-time RMS.

    Trimming is window-granular and never touches interior samples. An
    entirely silent signal trims to an empty buffer (callers skip it).
    """
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("trim_silence needs a non-empty signal")
    if threshold_db == -np.inf:
        return x.copy()
    num_win = math.ceil(x.size / window)
    level = np.empty(num_win)
    for w in range(num_win):
        chunk = x[w * window:(w + 1) * window]
        level[w] = np.sqrt(np.mean(chunk * chunk))
    peak = level.max()
    if peak == 0.0:
        return x[:0].copy()
    active = np.flatnonzero(level >= peak * 10.0 ** (threshold_db / 20.0))
    if active.size == 0:
        return x[:0].copy()
    return x[active[0] * window:min((active[-1] + 1) * window, x.size)].copy()


def make_mixture(recipe: MixtureRecipe, speech: np.ndarray, noise: np.ndarray,
                 target_len: int = CHUNK_LEN):
    """Materialize one (noisy, clean) pair from a recipe.

    The noise chunk is scaled so that snr(clean, noisy) equals
    ``recipe.snr_db`` exactly, then the mixture is RMS-normalized and the
    clean signal scaled by the same gain. Speech shorter than ``target_len``
    is used unaltered (the pair shrinks to the speech length).
    """
    speech = np.asarray(speech, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
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

    rms_s, rms_n = rms(s), rms(n)
    if rms_s == 0.0 or rms_n == 0.0:
        raise DegenerateSignalError("silent speech or noise chunk")
    gain = (rms_s / rms_n) * 10.0 ** (-recipe.snr_db / 20.0)
    x = s + gain * n
    x, s, _ = rms_normalize(x, s)
    return x, s


class ListFileError(ValueError):
    """A line of a tab-separated list file (corpus index, evaluation
    manifest) does not have the expected fields."""


def read_list_file(path, types) -> list:
    """Rows of a tab-separated list file, one tuple per non-blank line.

    Field ``i`` of each line is converted by ``types[i]``. A line with the
    wrong number of fields, or a field that does not convert, raises
    ``ListFileError`` naming the file and the 1-based line number.
    """
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != len(types):
                raise ValueError(f"expected {len(types)} tab-separated fields, "
                                 f"found {len(fields)}")
            rows.append(tuple(convert(f) for convert, f in zip(types, fields)))
        except ValueError as exc:
            raise ListFileError(f"{path}, line {number}: {exc}") from None
    return rows


class ArrayCorpus:
    """In-memory corpus of named utterances (tests, synthetic data)."""

    def __init__(self, utterances: dict):
        self.ids = sorted(utterances)
        self._utts = {k: np.asarray(v, dtype=np.float64) for k, v in utterances.items()}

    def load(self, utt_id: str) -> np.ndarray:
        return self._utts[utt_id]

    def __len__(self):
        return len(self.ids)


class CorpusIndex:
    """File-backed corpus: one tab-separated line per utterance,
    ``<id>\\t<relative path>\\t<sample_count>``, paths relative to the index."""

    def __init__(self, index_path):
        self.index_path = Path(index_path)
        self.root = self.index_path.parent
        self.entries = {utt_id: (rel_path, count) for utt_id, rel_path, count
                        in read_list_file(self.index_path, (str, str, int))}
        self.ids = sorted(self.entries)

    def load(self, utt_id: str) -> np.ndarray:
        rel_path, count = self.entries[utt_id]
        wav = read_wav(self.root / rel_path)
        if wav.samples.size != count:
            raise ValueError(
                f"{utt_id}: index declares {count} samples, file has {wav.samples.size}")
        return wav.samples

    def __len__(self):
        return len(self.ids)


def sample_recipe(rng: np.random.Generator, speech_corpus, noise_corpus,
                  snr_choices=TRAIN_SNRS_DB, target_len: int = CHUNK_LEN,
                  trim_db: float = TRIM_THRESHOLD_DB, max_tries: int = 16):
    """Draw one recipe (uniform utterances, offsets, and SNR) and
    materialize it. Returns (recipe, noisy, clean)."""
    if len(speech_corpus) == 0 or len(noise_corpus) == 0:
        raise ConfigurationError("cannot sample from an empty corpus")
    for _ in range(max_tries):
        speech_id = speech_corpus.ids[rng.integers(len(speech_corpus))]
        speech = trim_silence(speech_corpus.load(speech_id), trim_db)
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
            snr_db=int(snr_choices[rng.integers(len(snr_choices))]),
        )
        x, s = make_mixture(recipe, speech, noise, target_len)
        return recipe, x, s
    raise ConfigurationError("corpus appears to contain only silent utterances")


def sample_training_batch(rng: np.random.Generator, speech_corpus, noise_corpus,
                          batch: int, **kwargs):
    """Draw ``batch`` pairs; deterministic given the generator state."""
    return [sample_recipe(rng, speech_corpus, noise_corpus, **kwargs)[1:]
            for _ in range(batch)]


class DynamicMixer:
    """Bundles corpora and mixing options behind a ``sample`` interface."""

    def __init__(self, speech_corpus, noise_corpus, snr_choices=TRAIN_SNRS_DB,
                 target_len: int = CHUNK_LEN, trim_db: float = TRIM_THRESHOLD_DB):
        self.speech_corpus = speech_corpus
        self.noise_corpus = noise_corpus
        self.snr_choices = tuple(snr_choices)
        self.target_len = target_len
        self.trim_db = trim_db

    def _kwargs(self):
        return dict(snr_choices=self.snr_choices, target_len=self.target_len,
                    trim_db=self.trim_db)

    def sample(self, rng: np.random.Generator, count: int):
        return sample_training_batch(rng, self.speech_corpus, self.noise_corpus,
                                     count, **self._kwargs())

    def sample_with_recipes(self, rng: np.random.Generator, count: int):
        return [sample_recipe(rng, self.speech_corpus, self.noise_corpus,
                              **self._kwargs()) for _ in range(count)]
