"""Named deterministic random streams.

Every stochastic choice in the pipeline draws from a stream keyed by
(purpose, task, seed, ...) so that independent parts of a run can never
steal draws from each other. Same key, same platform, same numbers.
"""

import zlib

import numpy as np

SEED_LIMIT = 2**32  # streams key on a 32-bit word: seeds at or past it alias smaller ones


def _key_word(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) % SEED_LIMIT
    return zlib.crc32(str(part).encode("utf-8"))


def seed_stream(*parts) -> np.random.Generator:
    """Return a fresh Generator for the stream named by `parts`.

    Parts may be strings or integers, e.g. seed_stream("scene", task_id, seed).
    """
    if not parts:
        raise ValueError("seed_stream needs at least one part")
    words = [_key_word(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(words))
