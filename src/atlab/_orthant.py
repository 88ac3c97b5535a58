"""The Monte Carlo kernel of ``gaussian.product_orthant_mc``.

The run's S samples fall into chunks of ``CHUNK`` samples, the last one
short. Chunk c draws from its own generator,
``default_rng(SeedSequence(seed, spawn_key=(c,)))``: at each level its n
normals of x0, then its n normals of z, and x_n = r x0 + sqrt(1 - r^2) z.
A chunk folds its levels into three bool planes of n entries: the parity of
the factors x0 < 0, that of the factors x_n < 0, and whether any factor is
0. Y_0 > 0 and Y_n > 0 exactly when all three are False, so the signs are
exact and no product is formed.

Chunks do not share a generator, so the miss count does not depend on which
thread folds a chunk or when: the even chunks run on the calling thread and
the odd ones on one worker thread, which both draw with the GIL released.
Each thread holds two float64 blocks and four bool planes of ``CHUNK``
entries, 640 KiB, whatever S is.

Only ``product_orthant_mc`` loads this module. The worker runs only the
private functions here, never a public ``gaussian`` function, so a tracer
that wraps those (perfbench's spans) keeps to the calling thread.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# samples per chunk, and so per generator: part of the stream's definition, so
# a given seed's report changes with it
CHUNK = 2**15


def _chunk_misses(r: float, level: int, seed: int, c: int, bufs) -> int:
    """Samples of chunk c with Y_0 <= 0 or Y_n <= 0; n = len(bufs[0])."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
    scale = math.sqrt(1.0 - r * r)
    x0, xn, neg0, negn, zero, t = bufs
    for plane in (neg0, negn, zero):
        plane.fill(False)
    for _ in range(level):
        rng.standard_normal(out=x0)
        rng.standard_normal(out=xn)
        neg0 ^= np.less(x0, 0.0, out=t)
        zero |= np.equal(x0, 0.0, out=t)
        x0 *= r  # after x0's planes: r < 0 flips its sign, and a tiny r rounds it to 0
        xn *= scale
        xn += x0  # r x0 + sqrt(1 - r^2) z, rounded as the two products' sum
        negn ^= np.less(xn, 0.0, out=t)
        zero |= np.equal(xn, 0.0, out=t)
    neg0 |= negn
    neg0 |= zero
    return int(np.count_nonzero(neg0))


def _stripe_misses(r: float, level: int, samples: int, seed: int, first: int,
                   errors: list) -> int:
    """Misses of chunks first, first + 2, ...; stops early once ``errors`` holds
    the other stripe's exception."""
    size = min(samples, CHUNK)
    floats = [np.empty(size) for _ in range(2)]
    bools = [np.empty(size, dtype=bool) for _ in range(4)]
    misses = 0
    for c in range(first, -(-samples // CHUNK), 2):
        if errors:
            break
        n = min(CHUNK, samples - c * CHUNK)
        misses += _chunk_misses(r, level, seed, c, [b[:n] for b in floats + bools])
    return misses


def misses(r: float, level: int, samples: int, seed: int) -> int:
    """Samples with Y_0 <= 0 or Y_n <= 0 among ``samples`` draws of ``level``
    products at correlation r. An exception in the worker is raised here."""
    counts, errors = [0, 0], []

    def stripe(first):
        try:
            counts[first] = _stripe_misses(r, level, samples, seed, first, errors)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    worker = threading.Thread(target=stripe, args=(1,))  # finds no chunk if samples <= CHUNK
    worker.start()
    stripe(0)
    worker.join()
    if errors:
        raise errors[0]
    return counts[0] + counts[1]
