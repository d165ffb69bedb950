"""Deterministic, named random-number streams with vectorized draw pools.

Every stochastic component of the simulation draws from its own named
substream derived from a single master seed.  Two properties follow:

* Runs are bit-reproducible given the same seed.
* Adding a new component (a new device, a new resolver) does not perturb
  the random draws of existing components, because each stream is seeded
  independently from ``sha256(master_seed, name)`` rather than from a shared
  sequential generator.

**The draw-pool layer.**  Per-draw calls into :class:`random.Random` are
the campaign's innermost cost: every RTT is one ``gauss`` closure call.
:class:`RandomStream` therefore refills a *uniform pool* — a block of raw
``random()`` outputs drawn from the underlying Mersenne Twister in one
list comprehension — and derives every distribution from pool entries
with arithmetic copied verbatim from CPython's ``random`` module:

* ``uniform(a, b)``   = ``a + (b - a) * u``
* ``expovariate(l)``  = ``-log(1 - u) / l``
* ``bernoulli(p)``    = ``u < p``
* ``gauss(mu, s)``    = Box–Muller over two pool uniforms, with the
  same pending-value slot ``random.Random.gauss`` keeps (each pair of
  uniforms yields a cos- and a sin-deviate; the second is held for the
  next call).
* ``weighted_choice`` = ``options[bisect(cum, u * total)]`` with the
  cumulative weights memoised per distinct weight tuple.

Because the pool holds *uniforms* (the generator's ground truth) rather
than transformed deviates, interleaving any mix of pooled calls —
singles, :meth:`gauss_block`, ``bernoulli`` between two ``gauss`` —
consumes the Mersenne Twister in exactly the scalar order, so every
value is bit-identical to the scalar implementation.  The scalar
implementations survive as ``*_reference`` oracles, and the property
tests in ``tests/core/test_rng_pools.py`` assert identity across
interleavings and pool-refill boundaries.

The refill deliberately avoids numpy: on this toolchain ``np.log`` /
``np.exp`` / ``np.sqrt`` differ from ``math.*`` by 1 ulp on a small
fraction of inputs (measured: ~0.3% of 200k samples for the Box–Muller
``sqrt(-2 log u)`` chain), which would break the byte-identity contract
``Dataset.content_hash`` pins.

Only the ``getrandbits`` family (``randint``/``choice``/``sample``/
``shuffle``) cannot be served from the uniform pool — those consume
Twister words through a different code path.  The stream therefore keeps
*two cursors* over the one deterministic sequence: a scalar cursor
(``_rng``) parked at the last consumed draw, and an identically seeded
read-ahead twin (``_ahead``) that pool refills drain.  A
``getrandbits``-family call triggers a *realignment*: the scalar cursor
burns the pool draws consumed so far, the unconsumed tail is dropped
(to be regenerated identically after the twin resyncs), and the call
proceeds scalar on ``_rng``.  In this simulation realignments occur
only at world build time, on streams that make no pooled draws first.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect as _bisect
from functools import lru_cache
from itertools import accumulate as _accumulate
from typing import Dict, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

_exp = math.exp
_log = math.log
_sqrt = math.sqrt
_cos = math.cos
_sin = math.sin
_isfinite = math.isfinite
TWOPI = 2.0 * math.pi

#: Default uniforms per pool refill.  Large enough that refill overhead
#: (one list comprehension off the read-ahead cursor) amortises to
#: ~nothing per draw; small enough that a realignment never replays more
#: than this many uniforms.
POOL_BLOCK = 512


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _seed_from_parts(master_seed: int, parts: tuple) -> int:
    """``derive_seed`` over raw name parts (same name string, same digest)."""
    name = ":".join(map(str, parts))
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


#: Memoised :func:`_seed_from_parts`.  ``stable_index``/``stable_fraction``
#: are keyed by epoch-quantised inputs (device, hour, lease epoch, ...),
#: so the same parts recur for every probe inside an epoch; hashing the
#: tuple beats re-joining the name string and re-running SHA-256 each
#: time.  Purity makes the memo invisible to determinism.  Key families
#: that never repeat here (per-probe or per-slot keys, or keys whose
#: caller already memoises the result) go through the ``*_uncached``
#: helpers instead, so they neither pay for an insert nor fill the memo.
_derived_from_parts = lru_cache(maxsize=1 << 18)(_seed_from_parts)


def derived_seed_cache_info() -> Dict[str, int]:
    """Hit/miss statistics of the ``_derived_from_parts`` memo.

    Surfaced through the benchmark stage breakdown so epoch-rollover
    churn in ``stable_index``/``stable_fraction`` is visible in
    ``BENCH_campaign.json``.
    """
    info = _derived_from_parts.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "currsize": info.currsize,
        "maxsize": info.maxsize,
    }


class RandomStream:
    """A named pseudo-random stream with networking-flavoured helpers.

    Wraps :class:`random.Random`, adds the distributions the latency and
    behaviour models need (log-normal in milliseconds, bounded normal,
    weighted choice), and serves every float-valued draw from a
    block-refilled uniform pool (see the module docstring for the
    identity contract).

    Pool counters — :attr:`pool_refills`, :attr:`pool_hits` (uniforms
    consumed from the pool), :attr:`pool_realignments` — feed the
    ``sampler`` section of ``BENCH_campaign.json``.
    """

    __slots__ = (
        "name",
        "_rng",
        "_ahead",
        "_stale",
        "_gen_unsynced",
        "_u",
        "_pos",
        "_pending",
        "_block",
        "_refill_hint",
        "_cum_memo",
        "pool_refills",
        "pool_generated",
        "pool_realignments",
    )

    def __init__(
        self, master_seed: int, name: str, pool_block: int = POOL_BLOCK
    ) -> None:
        self.name = name
        seed = derive_seed(master_seed, name)
        #: Scalar cursor: positioned at the last *consumed* draw.  The
        #: ``getrandbits`` family and the ``*_reference`` oracles run on
        #: this generator, so their word consumption is exactly scalar.
        self._rng = random.Random(seed)
        #: Read-ahead cursor: an identically seeded twin that the pool
        #: refills drain.  Splitting the cursors means a refill is just
        #: a list comprehension — no ``getstate`` snapshot of the 625-word
        #: Twister state per block.
        self._ahead = random.Random(seed)
        #: Whether ``_ahead`` has fallen behind ``_rng`` (a scalar-family
        #: call advanced ``_rng`` directly); the next refill resyncs.
        self._stale = False
        #: Uniforms drawn into pools since the cursors were last level —
        #: what a realignment must burn on ``_rng``, minus the tail.
        self._gen_unsynced = 0
        #: The uniform pool: raw ``random()`` outputs, refilled in blocks.
        self._u: List[float] = []
        self._pos = 0
        #: Pending second Box–Muller deviate (mirrors ``gauss_next``).
        self._pending: Optional[float] = None
        self._block = pool_block
        #: One-shot request to make the next refill at least this big
        #: (callers that know an attempt set's size use :meth:`prefill`).
        self._refill_hint = 0
        #: Cumulative-weight memo for :meth:`weighted_choice`.
        self._cum_memo: dict = {}
        self.pool_refills = 0
        self.pool_generated = 0
        self.pool_realignments = 0

    # -- pool machinery ----------------------------------------------------

    def _refill(self) -> None:
        """Draw a fresh block of uniforms from the read-ahead cursor.

        Only called on an empty pool.  If a scalar-family call moved
        ``_rng`` since the last sync, the read-ahead twin first jumps to
        ``_rng``'s position (one ``getstate``/``setstate`` pair — paid
        per realignment, not per refill)."""
        if self._stale:
            self._ahead.setstate(self._rng.getstate())
            self._stale = False
        n = self._block
        hint = self._refill_hint
        if hint > n:
            n = hint
        self._refill_hint = 0
        draw = self._ahead.random
        self._u = [draw() for _ in range(n)]
        self._pos = 0
        self._gen_unsynced += n
        self.pool_refills += 1
        self.pool_generated += n

    def _realign(self) -> None:
        """Advance the scalar cursor to the pool-consumption position.

        ``getrandbits``-family calls consume Twister words directly, so
        they must run on a generator positioned exactly after the last
        consumed uniform: burn the consumed pool draws on ``_rng`` and
        drop the unconsumed tail (its values will be regenerated,
        identically, by future refills of the resynced twin).
        """
        u = self._u
        burn = self._gen_unsynced - (len(u) - self._pos)
        if burn > 0:
            draw = self._rng.random
            for _ in range(burn):
                draw()
        self._gen_unsynced = 0
        self._stale = True
        if not u:
            return
        self.pool_generated -= len(u) - self._pos
        self._u = []
        self._pos = 0
        self.pool_realignments += 1

    def prefill(self, n: int) -> None:
        """Hint that roughly ``n`` uniforms are about to be consumed.

        Sizes the *next* refill so one block covers the whole attempt
        set (the measure layer calls this before probing an experiment's
        replica set).  Purely a batching hint — draw values and order
        are unaffected.
        """
        remaining = len(self._u) - self._pos
        if n > remaining:
            hint = n - remaining
            if hint > self._refill_hint:
                self._refill_hint = hint

    @property
    def pool_hits(self) -> int:
        """Uniforms served from the pool so far."""
        return self.pool_generated - (len(self._u) - self._pos)

    # -- uniforms ----------------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1) (one pool entry)."""
        pos = self._pos
        u = self._u
        if pos >= len(u):
            self._refill()
            pos = 0
            u = self._u
        self._pos = pos + 1
        return u[pos]

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high] (CPython's exact arithmetic)."""
        return low + (high - low) * self.random()

    def uniform_block(self, n: int) -> List[float]:
        """``n`` uniforms in [0, 1), in draw order."""
        pos = self._pos
        u = self._u
        end = pos + n
        if end <= len(u):
            self._pos = end
            return u[pos:end]
        out = []
        append = out.append
        for _ in range(n):
            if pos >= len(u):
                self._pos = pos
                self._refill()
                pos = 0
                u = self._u
            append(u[pos])
            pos += 1
        self._pos = pos
        return out

    # -- getrandbits family (realigning passthroughs) ----------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        self._realign()
        return self._rng.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        self._realign()
        return self._rng.choice(options)

    def sample(self, options: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements."""
        self._realign()
        return self._rng.sample(options, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._realign()
        self._rng.shuffle(items)

    # -- gaussians ---------------------------------------------------------

    def _std_gauss(self) -> float:
        """One raw standard-normal deviate (the ``z`` of CPython's
        ``gauss``): pending slot first, else a Box–Muller pair over two
        pool uniforms with the sin-deviate parked for the next call."""
        z = self._pending
        if z is None:
            pos = self._pos
            u = self._u
            if pos + 2 <= len(u):
                u1 = u[pos]
                u2 = u[pos + 1]
                self._pos = pos + 2
            else:
                # Pair spans a refill boundary; the pool is an artifact,
                # the uniform sequence is continuous across it.
                u1 = self.random()
                u2 = self.random()
            x2pi = u1 * TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - u2))
            z = _cos(x2pi) * g2rad
            self._pending = _sin(x2pi) * g2rad
        else:
            self._pending = None
        return z

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal deviate (bit-identical to ``random.Random.gauss``)."""
        return mu + self._std_gauss() * sigma

    def std_gauss(self) -> float:
        """Standard normal deviate, ``== gauss(0.0, 1.0)`` bit for bit.

        The hot samplers inline ``exp(m + s * std_gauss())`` around this
        (`lognormal_from_log`'s arithmetic with the frame removed).
        ``_std_gauss``'s body is duplicated here (pending slot, pooled
        pair, parked sin-deviate) to drop one frame from the hottest
        scalar draw.
        """
        z = self._pending
        if z is None:
            pos = self._pos
            u = self._u
            if pos + 2 <= len(u):
                u1 = u[pos]
                u2 = u[pos + 1]
                self._pos = pos + 2
            else:
                u1 = self.random()
                u2 = self.random()
            x2pi = u1 * TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - u2))
            z = _cos(x2pi) * g2rad
            self._pending = _sin(x2pi) * g2rad
        else:
            self._pending = None
        return 0.0 + z * 1.0

    def gauss_block(self, n: int) -> List[float]:
        """``n`` standard-normal deviates, in draw order.

        Byte-identical to ``n`` successive ``gauss(0.0, 1.0)`` calls:
        the pending deviate is consumed first, pairs are transformed
        from consecutive pool uniforms, and a trailing half-pair parks
        its sin-deviate in the pending slot.  Compiled resolution plans
        and the fused probe paths consume one contiguous block per
        chain instead of one closure call per draw.
        """
        # Fast paths: every uniform the block needs is already pooled —
        # transform in place with all loop state in locals.  This is the
        # shape the fused probe and plan paths hit almost always (they
        # prefill per attempt set).  A parked pending deviate does not
        # fall off the fast path: it is emitted as element 0 and the
        # remaining ``n - 1`` deviates come from pooled pairs (odd-sized
        # fused blocks park a sin-deviate, so pending-first is the
        # *common* shape on the probe path, not the exception).
        if n > 0 and self._pending is not None:
            z = self._pending
            k = n - 1
            if k == 0:
                self._pending = None
                return [0.0 + z * 1.0]
            pool = self._u
            pos = self._pos
            if pos + ((k + 1) & ~1) <= len(pool):
                self._pending = None
                sqrt = _sqrt
                log = _log
                cos = _cos
                sin = _sin
                out = [0.0 + z * 1.0]
                append = out.append
                end = pos + (k & ~1)
                while pos < end:
                    x2pi = pool[pos] * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - pool[pos + 1]))
                    append(0.0 + cos(x2pi) * g2rad * 1.0)
                    append(0.0 + sin(x2pi) * g2rad * 1.0)
                    pos += 2
                if k & 1:
                    x2pi = pool[pos] * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - pool[pos + 1]))
                    append(0.0 + cos(x2pi) * g2rad * 1.0)
                    self._pending = sin(x2pi) * g2rad
                    pos += 2
                self._pos = pos
                return out
        elif n > 0:
            pool = self._u
            pos = self._pos
            if n <= 4:
                # Unrolled: n of 2-4 covers the origin pair, the fused
                # ping block and most compiled chains; list displays
                # beat the append loop by ~40% at this size.
                if n == 2:
                    if pos + 2 <= len(pool):
                        x1 = pool[pos] * TWOPI
                        g1 = _sqrt(-2.0 * _log(1.0 - pool[pos + 1]))
                        self._pos = pos + 2
                        return [
                            0.0 + _cos(x1) * g1 * 1.0,
                            0.0 + _sin(x1) * g1 * 1.0,
                        ]
                elif n == 4:
                    if pos + 4 <= len(pool):
                        x1 = pool[pos] * TWOPI
                        g1 = _sqrt(-2.0 * _log(1.0 - pool[pos + 1]))
                        x2 = pool[pos + 2] * TWOPI
                        g2 = _sqrt(-2.0 * _log(1.0 - pool[pos + 3]))
                        self._pos = pos + 4
                        return [
                            0.0 + _cos(x1) * g1 * 1.0,
                            0.0 + _sin(x1) * g1 * 1.0,
                            0.0 + _cos(x2) * g2 * 1.0,
                            0.0 + _sin(x2) * g2 * 1.0,
                        ]
                elif n == 3:
                    if pos + 4 <= len(pool):
                        x1 = pool[pos] * TWOPI
                        g1 = _sqrt(-2.0 * _log(1.0 - pool[pos + 1]))
                        x2 = pool[pos + 2] * TWOPI
                        g2 = _sqrt(-2.0 * _log(1.0 - pool[pos + 3]))
                        self._pos = pos + 4
                        self._pending = _sin(x2) * g2
                        return [
                            0.0 + _cos(x1) * g1 * 1.0,
                            0.0 + _sin(x1) * g1 * 1.0,
                            0.0 + _cos(x2) * g2 * 1.0,
                        ]
                elif pos + 2 <= len(pool):  # n == 1
                    x1 = pool[pos] * TWOPI
                    g1 = _sqrt(-2.0 * _log(1.0 - pool[pos + 1]))
                    self._pos = pos + 2
                    self._pending = _sin(x1) * g1
                    return [0.0 + _cos(x1) * g1 * 1.0]
            if pos + ((n + 1) & ~1) <= len(pool):
                sqrt = _sqrt
                log = _log
                cos = _cos
                sin = _sin
                out = []
                append = out.append
                end = pos + (n & ~1)
                while pos < end:
                    x2pi = pool[pos] * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - pool[pos + 1]))
                    append(0.0 + cos(x2pi) * g2rad * 1.0)
                    append(0.0 + sin(x2pi) * g2rad * 1.0)
                    pos += 2
                if n & 1:
                    x2pi = pool[pos] * TWOPI
                    g2rad = sqrt(-2.0 * log(1.0 - pool[pos + 1]))
                    append(0.0 + cos(x2pi) * g2rad * 1.0)
                    self._pending = sin(x2pi) * g2rad
                    pos += 2
                self._pos = pos
                return out
        out: List[float] = []
        append = out.append
        z = self._pending
        need = n
        if z is not None and need > 0:
            self._pending = None
            append(0.0 + z * 1.0)
            need -= 1
        pool = self._u
        pos = self._pos
        size = len(pool)
        while need > 0:
            if pos + 2 <= size:
                u1 = pool[pos]
                u2 = pool[pos + 1]
                pos += 2
            else:
                self._pos = pos
                u1 = self.random()
                u2 = self.random()
                pool = self._u
                size = len(pool)
                pos = self._pos
            x2pi = u1 * TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - u2))
            append(0.0 + _cos(x2pi) * g2rad * 1.0)
            need -= 1
            if need > 0:
                append(0.0 + _sin(x2pi) * g2rad * 1.0)
                need -= 1
            else:
                self._pending = _sin(x2pi) * g2rad
        self._pos = pos
        return out

    def expovariate(self, rate: float) -> float:
        """Exponential deviate with the given rate (1/mean)."""
        return -_log(1.0 - self.random()) / rate

    # -- derived distributions --------------------------------------------

    def weighted_choice(self, options: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given (unnormalised) weights.

        Consumes one pool uniform exactly as ``random.choices`` would
        (``bisect`` over cumulative weights scaled by the total); the
        cumulative sums are memoised per distinct weight tuple, since
        resolver/radio selection re-draws from a handful of fixed weight
        vectors for the whole campaign.
        """
        if len(options) != len(weights):
            raise ValueError("options and weights must have the same length")
        key = tuple(weights)
        entry = self._cum_memo.get(key)
        if entry is None:
            cum = list(_accumulate(weights))
            total = cum[-1] + 0.0
            if total <= 0.0:
                raise ValueError("Total of weights must be greater than zero")
            if not _isfinite(total):
                raise ValueError("Total of weights must be finite")
            entry = (cum, total, len(cum) - 1)
            self._cum_memo[key] = entry
        cum, total, hi = entry
        return options[_bisect(cum, self.random() * total, 0, hi)]

    def lognormal_ms(self, median_ms: float, sigma: float) -> float:
        """Log-normal latency sample parameterised by its *median*.

        Network latencies are right-skewed; a log-normal with ``mu =
        ln(median)`` matches the CDF shapes reported for cellular RTTs
        (long tail above p80, tight body).
        """
        if median_ms <= 0:
            raise ValueError("median_ms must be positive")
        return _exp(_log(median_ms) + sigma * (0.0 + self._std_gauss() * 1.0))

    def lognormal_from_log(self, log_median: float, sigma: float) -> float:
        """Log-normal sample from a *precomputed* ``ln(median)``.

        Bit-identical to ``lognormal_ms(median, sigma)`` when
        ``log_median == math.log(median)`` — same single Gaussian draw,
        same arithmetic — but skips the per-call ``math.log`` and the
        positivity check.  Used by precompiled RTT samplers on hot paths.
        """
        return _exp(log_median + sigma * (0.0 + self._std_gauss() * 1.0))

    def bounded_gauss(self, mu: float, sigma: float, low: float, high: float) -> float:
        """Normal deviate clamped to [low, high]."""
        return min(high, max(low, mu + self._std_gauss() * sigma))

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        return self.random() < probability

    # -- scalar reference oracles ------------------------------------------
    #
    # The pre-pool implementations, verbatim: direct calls into the
    # wrapped ``random.Random``.  They are the executable specification
    # the pooled paths are property-tested against.  Use them on a
    # dedicated stream (or after pooled draws — they realign first);
    # a stream driven purely through ``*_reference`` behaves exactly
    # like the historical scalar RandomStream.

    def random_reference(self) -> float:
        """Scalar oracle for :meth:`random`."""
        self._realign()
        return self._rng.random()

    def uniform_reference(self, low: float, high: float) -> float:
        """Scalar oracle for :meth:`uniform`."""
        self._realign()
        return self._rng.uniform(low, high)

    def gauss_reference(self, mu: float, sigma: float) -> float:
        """Scalar oracle for :meth:`gauss` (uses ``gauss_next``)."""
        self._realign()
        return self._rng.gauss(mu, sigma)

    def expovariate_reference(self, rate: float) -> float:
        """Scalar oracle for :meth:`expovariate`."""
        self._realign()
        return self._rng.expovariate(rate)

    def weighted_choice_reference(
        self, options: Sequence[T], weights: Sequence[float]
    ) -> T:
        """Scalar oracle for :meth:`weighted_choice` (``random.choices``)."""
        if len(options) != len(weights):
            raise ValueError("options and weights must have the same length")
        self._realign()
        return self._rng.choices(options, weights=weights, k=1)[0]

    def lognormal_ms_reference(self, median_ms: float, sigma: float) -> float:
        """Scalar oracle for :meth:`lognormal_ms`."""
        if median_ms <= 0:
            raise ValueError("median_ms must be positive")
        self._realign()
        return math.exp(math.log(median_ms) + sigma * self._rng.gauss(0.0, 1.0))

    def lognormal_from_log_reference(self, log_median: float, sigma: float) -> float:
        """Scalar oracle for :meth:`lognormal_from_log`."""
        self._realign()
        return math.exp(log_median + sigma * self._rng.gauss(0.0, 1.0))

    def bounded_gauss_reference(
        self, mu: float, sigma: float, low: float, high: float
    ) -> float:
        """Scalar oracle for :meth:`bounded_gauss`."""
        self._realign()
        return min(high, max(low, self._rng.gauss(mu, sigma)))

    def bernoulli_reference(self, probability: float) -> bool:
        """Scalar oracle for :meth:`bernoulli`."""
        self._realign()
        return self._rng.random() < probability

    def __repr__(self) -> str:
        return f"RandomStream(name={self.name!r})"


def _fold_pool_counters(totals: Dict[str, int], stream: RandomStream) -> None:
    """Add one stream's draw-pool counters to ``totals``."""
    totals["streams"] += 1
    totals["pool_refills"] += stream.pool_refills
    totals["pool_uniforms"] += stream.pool_generated
    totals["pool_hits"] += stream.pool_hits
    totals["pool_realignments"] += stream.pool_realignments
    totals["weighted_memo_entries"] += len(stream._cum_memo)


class RngRegistry:
    """Factory of named :class:`RandomStream` objects.

    It hands out two kinds of stream:

    * **Kept streams** (:meth:`stream`): cached by name for the life of
      the registry, so asking for the same name twice returns the same
      stream and a component's draws stay sequential.  World build,
      population and analysis streams are kept.
    * **Lent streams** (:meth:`lend`): built fresh under their name and
      never stored.  Each experiment borrows one and hands it back with
      :meth:`release` when it returns; the registry folds the stream's
      pool counters into its totals and drops it.  A stream is a pure
      function of ``(master_seed, name)``, so not keeping it changes no
      draw, and a long campaign's memory stops growing with its
      experiment count.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict = {}
        #: Streams handed out by :meth:`lend`, released or not.  Nonzero
        #: means something has drawn from the registry beyond its kept
        #: streams (the world snapshot's pristineness witness reads it).
        self.lent = 0
        #: Pool counters of released streams (:meth:`pool_stats` adds
        #: the kept streams' live counters on top).
        self._released: Dict[str, int] = dict.fromkeys(
            (
                "streams",
                "pool_refills",
                "pool_uniforms",
                "pool_hits",
                "pool_realignments",
                "weighted_memo_entries",
            ),
            0,
        )

    def stream(self, *name_parts: object) -> RandomStream:
        """Return the kept stream for the given dotted name parts.

        Example: ``registry.stream("device", device_id, "radio")``.
        """
        name = ".".join(str(part) for part in name_parts)
        if name not in self._streams:
            self._streams[name] = RandomStream(self.master_seed, name)
        return self._streams[name]

    def lend(self, *name_parts: object) -> RandomStream:
        """A fresh stream for the given name parts, not kept here.

        The borrower hands it back with :meth:`release`.  Lending the
        same name twice yields two streams that start from the same
        draw.
        """
        self.lent += 1
        return RandomStream(self.master_seed, ".".join(map(str, name_parts)))

    def release(self, stream: RandomStream) -> None:
        """Fold a lent stream's pool counters into the registry totals."""
        _fold_pool_counters(self._released, stream)

    def fork(self, suffix: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one's."""
        return RngRegistry(derive_seed(self.master_seed, f"fork:{suffix}"))

    def known_streams(self) -> Iterable[str]:
        """Names of the kept streams created so far (for debugging)."""
        return sorted(self._streams)

    def pool_stats(self) -> Dict[str, int]:
        """Aggregate draw-pool counters across every stream.

        Kept streams count with their live counters, released lent
        streams with the counters they had on release.  Feeds the
        ``sampler`` section of ``BENCH_campaign.json``: refills > 0 on
        the bench path is the bench gate's sanity check that the
        campaign actually rides the pools.
        """
        totals = dict(self._released)
        for stream in self._streams.values():
            _fold_pool_counters(totals, stream)
        return totals

    def __repr__(self) -> str:
        return f"RngRegistry(master_seed={self.master_seed}, streams={len(self._streams)})"


def spread_evenly(total: int, buckets: int) -> list:
    """Split ``total`` into ``buckets`` integer parts that differ by <= 1.

    Deterministic helper used when distributing clients/resolvers across
    groups without randomness.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    base, extra = divmod(total, buckets)
    return [base + (1 if index < extra else 0) for index in range(buckets)]


def make_stream(seed: int, name: str = "default") -> RandomStream:
    """Convenience constructor for a standalone stream."""
    return RandomStream(seed, name)


def stable_index(master_seed: int, *parts: object, modulo: int) -> int:
    """A deterministic pseudo-random index, pure in its inputs.

    Unlike a :class:`RandomStream`, the result does not depend on how many
    draws happened before: the same ``(seed, parts)`` always yields the
    same index.  Used for time-epoch-keyed assignments (which external
    resolver a device maps to during hour N) so that assignment churn is
    reproducible regardless of measurement order.
    """
    if modulo <= 0:
        raise ValueError("modulo must be positive")
    return _derived_from_parts(master_seed, parts) % modulo


def stable_fraction(master_seed: int, *parts: object) -> float:
    """Deterministic pseudo-random float in [0, 1), pure in its inputs."""
    return _derived_from_parts(master_seed, parts) / float(1 << 64)


def stable_index_uncached(master_seed: int, *parts: object, modulo: int) -> int:
    """:func:`stable_index` without the memo, for keys that never repeat.

    Same value for the same inputs; used where the parts carry a
    per-probe time or a schedule slot, so a memo entry would never be
    hit again and would only grow with the campaign.
    """
    if modulo <= 0:
        raise ValueError("modulo must be positive")
    return _seed_from_parts(master_seed, parts) % modulo


def stable_fraction_uncached(master_seed: int, *parts: object) -> float:
    """:func:`stable_fraction` without the memo, for keys that never repeat."""
    return _seed_from_parts(master_seed, parts) / float(1 << 64)
