"""Seeded inputs, per-item operations and per-item checks of the three workloads.

Every input comes from the benchmark's own RNG, squarefree sieve and primality
test; the program under test only ever sees the generated integers.  A workload
object is built inside the worker process after ``redei`` has been imported, and
it looks up every program function through its module at call time, so timing
wrappers installed by ``tracing.py`` are seen.

    python3 bench/workloads.py [draws per prime count]

prints the (primes, 4-rank) shares of the ranks-large draw, from which
RANKS_SHARES below was taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys

DEFAULT_SEED = 1  # a workload object takes the seed of one round, f"{seed}:{round}"

# items in one round: a fresh worker process runs exactly this many items from
# cold caches
ROUND_ITEMS = {"symbol-small": 400, "ranks-large": 100, "oracle-check": 240}

# sha256 of the ordered results of round 0 on DEFAULT_SEED
PINNED_DIGESTS = {
    "symbol-small": "97b573994b931ddb1af07d64df0071992adbc9914689b8d08936a670fdd7426b",
    "ranks-large": "7a0b15fb451983c06c98accfb3048f890c0ce42b03ba1d3f41274cce51f0806b",
    "oracle-check": "201fc5a919f12cc243e04cce41c25add79bee343554b9d1f5707215442f4375c",
}

# (number of primes, 4-rank) -> share of RanksLarge.draw, from 60 000 draws
# (20 000 per prime count) of `python3 bench/workloads.py 20000`
RANKS_SHARES = {
    (2, 0): 0.20000,
    (2, 1): 0.12888,
    (2, 2): 0.00445,
    (3, 0): 0.18177,
    (3, 1): 0.13260,
    (3, 2): 0.01875,
    (3, 3): 0.00022,
    (4, 0): 0.16963,
    (4, 1): 0.14308,
    (4, 2): 0.01945,
    (4, 3): 0.00115,
    (4, 4): 0.00002,
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def squarefree_sieve(n: int) -> bytearray:
    """flags[k] == 1 iff k is squarefree, for 0 <= k <= n (flags[0] == 0)."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = 0
    for k in range(2, math.isqrt(n) + 1):
        sq = k * k
        flags[sq::sq] = bytes(len(range(sq, n + 1, sq)))
    return flags


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases: exact for n < 3.1e23."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: float) -> int:
    """Smallest prime >= x."""
    n = max(2, math.ceil(x))
    while not is_prime(n):
        n += 1
    return n


def _kronecker_prime(a: int, p: int) -> int:
    """(a | p) for a prime p not dividing a."""
    if p == 2:
        return 1 if a % 8 in (1, 7) else -1
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def discriminant_of(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def redei_4rank(d: int, primes: list[int]) -> int:
    """4-rank of the narrow class group of Q(sqrt d), d = +-prod(primes), squarefree.

    Redei's matrix of Kronecker symbols between the prime discriminants of D and
    the primes below them, with the diagonal chosen so that columns sum to zero.
    """
    odd = [p for p in primes if p != 2]
    parts = [p if p % 4 == 1 else -p for p in odd]
    below = list(odd)
    D = discriminant_of(d)
    if D % 2 == 0:
        parts.append(D // math.prod(parts))  # -4, 8 or -8
        below.append(2)
    t = len(parts)
    rows = [0] * t
    for j in range(t):
        column = 0
        for i in range(t):
            if i != j and _kronecker_prime(parts[i], below[j]) == -1:
                rows[i] |= 1 << j
                column ^= 1
        if column:
            rows[j] |= 1 << j
    return t - 1 - _gf2_rank(rows)


def largest_remainder(shares: dict, total: int) -> dict:
    """Whole counts summing to total, in proportion to shares."""
    raw = {k: v * total / sum(shares.values()) for k, v in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


class SymbolSmall:
    """Rejection-sample triples of squarefree integers with |n| <= 1000.

    An item is the run of candidates that ends in a triple accepted by
    is_valid_triple, followed by verify_reciprocity on that triple.
    """

    ranked = False  # rows carry no (r2, r4, r8)
    BOUND = 1000
    REFILL_BELOW = 5000
    CHUNK = 20000

    def __init__(self, seed: str, items: int):
        import redei.symbol

        self.symbol = redei.symbol
        self.rng = random.Random(seed)
        flags = squarefree_sieve(self.BOUND)
        self.values = [-1] + [s * n for n in range(2, self.BOUND + 1) if flags[n] for s in (1, -1)]
        self.pool: list[tuple[int, int, int]] = []
        self.pos = 0
        self.candidates = 0

    def _refill(self):
        picks = self.rng.choices(self.values, k=3 * self.CHUNK)
        fresh = [t for t in zip(picks[0::3], picks[1::3], picks[2::3]) if len(set(t)) == 3]
        self.pool = self.pool[self.pos :] + fresh
        self.pos = 0

    def next_input(self, index: int):
        # an item's candidates come from the pool inside run(); top it up here,
        # outside the timed call
        if len(self.pool) - self.pos < self.REFILL_BELOW:
            self._refill()
        return None

    def run(self, _):
        while True:
            if self.pos == len(self.pool):
                self._refill()
            triple = self.pool[self.pos]
            self.pos += 1
            self.candidates += 1
            if self.symbol.is_valid_triple(*triple):
                return triple, self.symbol.verify_reciprocity(*triple)

    def check(self, _, out):
        triple, report = out
        if not report.consistent:
            return None, f"reciprocity fails on {triple}: {report.values}"
        return [*triple, report.values[triple]], None


class RanksLarge:
    """`redei ranks d --json` for d = +-(product of 2 to 4 distinct primes), 1e11 <= |d| <= 1e12.

    The draw: a prime count t in {2, 3, 4}, log10|d| uniform in [11, 12], the
    primes' shares of log|d| in proportion to t uniform weights, and a random
    sign.  The prime 2 comes up when a weight is small enough.

    A round is stratified, so that its figures depend little on its seed.  Its
    slots hold each (t, 4-rank) class in proportion to RANKS_SHARES, the
    measured shares of the draw.  The n items of a class are the middle draws
    of n equal strata of POOL * n draws of that class, sorted by
    expected_cost.  A draw's 4-rank comes from the benchmark's own Redei
    matrix.  The items run in a seeded order.
    """

    ranked = True  # rows are [d, r2, r4, r8]
    LOW, HIGH = 10**11, 10**12
    POOL = 16

    def __init__(self, seed: str, items: int):
        import redei.cli

        self.cli = redei.cli
        rng = random.Random(seed)
        self.inputs = []
        for (t, r4), n in sorted(largest_remainder(RANKS_SHARES, items).items()):
            pool = []
            while len(pool) < self.POOL * n:
                d, primes = self.draw(rng, t)
                if redei_4rank(d, primes) == r4:
                    pool.append((self.expected_cost(d, primes, r4), d, primes, r4))
            pool.sort()
            self.inputs += [pool[k * self.POOL + self.POOL // 2][1:] for k in range(n)]
        rng.shuffle(self.inputs)

    @staticmethod
    def expected_cost(d: int, primes: list[int], r4: int) -> int:
        """What sets an item's cost, up to a factor: for 4-rank 0 the trial
        division of d, and of D = 4d when that differs, up to
        max(second largest prime, sqrt(largest prime)); otherwise |D|, which
        sizes the conic searches."""
        D = discriminant_of(d)
        if r4 == 0:
            return max(primes[-2], math.isqrt(primes[-1])) * (1 if D == d else 2)
        return abs(D)

    @classmethod
    def draw(cls, rng: random.Random, t: int) -> tuple[int, list[int]]:
        while True:
            target = 10 ** rng.uniform(11, 12)
            weights = [rng.random() for _ in range(t)]
            primes = [next_prime(target ** (w / sum(weights))) for w in weights[:-1]]
            primes.append(next_prime(target / math.prod(primes)))
            d = rng.choice((1, -1)) * math.prod(primes)
            if len(set(primes)) == t and cls.LOW <= abs(d) <= cls.HIGH:
                return d, sorted(primes)

    def next_input(self, index: int):
        return self.inputs[index % len(self.inputs)]

    def run(self, inp):
        d = inp[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["ranks", str(d), "--json"])
        return code, out.getvalue()

    def check(self, inp, out):
        d, primes, want_r4 = inp
        code, text = out
        if code != 0:
            return None, f"ranks {d} exited with {code}"
        record = json.loads(text)
        r = record["result"]
        r2, r4, r8 = r["r2"], r["r4"], r["r8"]
        D = discriminant_of(d)
        omega = len(set(primes) | ({2} if D % 2 == 0 else set()))
        if record["canonical"] != {"d": d, "D": D}:
            return None, f"ranks {d}: canonical {record['canonical']}"
        if r2 != omega - 1 or not 0 <= r8 <= r4 <= r2 or r4 != want_r4:
            return None, f"ranks {d} = {primes}: (r2, r4, r8) = {(r2, r4, r8)}"
        return [d, r2, r4, r8], None


class OracleCheck:
    """redeimatrix r2/r4/r8 against oracle.narrow_ranks for fundamental D.

    Signs alternate and |D| is drawn uniformly from 10 strata of [1e5, 1e6],
    then moved up to the next fundamental discriminant of that sign.
    """

    ranked = True  # rows are [D, r2, r4, r8]
    LOW, HIGH = 10**5, 10**6

    def __init__(self, seed: str, items: int):
        import redei.oracle
        import redei.redeimatrix

        self.oracle = redei.oracle
        self.matrix = redei.redeimatrix
        self.rng = random.Random(seed)
        self.squarefree = squarefree_sieve(self.HIGH)

    def is_fundamental(self, D: int) -> bool:
        if D % 4 == 1:
            return self.squarefree[abs(D)] == 1
        m = D // 4
        return D % 4 == 0 and m % 4 in (2, 3) and self.squarefree[abs(m)] == 1

    def next_input(self, index: int):
        sign = -1 if index % 2 == 0 else 1
        u = ((index // 2) % 10 + self.rng.random()) / 10
        size = self.LOW + int(u * (self.HIGH - self.LOW - 1000))
        while not self.is_fundamental(sign * size):
            size += 1
        return sign * size

    def run(self, D):
        m = self.matrix
        return (m.r2(D), m.r4(D), m.r8(D)), self.oracle.narrow_ranks(D)

    def check(self, D, out):
        mine, truth = out
        if tuple(mine) != tuple(truth):
            return None, f"D = {D}: redeimatrix {mine} != oracle {truth}"
        return [D, *mine], None


WORKLOADS = {
    "symbol-small": SymbolSmall,
    "ranks-large": RanksLarge,
    "oracle-check": OracleCheck,
}


def draw_shares(draws: int, seed: int = 0) -> dict:
    """(t, 4-rank) -> share of the ranks-large draw, over `draws` draws per t."""
    rng = random.Random(seed)
    counts: dict = {}
    for t in (2, 3, 4):
        for _ in range(draws):
            key = (t, redei_4rank(*RanksLarge.draw(rng, t)))
            counts[key] = counts.get(key, 0) + 1
    return {k: counts[k] / (3 * draws) for k in sorted(counts)}


if __name__ == "__main__":
    for key, share in draw_shares(int(sys.argv[1]) if len(sys.argv) > 1 else 20000).items():
        print(f"    {key}: {share:.5f},")
