"""Toy learning-with-errors cryptosystem (scalar secret).

Public key tuples satisfy b_i = (a_i*s + e_i) mod q. One bit phi encrypts to
(u, v) with u the modular sum of a sampled key subset and v the matching b
sum shifted by phi*floor(q/2), mod q. Every value is an exact Python int.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cells import write_json
from .errors import ConfigurationError, GenerationError

#: The longest public key m: keygen draws all of it at once (~2 s at 10**6)
MAX_M = 10**6


@dataclass(frozen=True)
class GaussianErrors:
    """Rounded zero-mean gaussian error distribution, sigma = alpha/sqrt(2*pi)."""

    kind: str = field(default="gaussian", init=False, repr=False)  # the config tag
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigurationError("lwe.error_mode.alpha", "must be a real value > 0")

    def draw(self, rng: np.random.Generator) -> int:
        """One error: a normal draw of sigma gaussian_sigma(alpha), rounded."""
        return int(round(rng.normal(0.0, gaussian_sigma(self.alpha))))


@dataclass(frozen=True)
class UniformErrors:
    """Uniform integer errors on [lo, hi]."""

    kind: str = field(default="uniform", init=False, repr=False)  # the config tag
    lo: int
    hi: int

    def __post_init__(self):
        # numpy draws int64 errors
        if not -2**63 <= self.lo <= self.hi:
            raise ConfigurationError("lwe.error_mode.lo", "must satisfy -2**63 <= lo <= hi")
        if self.hi > 2**63 - 1:
            raise ConfigurationError("lwe.error_mode.hi", "must be <= 2**63 - 1")

    def draw(self, rng: np.random.Generator) -> int:
        """One error, uniform on [lo, hi]."""
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class LweParams:
    """Cryptosystem definition. Only the scalar case (n = 1) is supported.

    The field order is the key order of the ``params`` in a key file."""

    q: int = 7
    n: int = 1
    m: int = 20
    n_samples: int = 5
    s: int = 2
    error_mode: UniformErrors | GaussianErrors = field(default_factory=lambda: UniformErrors(0, 3))

    def __post_init__(self):
        # numpy draws the key's a_i as int64, below q
        if not 2 <= self.q <= 2**63:
            raise ConfigurationError("lwe.q", "modulus must lie in [2, 2**63]")
        if self.n != 1:
            raise ConfigurationError("lwe.n", "only the scalar secret (n=1) is supported")
        if self.m > MAX_M:
            raise ConfigurationError("lwe.m", f"must be <= {MAX_M}, got {self.m}")
        if not 1 <= self.n_samples <= self.m:
            raise ConfigurationError("lwe.n_samples", "must satisfy 1 <= n_samples <= m")
        if not 0 <= self.s <= self.q - 1:
            raise ConfigurationError("lwe.s", "secret must lie in [0, q-1]")


@dataclass(frozen=True)
class PublicKey:
    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigurationError("lwe.public_key", "a and b must have equal length")


@dataclass(frozen=True)
class LweTestCase:
    """Complete per-bit record used to train and validate the reservoir."""

    phi: int
    decrypt_value: int
    u: int
    v: int
    a_samples: tuple
    b_samples: tuple


def gaussian_sigma(alpha: float) -> float:
    """Standard deviation of the error distribution for parameter alpha."""
    return alpha / math.sqrt(2.0 * math.pi)


def keygen(params: LweParams, rng: np.random.Generator) -> PublicKey:
    """Generate a public key: a_i uniform in [0, q-1], b_i = (a_i*s + e_i) mod q."""
    a = rng.integers(0, params.q, params.m).tolist()
    b = [(x * params.s + params.error_mode.draw(rng)) % params.q for x in a]
    return PublicKey(a=tuple(a), b=tuple(b))


def encrypt_sums(a_samples, b_samples, phi: int, q: int) -> tuple:
    """(u, v) from explicit key samples: u = sum(a) mod q,
    v = (sum(b) + phi*floor(q/2)) mod q."""
    return sum(a_samples) % q, (sum(b_samples) + phi * (q // 2)) % q


def decrypt_bit(ciphertext, s: int, q: int) -> tuple:
    """Decrypt the pair (u, v) to (raw value, bit): raw = (v - u*s) mod q,
    bit set when raw exceeds q/2."""
    u, v = ciphertext
    raw = (v - u * s) % q
    return raw, int(2 * raw > q)


def generate_testcases(params: LweParams, n_cases: int, rng: np.random.Generator,
                       pk: PublicKey) -> list:
    """Generate round-trip-correct test cases against one public key.

    Each candidate draws a fresh sample subset and encrypts both bit values
    with it; the candidate is kept only if both decrypt correctly, and then
    contributes one record per bit. Raises GenerationError when 10*n_cases
    candidate draws cannot supply n_cases records.
    """
    if n_cases < 1:
        raise ConfigurationError("n_cases", "must be >= 1")
    cases: list = []
    budget = 10 * n_cases
    for _ in range(budget):
        idx = rng.choice(params.m, size=params.n_samples, replace=False)
        a_samples = tuple(pk.a[i] for i in idx)
        b_samples = tuple(pk.b[i] for i in idx)
        records = []
        for phi in (0, 1):
            u, v = encrypt_sums(a_samples, b_samples, phi, params.q)
            raw, bit = decrypt_bit((u, v), params.s, params.q)
            if bit != phi:
                break
            records.append(LweTestCase(phi=phi, decrypt_value=raw, u=u, v=v,
                                       a_samples=a_samples, b_samples=b_samples))
        else:
            cases.extend(records[: n_cases - len(cases)])
            if len(cases) == n_cases:
                return cases
    raise GenerationError(retention_rate=len(cases) / budget,
                          message=f"exhausted {budget} candidate draws before reaching {n_cases} cases")


def save_dataset(cases, params: LweParams, pk: PublicKey, seed: int, path) -> None:
    """Write test cases as a JSON array; each record repeats q, s, m and
    n_samples of params, the public key and the seed after its own fields."""
    shared = {"q": params.q, "s": params.s, "m": params.m, "n_samples": params.n_samples,
              "public_a": pk.a, "public_b": pk.b, "seed": seed}
    write_json(path, [{**asdict(c), **shared} for c in cases])


def save_keypair(params: LweParams, pk: PublicKey, key_path, secret_path) -> None:
    """Key file holds the public data; the secret goes to a separate file."""
    public = {key: value for key, value in asdict(params).items() if key != "s"}
    write_json(key_path, {"params": public, "public_a": pk.a, "public_b": pk.b})
    write_json(secret_path, {"s": params.s}, indent=None)
