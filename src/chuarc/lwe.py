"""Toy learning-with-errors cryptosystem (scalar secret).

Public key tuples satisfy b_i = (a_i*s + e_i) mod q. One bit phi encrypts to
(u, v) with u the modular sum of a sampled key subset and v the matching b
sum shifted by q/2*phi, floored to an integer once at encryption time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, GenerationError


@dataclass(frozen=True)
class GaussianErrors:
    """Rounded zero-mean gaussian error distribution, sigma = alpha/sqrt(2*pi)."""

    kind: str = field(default="gaussian", init=False, repr=False)  # the config tag
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigurationError("lwe.error_mode.alpha", "must be a real value > 0")


@dataclass(frozen=True)
class UniformErrors:
    """Uniform integer errors on [lo, hi]."""

    kind: str = field(default="uniform", init=False, repr=False)  # the config tag
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConfigurationError("lwe.error_mode.lo", "lo must not exceed hi")


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
        if self.q < 2:
            raise ConfigurationError("lwe.q", "modulus must be >= 2")
        if self.n != 1:
            raise ConfigurationError("lwe.n", "only the scalar secret (n=1) is supported")
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
class Ciphertext:
    """One encrypted bit: modular sums u, v plus the 1-based sample indices."""

    u: int
    v: int
    k: tuple


@dataclass(frozen=True)
class LweTestCase:
    """Complete per-bit record used to train and validate the reservoir."""

    phi: int
    decrypt_value: int
    u: int
    v: int
    a_samples: tuple
    b_samples: tuple
    q: int
    s: int
    m: int
    n_samples: int


def gaussian_sigma(alpha: float) -> float:
    """Standard deviation of the error distribution for parameter alpha."""
    return alpha / math.sqrt(2.0 * math.pi)


def error_sample(mode, rng: np.random.Generator) -> int:
    """Draw one integer error from the configured distribution."""
    if isinstance(mode, GaussianErrors):
        return int(round(rng.normal(0.0, gaussian_sigma(mode.alpha))))
    if isinstance(mode, UniformErrors):
        return int(rng.integers(mode.lo, mode.hi + 1))
    raise ConfigurationError("lwe.error_mode", f"unknown error mode {mode!r}")


def keygen(params: LweParams, rng: np.random.Generator) -> PublicKey:
    """Generate a public key: a_i uniform in [0, q-1], b_i = (a_i*s + e_i) mod q."""
    a = rng.integers(0, params.q, params.m)
    e = np.array([error_sample(params.error_mode, rng) for _ in range(params.m)])
    b = (a * params.s + e) % params.q
    return PublicKey(a=tuple(int(x) for x in a), b=tuple(int(x) for x in b))


def encrypt_sums(a_samples, b_samples, phi: int, q: int) -> tuple:
    """(u, v) from explicit key samples: u = sum(a) mod q,
    v = floor((sum(b) + q/2*phi) mod q)."""
    u = int(sum(a_samples) % q)
    v = int(math.floor((sum(b_samples) + (q / 2.0) * phi) % q))
    return u, v


def encrypt_bit(pk: PublicKey, phi: int, params: LweParams, rng: np.random.Generator) -> Ciphertext:
    """Encrypt one bit using a fresh random subset of the public key."""
    m = len(pk.a)
    if params.n_samples > m:
        raise ConfigurationError("lwe.n_samples", "cannot exceed the public key length")
    idx = rng.choice(m, size=params.n_samples, replace=False)
    a_samples = [pk.a[i] for i in idx]
    b_samples = [pk.b[i] for i in idx]
    u, v = encrypt_sums(a_samples, b_samples, phi, params.q)
    return Ciphertext(u=u, v=v, k=tuple(int(i) + 1 for i in idx))


def decrypt_bit(ciphertext, s: int, q: int) -> tuple:
    """Decrypt (u, v) to (raw value, bit): raw = (v - u*s) mod q, bit set when
    raw exceeds q/2. Accepts a Ciphertext or a (u, v) pair."""
    if isinstance(ciphertext, Ciphertext):
        u, v = ciphertext.u, ciphertext.v
    else:
        u, v = ciphertext
    raw = int((v - u * s) % q)
    return raw, 1 if raw > q / 2.0 else 0


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
    attempts = 0
    budget = 10 * n_cases
    while len(cases) < n_cases:
        if attempts >= budget:
            raise GenerationError(
                retention_rate=len(cases) / max(1, attempts),
                message=f"exhausted {budget} candidate draws before reaching {n_cases} cases",
            )
        attempts += 1
        idx = rng.choice(params.m, size=params.n_samples, replace=False)
        a_samples = tuple(pk.a[i] for i in idx)
        b_samples = tuple(pk.b[i] for i in idx)
        records = []
        ok = True
        for phi in (0, 1):
            u, v = encrypt_sums(a_samples, b_samples, phi, params.q)
            raw, bit = decrypt_bit((u, v), params.s, params.q)
            if bit != phi:
                ok = False
                break
            records.append(
                LweTestCase(
                    phi=phi,
                    decrypt_value=raw,
                    u=u,
                    v=v,
                    a_samples=a_samples,
                    b_samples=b_samples,
                    q=params.q,
                    s=params.s,
                    m=params.m,
                    n_samples=params.n_samples,
                )
            )
        if ok:
            cases.extend(records[: n_cases - len(cases)])
    return cases


def multibit_encrypt(bits, pk: PublicKey, params: LweParams, rng: np.random.Generator) -> list:
    """Encrypt a bit sequence; every bit gets an independent fresh sample subset."""
    bits = list(bits)
    if not bits:
        raise ConfigurationError("bits", "message must be nonempty")
    return [encrypt_bit(pk, int(b), params, rng) for b in bits]


def multibit_decrypt(ciphertexts, s: int, q: int) -> list:
    """Decrypt a ciphertext sequence to its bit values."""
    return [decrypt_bit(c, s, q)[1] for c in ciphertexts]


def save_dataset(cases, pk: PublicKey, seed: int, path) -> None:
    """Write test cases as a JSON array with the public key repeated per record."""
    rows = []
    for c in cases:
        row = asdict(c)
        row["a_samples"] = list(c.a_samples)
        row["b_samples"] = list(c.b_samples)
        row["public_a"] = list(pk.a)
        row["public_b"] = list(pk.b)
        row["seed"] = seed
        rows.append(row)
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)


def save_keypair(params: LweParams, pk: PublicKey, key_path, secret_path) -> None:
    """Key file holds the public data; the secret goes to a separate file."""
    public = asdict(params)
    public.pop("s")
    with open(key_path, "w") as fh:
        json.dump({"params": public, "public_a": list(pk.a), "public_b": list(pk.b)}, fh, indent=1)
    with open(secret_path, "w") as fh:
        json.dump({"s": params.s}, fh)
