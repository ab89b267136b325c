"""Monte Carlo randomized-benchmarking engine.

The protocol per sequence: prepare rho_S, apply m uniformly random gates and
the compiled inverse with the model's noise slots interleaved (see
:mod:`rbmpo.noise` for the slot convention), and measure a POVM element.
Averaging the survival probability over resampled sequences at each length
gives the average sequence fidelity (ASF) curve with standard errors.

Determinism contract: the random stream for sample k at length m is derived
from (seed, m, k), so results are independent of evaluation order.

One loop: ``_survival`` runs sequences of non-increasing lengths as a stack
(rows, dim^2) of vectorised joint states, each slot one superoperator
product, and takes each step's gate indices as one column.
:func:`run_sequence` is its one-length case, and :func:`estimate_asf` runs
all lengths through it in one pass, drawing each column as the loop reaches
it (:func:`_stream_indices`, the one definition of the gate stream).  Both
run in chunks whose states and gathered gates hold at most 320 KiB, at any
joint width, and every product is per row.  ``_survival`` lifts its gate table
up front, which for :func:`run_sequence` is a chunk's rows x m gates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import InputError, NumericalError, ShapeError
from .linalg import dagger, unitarity_defect
from .noise import NoiseSteps, kraus_stack
from .quantum import GateSet, basis_state, single_qubit_cliffords, validate_state_and_povm


@dataclass(frozen=True)
class AsfCurve:
    """Average sequence fidelity per length, with standard errors of the mean."""

    lengths: tuple[int, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    n_samples: int

    def __post_init__(self):
        if not (len(self.lengths) == len(self.means) == len(self.stderrs)):
            raise ShapeError("lengths, means and stderrs must have equal length")
        if any(m < 1 for m in self.lengths):
            raise InputError("sequence lengths must be positive")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise InputError("sequence lengths must be strictly increasing")
        if any(not -1e-12 <= v <= 1 + 1e-12 for v in self.means):
            raise InputError("ASF means must lie in [0, 1]")
        if any(not 0.0 <= s < np.inf for s in self.stderrs):
            raise InputError("standard errors must be finite and non-negative")
        if self.n_samples < 1:
            raise InputError("n_samples must be positive")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,mean,stderr,n_samples\n")
        for m, mu, se in zip(self.lengths, self.means, self.stderrs):
            buf.write(f"{m},{mu!r},{se!r},{self.n_samples}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "AsfCurve":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty ASF curve file")
        if lines[0].replace(" ", "") != "m,mean,stderr,n_samples":
            raise InputError(f"unexpected ASF header {lines[0]!r}")
        if len(lines) == 1:
            raise InputError("ASF curve file has a header but no data rows")
        lengths, means, stderrs, counts = [], [], [], []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise InputError(f"malformed ASF row {ln!r}")
            try:
                lengths.append(int(parts[0]))
                means.append(float(parts[1]))
                stderrs.append(float(parts[2]))
                counts.append(int(parts[3]))
            except ValueError as exc:
                raise InputError(f"malformed ASF row {ln!r}: {exc}") from exc
        if len(set(counts)) != 1:
            raise InputError("ASF rows disagree on n_samples")
        return AsfCurve(tuple(lengths), tuple(means), tuple(stderrs), counts[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one RB data set."""

    noise: NoiseSteps
    m_max: int
    n_samples: int
    seed: int
    gate_set: GateSet = field(default_factory=single_qubit_cliffords)
    rho_sys: np.ndarray = field(default_factory=lambda: basis_state(0, 2))
    povm: np.ndarray = field(default_factory=lambda: basis_state(0, 2))

    def __post_init__(self):
        if self.m_max < 1 or self.n_samples < 1:
            raise InputError("m_max and n_samples must be positive")
        if self.m_max >= 2**32 or self.n_samples >= 2**32:
            raise InputError("m_max and n_samples must be below 2**32: each is one 32-bit word "
                             "of a sample's seed")
        rho, povm = validate_state_and_povm(self.rho_sys, self.povm, self.noise.d_sys)
        if self.gate_set.dim != self.noise.d_sys:
            raise ShapeError("gate dimension must match the system dimension")
        object.__setattr__(self, "rho_sys", rho)
        object.__setattr__(self, "povm", povm)


# Complex entries per chunk of the evolution loop (320 KiB), at any joint
# width: a fixed internal size, on which no output depends.
_CHUNK_ENTRIES = 20480


def _chunk_rows(noise: NoiseSteps) -> int:
    """Rows per chunk: a row holds a joint state and a gathered gate superoperator."""
    d = noise.d_sys
    return max(1, _CHUNK_ENTRIES // (noise.d_env**2 * d * d + d**4))


def _superoperator(ops: tuple[np.ndarray, ...], d_env: int) -> np.ndarray:
    """sum_q K_q (x) conj(K_q) as the matrix S with vec(sum_q K_q rho K_q^dag)
    = vec(rho) @ S, for rho vectorised in (env, env', sys, sys') order."""
    # K_q[e, s, f, t] as row q, columns (f, t, e, s): the input legs first
    stack = kraus_stack(ops, d_env)
    k = stack.transpose(0, 3, 4, 1, 2).reshape(len(ops), -1)
    s = (k.T @ k.conj()).reshape(stack.shape[1:3] * 4)  # (f, t, e, s, f', t', e', s')
    return s.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(k.shape[1], -1)


def _gate_superoperators(gates: np.ndarray) -> np.ndarray:
    """Right-acting g x conj(g) of each gate of a stack (r, d, d), as (r, d^2, d^2):
    entry [a, b, s, s'] is g[s, a] conj(g[s', b])."""
    gt = gates.swapaxes(1, 2)
    d = gt.shape[-1]
    return (gt[:, :, None, :, None] * gt.conj()[:, None, :, None, :]).reshape(-1, d * d, d * d)


def _survival(noise: NoiseSteps, gates, columns, lengths, rho_sys, povm) -> np.ndarray:
    """Survival probabilities of rows of non-increasing ``lengths``: the one evolution loop.

    ``columns`` yields one array of gate indices per step: the j-th holds the
    j-th index of each row longer than j, a prefix.  Each gate is a product
    with its g x conj(g) gathered from the table's, built once.  The states,
    vectors in (env, env', sys, sys') order, start as rho_env x rho_sys
    through prep.  At step j the rows longer than j take their gate and a bulk
    slot and extend a running product for the inverse; the rows of length
    j + 1 then take the inverse (G_j+1 ... G_1)^dag and the final slot, and
    I_env x povm is measured.  A value outside [-1e-10, 1 + 1e-10] raises
    :class:`NumericalError`; the others are clipped to [0, 1].
    """
    d, d_env = gates.shape[-1], noise.d_env
    lifted = _gate_superoperators(gates)
    prep, bulk, final = (_superoperator(ops, d_env) for ops in (noise.prep, noise.bulk, noise.final))
    measure = np.outer(np.eye(d_env), povm.T).ravel()
    rows = len(lengths)
    state = np.broadcast_to(np.outer(noise.rho_env, rho_sys).reshape(1, -1),
                            (rows, 1, d_env**2 * d**2)) @ prep
    prod = np.broadcast_to(np.eye(d, dtype=np.complex128), (rows, d, d))
    f = np.empty(rows)
    for j, step in enumerate(columns):
        n = len(step)
        done = np.count_nonzero(lengths[:n] > j + 1)
        state = (state[:n].reshape(n, d_env**2, d * d) @ lifted[step]).reshape(n, 1, -1)
        state = state @ bulk
        prod = gates[step] @ prod[:n]
        if done < n:
            undo = _gate_superoperators(dagger(prod[done:]))
            end = (state[done:].reshape(n - done, d_env**2, d * d) @ undo).reshape(n - done, 1, -1)
            end = end @ final
            f[done:n] = (end.reshape(n - done, -1) * measure).sum(axis=1).real
    escaped = ~((f >= -1e-10) & (f <= 1 + 1e-10))
    if escaped.any():
        raise NumericalError(f"survival probability {f[escaped][0]} escaped [0, 1]")
    return np.clip(f, 0.0, 1.0)


def run_sequence(noise: NoiseSteps, gates, rho_sys, povm):
    """Survival probability of RB sequences (the inverse gate is appended here).

    ``gates`` is one sequence, a list of m (d, d) matrices, which gives a
    float; or a stack (n, m, d, d) of n sequences of one length, which gives
    an (n,) array.  This is the one-length case of the evolution loop behind
    :func:`estimate_asf` (``_survival``), with the stack as its own gate
    table, in the chunks of rows sequences that :func:`estimate_asf` uses.  A
    chunk's rows x m gates are lifted to d^4 superoperators up front, so memory
    is O(rows m d^4), about 8 times the chunk's gate bytes.  Every product is per
    sequence, so a batch equals its sequences run one at a time, bit for bit.
    Each gate must be unitary within 1e-10.
    """
    try:
        stack = np.asarray(gates)
    except ValueError as exc:
        raise ShapeError(f"gates in a sequence must share one shape: {exc}") from exc
    if stack.size == 0:
        raise InputError("cannot run an empty sequence")
    d = noise.d_sys
    if stack.ndim not in (3, 4) or stack.shape[-2:] != (d, d):
        raise ShapeError(f"gates of shape {stack.shape} are not (m, {d}, {d}) or (n, m, {d}, {d})")
    rho_sys, povm = validate_state_and_povm(rho_sys, povm, d)
    if not (defect := unitarity_defect(stack)) <= 1e-10:
        raise InputError(f"a gate is not unitary (||U^dag U - I|| = {defect:.3e} > 1e-10)")
    batch = stack.reshape(-1, *stack.shape[-3:])
    n, m = batch.shape[:2]
    parts, size = [], _chunk_rows(noise)
    for start in range(0, n, size):
        table = batch[start:start + size].reshape(-1, d, d)
        rows = len(table) // m
        parts.append(_survival(noise, table, np.arange(rows * m).reshape(rows, m).T,
                               np.full(rows, m), rho_sys, povm))
    f = np.concatenate(parts)
    return float(f[0]) if stack.ndim == 3 else f


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier, as
# (high, low) words (numpy/random/bit_generator.pyx, src/pcg64/pcg64.h)
_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4, 0x4385DF649FCCF645)


def _hashmix(value: np.ndarray, const: int, mult: int):
    """SeedSequence's hashmix of 32-bit words held as uint64; returns the next constant too."""
    step = const * mult & _M32
    value = (value ^ const) * step & _M32
    return value ^ value >> 16, step


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products of a uint64 array and a 64-bit int."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * multiplier + inc mod 2^128, on (high, low) words."""
    m_hi, m_lo = _PCG_MULT
    hi = _mulhi(lo, m_lo) + hi * m_lo + lo * m_hi + inc_hi
    lo = lo * m_lo + inc_lo
    return hi + (lo < inc_lo), lo


def _stream_indices(seed: int, lengths: np.ndarray, index: np.ndarray, n_gates: int):
    """Gate indices of the streams (seed, lengths[i], index[i]), one column per step.

    Column j holds the j-th of the m = lengths[i] indices that numpy's
    ``Generator.integers(0, n_gates, size=m)`` draws from the stream seeded with
    (seed mod 2^64, m, index[i]), for the rows longer than j: a prefix, as
    lengths do not increase (m and index[i] below 2^32, n_gates at most 2^32).
    numpy's SeedSequence mixing, PCG64 seeding and step with its XSL-RR
    output, and the buffered 32-bit Lemire draw run on uint64 arrays: each
    step gives two words, low half first, the high one held for the row's
    next draw, and a word that Lemire's method rejects is skipped, as numpy
    skips it, by the rejected rows alone.  A row keeps only its PCG64 words
    and its held word.
    """
    seed = int(seed) & _M64
    rows = len(lengths)
    words = [np.full(rows, seed >> s & _M32, dtype=np.uint64)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [lengths.astype(np.uint64), index.astype(np.uint64)]
    words += [np.zeros(rows, dtype=np.uint64)] * (4 - len(words))
    const, pool = _INIT_A, []
    for word in words:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src, dst in permutations(range(4), 2):
        word, const = _hashmix(pool[src], const, _MULT_A)
        mixed = (_MIX_L * pool[dst] - _MIX_R * word) & _M32
        pool[dst] = mixed ^ mixed >> 16
    const, out = _INIT_B, []
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(word)
    s_hi, s_lo, i_hi, i_lo = (out[2 * i] | out[2 * i + 1] << 32 for i in range(4))
    # PCG64 seeding: inc = 2 i + 1, and the state 0 takes one step (to inc),
    # adds s and takes another
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)

    spare = np.zeros(rows, dtype=np.uint64)  # numpy's buffered high word, where held
    held = np.zeros(rows, dtype=bool)
    threshold = (2**32 - n_gates) % n_gates
    for j in range(int(lengths[0])):
        todo = np.arange(np.count_nonzero(lengths > j))
        column = np.empty(len(todo), dtype=np.int64)
        while todo.size:  # the rows whose last word Lemire's method rejected draw again
            fresh = ~held[todo]
            word, stepped = spare[todo], todo[fresh]
            if stepped.size:
                top, low = _pcg_step(hi[stepped], lo[stepped], inc_hi[stepped], inc_lo[stepped])
                hi[stepped], lo[stepped] = top, low
                x = top ^ low  # XSL-RR: the halves' xor, rotated right by the top six bits
                rot = top >> 58
                x = x >> rot | x << (-rot & 63)
                word[fresh], spare[stepped] = x & _M32, x >> 32
            held[todo] = fresh
            scaled = word * n_gates
            kept = (scaled & _M32) >= threshold
            column[todo[kept]] = scaled[kept] >> 32
            todo = todo[~kept]
        yield column


def estimate_asf(cfg: ExperimentConfig) -> AsfCurve:
    """Monte Carlo ASF estimate over lengths 1..m_max.

    For each length, n_samples independent sequences are drawn and the sample
    mean and standard error (ddof=1, divided by sqrt(n)) are reported.  All
    lengths make one pass: the sequences, longest first, go in chunks of at
    most 320 KiB through the evolution loop, which draws each step's gate
    indices as it reaches that step.  A length is reduced once all its samples
    are in one buffer of n_samples values, and its mean and standard error are
    written as it completes, so nothing of size m_max is written up front; the
    values are those of running the samples one at a time, bit for bit.
    Memory is O(n_samples + m_max) plus one chunk.
    """
    n, m_max = cfg.n_samples, cfg.m_max
    gates = np.stack(cfg.gate_set.gates)
    stats = np.empty((2, m_max))  # means and stderrs, untouched until their length completes
    # rows come longest first, by ascending index: one length is open at a time
    values, size = np.empty(n), _chunk_rows(cfg.noise)
    for start in range(0, n * m_max, size):
        row = np.arange(start, min(start + size, n * m_max))
        lengths, index = m_max - row // n, row % n
        columns = _stream_indices(cfg.seed, lengths, index, len(gates))
        f = _survival(cfg.noise, gates, columns, lengths, cfg.rho_sys, cfg.povm)
        for m in range(lengths[0], lengths[-1] - 1, -1):
            part = lengths == m
            values[index[part]] = f[part]
            if index[part][-1] == n - 1:
                stats[:, m - 1] = values.mean(), values.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    means, stderrs = stats.tolist()
    return AsfCurve(tuple(range(1, m_max + 1)), tuple(means), tuple(stderrs), n)
