"""Process-tensor machinery: dense oracles and node-local contractions.

The RB fidelity of one sequence is a noise tensor, holding the per-slot noise
nodes and the fiducial environment state, contracted with the control
operations: the gates, the initial system state and the measurement.  This
module provides

* the dense noise tensor, built slot by slot with its legs in slot order.  It
  is contracted either with one sequence's gates, state and measurement, or
  with the two delta-pattern chains that the 2-design average of the gates
  collapses into; no dense control tensor is built.  The noise tensor is
  exponentially large in m, capped at ``DENSE_ORACLE_MAX_M``, and kept as the
  brute-force oracle everything else is tested against;
* the averaged fidelity with one *joint node* (two adjacent noise slots
  fused over their environment bond) left free.  The environments on either
  side of the node are propagated with the averaged step of
  :mod:`rbmpo.average` (forwards for the state, with transposed maps
  backwards for the measurement), and one contraction applies the same step
  to the node's own two slots, built from explicit (ket, bra) nodes.  The
  fidelity is linear in the free node and in the pulled-back measurement, so
  :func:`asf_joint_coefficient` feeds that contraction a basis of nodes and
  returns the coefficient tensor summed over lengths with any weights in one
  forward and one backward pass.  With the residuals as weights that sum is
  the sweeping learner's gradient.

Layout conventions: an operator X on environment x system is stored either
as a dim x dim matrix or as a 4-axis array X[e, s, f, t] = <es|X|ft>.  A
noise node is a 4-axis array node[e_out, s_out, e_in, s_in]; the environment
legs may have unequal sizes mid-contraction (that is how joint nodes with a
free bond are threaded through).  A joint node over slots (i, i-1) is a
6-axis array L[e_up, s_i, s_i', e_dn, s_j, s_j'] whose row-major reshape to
a (d_env d_sys^2) square matrix matches the grouping used by the learner's
SVD split.
"""

from __future__ import annotations

import numpy as np

from .average import (
    bulk_maps,
    env_maps,
    kraus_stack,
    measurement_functional,
    prepared_state,
    raw_slot,
    twirled_step,
)
from .errors import InputError, ResourceLimitError, ShapeError
from .noise import NoiseSteps
from .quantum import compile_undo

#: Largest sequence length the dense noise tensor is built for (d_sys = 2
#: keeps it at 2^{4(m+2)} entries, ~268 MB at the cap).  Both oracles build
#: only the noise tensor and contract the control operations into it.
DENSE_ORACLE_MAX_M = 4


# --------------------------------------------------------------------------
# dense oracle
# --------------------------------------------------------------------------

def dense_noise_tensor(steps: NoiseSteps, m: int) -> np.ndarray:
    """Dense noise tensor for sequence length m.

    Output axes, slot by slot: (s_0, s_0', z_0, z_0', ..., s_{m+1}, s_{m+1}',
    z_{m+1}, z_{m+1}'), the ket-side output and input legs followed by the
    bra-side input and output legs.  Built slot by slot from rho_env: each
    slot's Kraus pair sum_q K_q x conj(K_q) is contracted into the open
    (ket, bra) environment bond, and the last slot ties the two bonds.
    """
    if m > DENSE_ORACLE_MAX_M:
        raise ResourceLimitError(
            f"dense process-tensor contraction is capped at m <= {DENSE_ORACLE_MAX_M} "
            f"(requested m = {m}); use the superoperator path for longer sequences")
    slot_ops = steps.slots(m)
    ups = steps.rho_env  # (..., e, eps): the legs so far, then the open bond
    for j, ops in enumerate(slot_ops):
        stack = kraus_stack(ops, steps.d_env, steps.d_sys)
        pair = "qaibj,qamcl->bcijlm" if j == len(slot_ops) - 1 else "qaibj,qdmcl->bcijlmad"
        ups = np.tensordot(ups, np.einsum(pair, stack, np.conj(stack)), axes=2)
    return ups


def contract_asf_dense(
    steps: NoiseSteps, gates: list[np.ndarray], rho_sys: np.ndarray, povm: np.ndarray
) -> float:
    """Survival probability via the full dense tensor contraction.

    The slot-order noise tensor of :func:`dense_noise_tensor` is contracted
    with the sequence's control operations: rho_sys on slot 0's inputs, gate
    j (the compiled inverse at j = m + 1) and its conjugate from slot j - 1's
    outputs to slot j's inputs, and povm on slot m + 1's outputs.  Equal to
    :func:`rbmpo.rb.run_sequence` on the same inputs; exponentially expensive
    and capped, existing purely as an independent oracle.
    """
    m = len(gates)
    # slot j's legs 4j..4j+3 are (s out, s in, z in, z out), s ket-side, z bra-side
    operands = [dense_noise_tensor(steps, m), list(range(4 * (m + 2))),
                np.asarray(rho_sys, dtype=np.complex128), [1, 2]]
    for j, g in enumerate([*gates, compile_undo(gates)], start=1):
        g = np.asarray(g, dtype=np.complex128)
        operands += [g, [4 * j + 1, 4 * j - 4], np.conj(g), [4 * j + 2, 4 * j - 1]]
    operands += [np.asarray(povm, dtype=np.complex128), [4 * m + 7, 4 * m + 4]]
    return float(np.real(np.einsum(*operands, [], optimize="greedy")))


def contract_asf_dense_averaged(
    steps: NoiseSteps, m: int, rho_sys: np.ndarray, povm: np.ndarray
) -> float:
    """Averaged fidelity via the dense noise tensor (oracle for the closed form).

    The 2-design average of the gates collapses into a sum of two
    delta-pattern chains: a depolarizing-style term acting per bulk step and
    a trace term, each with its own boundary pattern linking slot 0 to slot
    m + 1.  Each chain, with rho_sys and povm, is contracted into the noise
    tensor in one einsum, as :func:`contract_asf_dense` does with the gates.
    """
    ups = dense_noise_tensor(steps, m)
    d = steps.d_sys
    eye = np.eye(d)
    # per bulk step n: factor[s_n, s_n', z_n, z_n']
    f_a = d * np.einsum("ab,dc->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye)
    f_b = np.einsum("ad,bc->abcd", eye, eye)
    # boundaries over (s_0, z_0', s_{m+1}', z_{m+1})
    b_a = np.einsum("ab,cd->acbd", eye, eye) - np.einsum("ac,bd->acbd", eye, eye) / d
    b_b = np.einsum("ac,bd->acbd", eye, eye) / d
    top = 4 * (m + 1)

    def chain(step_factor: np.ndarray, boundary: np.ndarray, norm: float) -> float:
        operands = [ups, list(range(4 * (m + 2))), boundary, [0, 3, top + 1, top + 2],
                    np.asarray(rho_sys, dtype=np.complex128), [1, 2],
                    np.asarray(povm, dtype=np.complex128), [top + 3, top]]
        for n in range(1, m + 1):
            operands += [step_factor, [4 * n, 4 * n + 1, 4 * n + 2, 4 * n + 3]]
        return float(np.real(np.einsum(*operands, [], optimize="greedy"))) / norm

    return chain(f_a, b_a, float(d ** m * (d * d - 1) ** m)) + chain(f_b, b_b, float(d ** m))


# --------------------------------------------------------------------------
# superoperator chain with an optional free joint node
# --------------------------------------------------------------------------

def _bra_node(steps: NoiseSteps, ops: tuple[np.ndarray, ...]) -> np.ndarray:
    """A slot's own node as a one-node stack: the bra side of a free joint node."""
    if len(ops) != 1:
        raise InputError(f"a free joint node needs a unitary node, not {len(ops)} Kraus operators")
    return kraus_stack(ops, steps.d_env, steps.d_sys)


def _slot(averaged: bool, ket: np.ndarray, bra: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One noise slot with explicit (ket, bra) node stacks: gate-averaged in
    the bulk, raw at the preparation and final slots."""
    if averaged:
        return twirled_step(x, *env_maps(ket, bra), ket.shape[-1])
    return raw_slot(ket, bra, x)


def _environments(steps: NoiseSteps, slot_i: int, weights, rho_sys, povm):
    """State entering the joint node at slots (slot_i, slot_i - 1), the lower
    slot's operators, and the measurement functionals pulled back to the
    node's output, weighted by ``weights`` (length -> real weight).

    Lengths n >= slot_i have a bulk slot above the node and share one
    functional, summed by Horner's rule from the largest length down
    (acc -> step(acc) + w_n meas).  Length slot_i - 1 has the raw final slot
    there; shorter lengths lack the node.  Functionals come as (upper slot
    averaged, upper slot's operators, functional).
    """
    if not weights or not 1 <= slot_i <= max(weights) + 1:
        raise InputError(f"joint-node slot must satisfy 1 <= i <= n+1 for some length n, "
                         f"got i={slot_i}, lengths {sorted(weights)}")
    rho_sys, povm = (np.asarray(x, dtype=np.complex128) for x in (rho_sys, povm))
    if rho_sys.shape != (steps.d_sys,) * 2 or povm.shape != (steps.d_sys,) * 2:
        raise ShapeError("rho_sys or povm does not match the noise model's system dimension")
    mixed, loop = bulk_maps(steps)
    r = prepared_state(steps, rho_sys, prep=slot_i >= 2)
    for _ in range(slot_i - 2):
        r = twirled_step(r, mixed, loop, steps.d_sys)
    terms = []
    top = max(weights)
    if top >= slot_i:
        meas = measurement_functional(steps, povm)
        mixed_t, loop_t = mixed.transpose(2, 3, 0, 1), loop.transpose(2, 3, 0, 1)
        l = weights[top] * meas
        for n in range(top - 1, slot_i - 1, -1):
            l = twirled_step(l, mixed_t, loop_t, steps.d_sys) + weights.get(n, 0.0) * meas
        terms.append((True, steps.bulk, l))
    if slot_i - 1 in weights:
        meas = measurement_functional(steps, povm, final=False)
        terms.append((False, steps.final, weights[slot_i - 1] * meas))
    return r, steps.prep if slot_i == 1 else steps.bulk, terms


def _free_node(steps: NoiseSteps, slot_i: int, environments, upper, lower, bra=None):
    """Averaged fidelity with the joint node at slots (slot_i, slot_i - 1) as
    (``upper``, ``lower``) ket node stacks, summed over the lengths weighted
    in ``environments`` (from :func:`_environments`).  ``bra`` is an (upper,
    lower) pair of bra stacks, by default the slots' own nodes.  Leading batch
    axes of the stacks broadcast into the result."""
    r, lower_ops, terms = environments
    own = bra is None
    x = _slot(slot_i >= 2, lower, _bra_node(steps, lower_ops) if own else bra[1], r)
    return sum(np.einsum("...esft,esft->...",
                         _slot(averaged, upper, _bra_node(steps, ops) if own else bra[0], x), l)
               for averaged, ops, l in terms)


def asf_joint_coefficient(
    steps: NoiseSteps, slot_i: int, weights, rho_sys, povm
) -> np.ndarray:
    """Coefficient tensor of the averaged fidelity in the joint node at slots
    (slot_i, slot_i - 1), summed over lengths with real ``weights`` (length ->
    weight; one length n alone is ``{n: 1.0}``).

    Returns T = sum_n w_n T_n with axes (e_up, s_i, s_i', e_dn, s_j, s_j'):
    for any joint node L at those slots (conjugate chain untouched) the
    length-n averaged fidelity is sum(L * conj(T_n)).  Lengths n < slot_i - 1
    lack the slots and add nothing.  T is linear in the pulled-back
    measurement, so all lengths share one pass each way, and it does not
    depend on the current values of the two freed nodes on the forward chain.
    """
    environments = _environments(steps, slot_i, weights, rho_sys, povm)
    d_env, d_sys = steps.d_env, steps.d_sys

    # Basis nodes with a one-dimensional bond, as batches of one-node Kraus
    # stacks: lower (Q, 1, bond, s_j, e_dn, s_j'), upper (P, 1, 1, e_up, s_i,
    # bond, s_i'); the upper batch axes broadcast against the lower ones.
    basis = np.eye(d_env * d_sys * d_sys, dtype=np.complex128)
    lower = basis.reshape(-1, 1, 1, d_sys, d_env, d_sys)
    upper = basis.reshape(-1, 1, 1, d_env, d_sys, 1, d_sys)
    vals = _free_node(steps, slot_i, environments, upper, lower)  # (P, Q)

    coeff = vals.reshape(d_env, d_sys, d_sys, d_sys, d_env, d_sys)
    coeff = coeff.transpose(0, 1, 2, 4, 3, 5)  # -> (e_up, s_i, s_i', e_dn, s_j, s_j')
    return np.conj(coeff)


def asf_with_joint_node(
    steps: NoiseSteps,
    slot_i: int,
    n: int,
    rho_sys,
    povm,
    joint_ket: np.ndarray,
    joint_bra: np.ndarray | None = None,
) -> float | complex:
    """Averaged fidelity with an explicit joint node at slots (slot_i, slot_i-1).

    ``joint_ket`` replaces the two forward-chain nodes; ``joint_bra`` replaces
    the two conjugate-chain nodes (defaults to the model's own nodes, which
    makes the result linear in ``joint_ket`` and generally complex).  With
    ``joint_bra = conj of joint_ket`` this is the physical, real-valued
    evaluation used by the finite-difference tests.
    """
    environments = _environments(steps, slot_i, {n: 1.0}, rho_sys, povm)
    d_env, d_sys = steps.d_env, steps.d_sys

    def factor(joint6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a joint node into one-node Kraus stacks over a full bond."""
        joint6 = np.asarray(joint6, dtype=np.complex128)
        if joint6.shape != (d_env, d_sys, d_sys, d_env, d_sys, d_sys):
            raise ShapeError(f"joint node has shape {joint6.shape}")
        bond = d_env * d_sys * d_sys
        upper = np.eye(bond, dtype=np.complex128).reshape(d_env, d_sys, d_sys, bond)
        lower = joint6.reshape(bond, d_env, d_sys, d_sys)
        # (1, e_up, s_i, bond, s_i') and (1, bond, s_j, e_dn, s_j')
        return upper.transpose(0, 1, 3, 2)[None], lower.transpose(0, 2, 1, 3)[None]

    bra = None if joint_bra is None else factor(joint_bra)
    value = complex(_free_node(steps, slot_i, environments, *factor(joint_ket), bra))
    return value if joint_bra is None else float(np.real(value))


def joint_node(node_up: np.ndarray, node_dn: np.ndarray, d_env: int, d_sys: int) -> np.ndarray:
    """Fuse two adjacent noise nodes over their shared environment bond."""
    up = node_up.reshape(d_env, d_sys, d_env, d_sys)
    dn = node_dn.reshape(d_env, d_sys, d_env, d_sys)
    return np.einsum("aibj,bkcl->aijckl", up, dn)
