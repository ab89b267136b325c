"""Process-tensor machinery: dense oracles and node-local contractions.

The RB fidelity of one sequence is an inner product of two rank-4(m+2)
tensors: a noise tensor holding the per-slot noise nodes and the fiducial
environment state, and a control tensor holding the gates, the initial system
state and the measurement.  This module provides

* the dense noise tensor, with its legs in slot order, and the dense
  2-design-averaged control tensor.  The noise tensor is contracted either
  with one sequence's gates, state and measurement, or with the averaged
  control tensor.  Both are exponentially large in m, capped at
  ``DENSE_ORACLE_MAX_M``, and kept as the brute-force oracle everything else
  is tested against;
* the averaged fidelity with one *joint node* (two adjacent noise slots
  fused over their environment bond) left free.  The environments on either
  side of the node are propagated with the averaged step of
  :mod:`rbmpo.average` (forwards for the state, with transposed maps
  backwards for the measurement), and the node's own two slots apply the
  same step to maps built from explicit (ket, bra) nodes.  The fidelity is
  linear in the free node and in the pulled-back measurement, so
  :func:`asf_joint_coefficient` returns the coefficient tensor summed over
  lengths with any weights in one forward and one backward pass.  With the
  residuals as weights that sum is the sweeping learner's gradient.

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

#: Largest sequence length the dense tensors are built for (d_sys = 2 keeps
#: each tensor at 2^{4(m+2)} entries, ~268 MB at the cap).  The per-sequence
#: oracle builds only the noise tensor and contracts the gates into it.
DENSE_ORACLE_MAX_M = 4


# --------------------------------------------------------------------------
# dense oracle
# --------------------------------------------------------------------------

def _check_dense_cap(m: int):
    if m > DENSE_ORACLE_MAX_M:
        raise ResourceLimitError(
            f"dense process-tensor contraction is capped at m <= {DENSE_ORACLE_MAX_M} "
            f"(requested m = {m}); use the superoperator path for longer sequences"
        )


def dense_noise_tensor(steps: NoiseSteps, m: int) -> np.ndarray:
    """Dense noise tensor for sequence length m.

    Output axes, slot by slot: (s_0, s_0', z_0, z_0', ..., s_{m+1}, s_{m+1}',
    z_{m+1}, z_{m+1}') where s legs come from the node chain and z legs from
    its conjugate.  Kraus slots carry one shared Kraus index per slot.
    """
    _check_dense_cap(m)
    d_env, d_sys = steps.d_env, steps.d_sys
    slot_ops = steps.slots(m)
    n_slots = m + 2

    # Integer einsum labels.  Per slot j: ket bond e_j (below) / e_{j+1}
    # (above), bra bond eps_j / eps_{j+1}; top bonds tied together.
    def e(j):
        return j

    def eps(j):
        return n_slots + 1 + j

    top_ket = e(n_slots)
    top_eps = eps(n_slots)
    leg0 = 2 * (n_slots + 1)

    operands = []
    # ket chain: node[e_{j+1}, s_j, e_j, s_j']
    for j, ops in enumerate(slot_ops):
        stack = kraus_stack(ops, d_env, d_sys)
        kraus_label = leg0 + 4 * n_slots + j
        up = top_ket if j == n_slots - 1 else e(j + 1)
        operands.append(stack)
        operands.append([kraus_label, up, leg0 + 4 * j + 0, e(j), leg0 + 4 * j + 1])
    # fiducial state rho_env[e_0, eps_0]
    operands.append(steps.rho_env)
    operands.append([e(0), eps(0)])
    # bra chain: conj(node)[eps_{j+1}, z_j', eps_j, z_j]
    for j, ops in enumerate(slot_ops):
        stack = np.conj(kraus_stack(ops, d_env, d_sys))
        kraus_label = leg0 + 4 * n_slots + j
        up = top_eps if j == n_slots - 1 else eps(j + 1)
        operands.append(stack)
        operands.append([kraus_label, up, leg0 + 4 * j + 3, eps(j), leg0 + 4 * j + 2])
    # tie the two top bonds together via an identity plate
    operands.append(np.eye(d_env, dtype=np.complex128))
    operands.append([top_ket, top_eps])

    out = [leg0 + 4 * j + a for j in range(n_slots) for a in range(4)]
    return np.einsum(*operands, out, optimize="greedy")


def dense_control_tensor_averaged(
    m: int, d_sys: int, rho_sys: np.ndarray, povm: np.ndarray
) -> np.ndarray:
    """2-design average of the dense control tensor.

    The gate average collapses into a sum of two delta-pattern chains: a
    depolarizing-style term acting per bulk step and a trace term, each with
    its own boundary pattern linking step 0 to step m+1.
    """
    _check_dense_cap(m)
    d = d_sys
    eye = np.eye(d)
    # per bulk step n: factor[s_n, s_n', z_n, z_n']
    f_a = (d * np.einsum("ab,dc->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye))
    f_b = np.einsum("ad,bc->abcd", eye, eye)
    # boundaries over (s_0, z_0', s_{m+1}', z_{m+1})
    b_a = np.einsum("ab,cd->acbd", eye, eye) - np.einsum("ac,bd->acbd", eye, eye) / d
    b_b = np.einsum("ac,bd->acbd", eye, eye) / d

    def assemble(step_factor: np.ndarray, boundary: np.ndarray, norm: float) -> np.ndarray:
        operands = []
        for n in range(1, m + 1):
            operands.append(step_factor)
            operands.append([4 * n + 0, 4 * n + 1, 4 * n + 2, 4 * n + 3])
        operands.append(boundary)
        operands.append([0, 3, 4 * (m + 1) + 1, 4 * (m + 1) + 2])
        operands.append(np.asarray(rho_sys, dtype=np.complex128))
        operands.append([1, 2])
        operands.append(np.asarray(povm, dtype=np.complex128))
        operands.append([4 * (m + 1) + 3, 4 * (m + 1) + 0])
        out = [4 * j + a for j in range(m + 2) for a in range(4)]
        return np.einsum(*operands, out, optimize="greedy") / norm

    alpha = assemble(f_a, b_a, float(d ** m * (d * d - 1) ** m))
    beta = assemble(f_b, b_b, float(d ** m))
    return alpha + beta


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
    """Averaged fidelity via dense tensors (oracle for the closed form)."""
    ups = dense_noise_tensor(steps, m)
    ctrl = dense_control_tensor_averaged(m, steps.d_sys, rho_sys, povm)
    return float(np.real(np.sum(ups * ctrl)))


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
    r, lower_ops, terms = _environments(steps, slot_i, weights, rho_sys, povm)
    d_env, d_sys = steps.d_env, steps.d_sys

    # Basis nodes with a one-dimensional bond, as batches of one-node Kraus
    # stacks: lower (Q, 1, bond, s_j, e_dn, s_j'), upper (P, 1, 1, e_up, s_i,
    # bond, s_i'); the upper batch axes broadcast against the lower ones.
    basis = np.eye(d_env * d_sys * d_sys, dtype=np.complex128)
    lower = basis.reshape(-1, 1, 1, d_sys, d_env, d_sys)
    upper = basis.reshape(-1, 1, 1, d_env, d_sys, 1, d_sys)

    x1 = _slot(slot_i >= 2, lower, _bra_node(steps, lower_ops), r)  # (Q,1,s,e,s)
    vals = sum(
        np.einsum("pqesft,esft->pq", _slot(averaged, upper, _bra_node(steps, ops), x1), l)
        for averaged, ops, l in terms
    )  # upper slot: (P,Q,e,s,e,s)

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
    r, lower_ops, [(averaged, upper_ops, l)] = _environments(
        steps, slot_i, {n: 1.0}, rho_sys, povm)
    d_env, d_sys = steps.d_env, steps.d_sys

    def factor(joint6: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a joint node into one-node Kraus stacks over a full bond."""
        joint6 = np.asarray(joint6, dtype=np.complex128)
        if joint6.shape != (d_env, d_sys, d_sys, d_env, d_sys, d_sys):
            raise ShapeError(f"joint node has shape {joint6.shape}")
        bond = d_env * d_sys * d_sys
        upper = np.eye(bond, dtype=np.complex128).reshape(d_env, d_sys, d_sys, bond)
        upper = upper.transpose(0, 1, 3, 2)  # (e_up, s_i, bond, s_i')
        lower = joint6.reshape(bond, d_env, d_sys, d_sys)
        lower = lower.transpose(0, 2, 1, 3)  # (bond, s_j, e_dn, s_j')
        return upper[None], lower[None]

    ket_up, ket_dn = factor(joint_ket)
    if joint_bra is None:
        bra_up, bra_dn = _bra_node(steps, upper_ops), _bra_node(steps, lower_ops)
    else:
        bra_up, bra_dn = factor(joint_bra)

    x = _slot(slot_i >= 2, ket_dn, bra_dn, r)
    x = _slot(averaged, ket_up, bra_up, x)
    value = complex(np.sum(x * l))
    if joint_bra is None:
        return value
    return float(np.real(value))


def joint_node(node_up: np.ndarray, node_dn: np.ndarray, d_env: int, d_sys: int) -> np.ndarray:
    """Fuse two adjacent noise nodes over their shared environment bond."""
    up = node_up.reshape(d_env, d_sys, d_env, d_sys)
    dn = node_dn.reshape(d_env, d_sys, d_env, d_sys)
    return np.einsum("aibj,bkcl->aijckl", up, dn)
