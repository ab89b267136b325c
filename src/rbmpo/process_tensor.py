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
* :func:`asf_joint_coefficient`, the one contraction with a *joint node*
  (two adjacent noise slots fused over their environment bond) left free,
  on the two-sector chain of :mod:`rbmpo.average`.  The averaged fidelity is
  linear in the forward chain's joint node, so a basis of nodes goes through
  the chain as one batch, and the coefficient tensor comes back summed over
  lengths with any weights.  Each term is one einsum trace over every pair
  of upper and lower basis nodes, and the bulk slot, the prepared state and
  the measurement functional are built once per call.  With the residuals as
  weights and the node's own stack on the conjugate chain that sum is the
  sweeping learner's gradient; with a joint node L on the conjugate chain
  instead, pairing the tensor with L gives the physical fidelity at L.

Layout conventions: an operator X on environment x system is stored either
as a dim x dim matrix or as a 4-axis array X[e, s, f, t] = <es|X|ft>.  A
noise node is a 4-axis array node[e_out, s_out, e_in, s_in]; the environment
legs may have unequal sizes mid-contraction (that is how joint nodes with a
free bond are threaded through).  A joint node over slots (i, i-1) is a
6-axis array L[e_up, s_i, s_i', e_dn, s_j, s_j'], fused by :func:`joint_node`.
Its row-major reshape is a (d_env d_sys^2) square matrix, and
:func:`split_joint` is the one regrouping of that matrix's factors back into
node stacks: the learner's SVD split and the conjugate chain's halves both
use it.
"""

from __future__ import annotations

import numpy as np

from .average import (
    measurement_functional,
    prepared_state,
    raw_slot,
    raw_slot_adjoint,
    sector_maps,
    sector_pairs,
)
from .errors import InputError, ResourceLimitError, ShapeError
from .noise import NoiseSteps, kraus_stack
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
        stack = kraus_stack(ops, steps.d_env)
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
# superoperator chain with the joint node left free
# --------------------------------------------------------------------------

def asf_joint_coefficient(
    steps: NoiseSteps, slot_i: int, weights, rho_sys, povm, bra
) -> np.ndarray:
    """Coefficient tensor of the averaged fidelity in the joint node at slots
    (slot_i, slot_i - 1), summed over lengths with real ``weights`` (length ->
    weight; one length n alone is ``{n: 1.0}``).

    Returns T = sum_n w_n T_n with axes (e_up, s_i, s_i', e_dn, s_j, s_j'):
    for any joint node L at those slots on the forward chain the length-n
    averaged fidelity is sum(L * conj(T_n)).  ``bra`` is the conjugate
    chain at the two slots, the pair (upper, lower) of node stacks
    (k, e_up, s_i, b, s_i') and (k, b, s_j, e_dn, s_j') over any bond b:
    the slots' own unitary node stack twice, or :func:`split_joint` of a
    joint node L, with which Re sum(L * conj(T)) is the physical fidelity.
    ``steps`` is read only at the other slots.  Lengths must be >= 1;
    lengths n < slot_i - 1 lack the slots and add nothing.

    In sector form (:func:`rbmpo.average.sector_maps`), with O the bulk slot
    and A_up, A_dn the free ones, lengths n >= slot_i add up to
    tr(A_up A_dn O^{i-2} X0 H): X0 is the prepared state paired with the
    measurement functional, and H = sum_n w_n O^{n-i} is summed by Horner's
    rule.  At slot 1 the raw preparation slot is applied to the state before
    pairing.  Length slot_i - 1 has the raw final slot above the node, pulled
    back into the functional: tr(A_dn O^{i-2} X1) with X1 the state paired
    with it.  The forward chain carries a basis of nodes with a
    one-dimensional bond as a batch, so all lengths and entries share one
    pass, and each term is one einsum over (A_up, A_dn, chain) that traces
    every pair of basis nodes without forming their products.
    """
    if not weights or min(weights) < 1 or not 1 <= slot_i <= max(weights) + 1:
        raise InputError(f"joint-node slot must satisfy 1 <= i <= n+1 for some length n >= 1, "
                         f"got i={slot_i}, lengths {sorted(weights)}")
    d_env, d_sys = steps.d_env, steps.d_sys
    rho_sys, povm = (np.asarray(x, dtype=np.complex128) for x in (rho_sys, povm))
    if rho_sys.shape != (d_sys,) * 2 or povm.shape != (d_sys,) * 2:
        raise ShapeError("rho_sys or povm does not match the noise model's system dimension")
    bra_up, bra_dn = bra

    # Basis nodes with a one-dimensional bond, numbered in the joint node's
    # (e_up, s_i, s_i') and (e_dn, s_j, s_j') orders, as batches of one-node
    # Kraus stacks: upper (P, 1, e_up, s_i, bond, s_i'), lower (Q, 1, bond,
    # s_j, e_dn, s_j').  Their sector matrices are a_up (P, 2, a, b) and a_dn
    # (Q, 2, b, k) over the bond b, and each term traces them with the chain
    # in one einsum over all (P, Q) pairs.
    basis = np.eye(d_env * d_sys * d_sys, dtype=np.complex128)
    upper = basis.reshape(-1, 1, d_env, d_sys, 1, d_sys)
    lower = basis.reshape(-1, 1, 1, d_env, d_sys, d_sys).swapaxes(3, 4)
    bulk = kraus_stack(steps.bulk, d_env)
    o = sector_maps(bulk, bulk)
    x = prepared_state(steps, rho_sys, prep=slot_i >= 2)
    meas = measurement_functional(steps, povm)
    if slot_i == 1:
        # the free lower slot is the raw preparation: it goes into the state
        a_dn = sector_pairs(raw_slot(lower, bra_dn, x), meas)
    else:
        a_dn = sector_maps(lower, bra_dn)
        bulk_power = np.linalg.matrix_power(o, slot_i - 2)

    vals = 0.0
    top = max(weights)
    if top >= slot_i:
        eye = np.eye(o.shape[-1])
        h = np.broadcast_to(weights[top] * eye, o.shape)
        for n in range(top - 1, slot_i - 1, -1):
            h = h @ o
            h += weights.get(n, 0.0) * eye
        if slot_i >= 2:
            h = bulk_power @ sector_pairs(x, meas) @ h
        a_up = sector_maps(upper, bra_up)
        vals = np.einsum("psij,qsjk,ski->pq", a_up, a_dn, h)
    if slot_i - 1 in weights:  # slot_i >= 2, as every length is
        l = raw_slot_adjoint(upper, bra_up, measurement_functional(steps, povm, final=False))
        below = bulk_power @ sector_pairs(x, l)
        vals = vals + weights[slot_i - 1] * np.einsum("qsij,psji->pq", a_dn, below)
    return np.conj(vals.reshape(d_env, d_sys, d_sys, d_env, d_sys, d_sys))


def joint_node(node_up: np.ndarray, node_dn: np.ndarray, d_env: int) -> np.ndarray:
    """Fuse two adjacent noise nodes over their shared environment bond."""
    d_sys = node_up.shape[-1] // d_env
    up = node_up.reshape(d_env, d_sys, d_env, d_sys)
    dn = node_dn.reshape(d_env, d_sys, d_env, d_sys)
    return np.einsum("aibj,bkcl->aijckl", up, dn)


def split_joint(left: np.ndarray, right: np.ndarray, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Regroup the factors of a joint node of ``shape`` into its node stacks,
    the inverse of :func:`joint_node`.

    ``left`` ((e_up s_i s_i'), b) and ``right`` (b, (e_dn s_j s_j')) have
    the joint node's matrix as their product, over any bond b.  They become
    the one-node stacks (1, e_up, s_i, b, s_i') and (1, b, s_j, e_dn, s_j'),
    the slots' nodes with the bond as the upper node's environment input and
    the lower node's environment output.
    """
    upper = np.reshape(left, (*shape[:3], -1)).swapaxes(2, 3)
    lower = np.reshape(right, (-1, *shape[3:])).swapaxes(1, 2)
    return upper[None], lower[None]
