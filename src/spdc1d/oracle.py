"""Brute-force reference for the first-order pair amplitude.

Integrates the coupled first-order mode equations on a fine z grid
through the whole stack, applying electric/magnetic continuity
numerically as 2x2 mode re-mixing at every boundary, without using the
closed-form layer kernels or the emission-operator assembly (only
compare_with_emission reads its pair arrays).  Only the total (volume
plus surface) output amplitude is physical at the structure ports, and
that is what this module produces.

Method: the pair coefficients C(z) of the propagating field against the
fixed input modes of the partner field obey

    dC_a/dz = i k_a(w) C_a + [+-1]_a sum_g T_g^*(w, w') e^{i k_p,g (z - z_l)}
              conj(M_partner(z, w'))

inside each layer (M_partner = linear scattering solution of the partner
field, flux-normalized).  A fixed-step midpoint rule integrates each
layer; a particular solution marched from zero at z_1 is corrected by a
homogeneous (linear-scattering) solution to enforce outgoing boundary
conditions.  Signal and idler share one spectral basis, so one linear
solution per input side serves as the partner of either propagating
field and as its outgoing-wave correction.  Step halving plus
Richardson extrapolation removes the leading O(h^2) error.

The sources are evaluated for a block of up to BLOCK sub-steps at once,
on the z_n and z_n + h/2 grids, for every key (pol pair, partner input)
together; the midpoint march itself stays sequential, one update of the
stacked state per sub-step, so the block size does not change a bit of
the result.
"""

from __future__ import annotations

import numpy as np

from .constants import CONSTANTS
from .errors import StepTooCoarse
from .linear import PumpSpec, _crossing, propagate_pump, scalar_layer_amplitudes
from .materials import refractive_index
from .matrixcore import pair_block
from .blockmatrix import FIELDS
from .spectral import DIR_SIGN, DIRS, LayerCoupling, SpectralBasis
from .structure import StructureSpec

# sub-steps per vectorized source evaluation; bounds the source grids to
# BLOCK x keys x 2 x K_row x K_col complex values each
BLOCK = 64


def _active_pol_pairs(structure, pump_pol):
    pairs = set()
    for l in range(1, structure.n_layers + 1):
        for (gamma, alpha, beta), d in structure.material(l).chi2.items():
            if d != 0.0 and gamma == pump_pol:
                pairs.add((alpha, beta))
    return sorted(pairs)


def _march_once(structure, couplings, basis, row_field, partner_amps, step):
    """Particular pair solution for one propagating field, all pol pairs.

    partner_amps[b0] = flux-normalized layer amplitudes for unit input in
    channel b0 ('F' at z_1, 'B' at z_{N+1}) on the bin centers, shape
    (N+2, 2, K): the partner field's modes, and with b0 = 'B' the
    outgoing-wave correction of the propagating field.  Returns the
    corrected output coefficients out[(a_out, alpha, b0, beta)] as
    continuous kernels at bin centers.
    """
    w = basis.centers
    pump_pol = couplings[1].pump.polarization
    pairs = _active_pol_pairs(structure, pump_pol)
    if not pairs:
        return {}
    if row_field == "i":
        # (alpha, beta) keys are (signal, idler); rows propagate the idler
        row_pairs = [(beta, alpha) for (alpha, beta) in pairs]
    else:
        row_pairs = pairs
    shape = (w.size, w.size)
    # state[p, b0, a]: pol pair p, partner input b0, propagation direction a
    state = np.zeros((len(row_pairs), 2, 2) + shape, dtype=complex)

    for l in range(1, structure.n_layers + 2):
        # continuity jump from layer l-1 into layer l at boundary z_l
        n_from = refractive_index(structure.material(l - 1), w)
        n_to = refractive_index(structure.material(l), w)
        d = _crossing(n_from + 0j, n_to + 0j, "flux")
        c_f, c_b = state[:, :, 0], state[:, :, 1]
        state = np.stack((d[0, 0][:, None] * c_f + d[0, 1][:, None] * c_b,
                          d[1, 0][:, None] * c_f + d[1, 1][:, None] * c_b),
                         axis=2)
        if l == structure.n_layers + 1:
            break
        length = structure.length(l)
        n_sub = max(1, int(np.ceil(length / step)))
        h = length / n_sub
        coup = couplings[l]
        n = refractive_index(coup.material, w)
        k_row = np.stack([DIR_SIGN[a] * w / CONSTANTS.c * n
                          for a in DIRS])[:, :, None]
        k_col_f = w / CONSTANTS.c * n
        if row_field == "s":
            kp = {g: coup.pump_k(g) for g in DIRS}
            tstar = [{g: coup.tstar(g, pr, pc) for g in DIRS}
                     for pr, pc in row_pairs]
        else:
            kp = {g: coup.pump_k(g).T for g in DIRS}
            tstar = [{g: coup.tstar(g, pc, pr).T for g in DIRS}
                     for pr, pc in row_pairs]
        tstar = [{g: t for g, t in ts.items() if np.any(t)} for ts in tstar]
        active = [p for p, ts in enumerate(tstar) if ts]
        linear = [p for p, ts in enumerate(tstar) if not ts]
        if linear:
            # linear layer for these pairs: free phases only
            state[linear] *= np.exp(1j * k_row * length)
        if not active:
            continue

        amps = [partner_amps[b0][l] for b0 in DIRS]
        ik_col, mik_col = 1j * k_col_f, -1j * k_col_f
        ik_pump = {g: 1j * kp[g] for g in DIRS}

        def sources(zeta):
            """sgn_a * source on the zeta grid, (n, key, a, K_row, K_col)."""
            col = zeta[:, None]
            e_f, e_b = np.exp(ik_col * col), np.exp(mik_col * col)
            partner = [np.conj(amp[0] * e_f + amp[1] * e_b)[:, None, :]
                       for amp in amps]
            pump = {g: np.exp(ik_pump[g] * zeta[:, None, None]) for g in DIRS}
            out = np.empty((zeta.size, len(active), 2, 2) + shape,
                           dtype=complex)
            for p_idx, p in enumerate(active):
                # t_g e^{i k_p,g zeta} is shared by both partner inputs
                factor = [t * pump[g] for g, t in tstar[p].items()]
                for b_idx, part in enumerate(partner):
                    src = np.zeros((zeta.size,) + shape, dtype=complex)
                    for f in factor:
                        src += f * part
                    for a_idx, a in enumerate(DIRS):
                        out[:, p_idx, b_idx, a_idx] = DIR_SIGN[a] * src
            return out.reshape((zeta.size, -1, 2) + shape)

        ika = 1j * k_row
        half_h = 0.5 * h
        c = state[active].reshape((-1, 2) + shape)
        for n0 in range(0, n_sub, BLOCK):
            zeta = np.arange(n0, min(n0 + BLOCK, n_sub)) * h
            s0 = sources(zeta)
            sm = sources(zeta + half_h)
            for n in range(zeta.size):
                f0 = ika * c + s0[n]
                mid = c + half_h * f0
                fm = ika * mid + sm[n]
                c = c + h * fm
        state[active] = c.reshape((len(active), 2, 2) + shape)

    # enforce outgoing boundary conditions with a homogeneous correction
    sig_b = partner_amps["B"]
    refl_right = sig_b[structure.n_layers + 1, 0]  # F amp at z_N+1 per unit B in
    tran_left = sig_b[0, 1]                        # B amp at z_1 per unit B in
    out = {}
    for (pol_row, pol_col), c_pair in zip(row_pairs, state):
        for b0, c in zip(DIRS, c_pair):
            c_corr = -c[1]  # cancel the backward amplitude at z_{N+1}
            out[("F", pol_row, b0, pol_col)] = c[0] + refl_right[:, None] * c_corr
            out[("B", pol_row, b0, pol_col)] = tran_left[:, None] * c_corr
    return out


def reference_pair_amplitude(
    structure: StructureSpec,
    pump_spec: PumpSpec,
    basis: SpectralBasis,
    step: float,
    richardson: bool = True,
):
    """Total output pair amplitude, directly comparable to the emission maps.

    Returns {'s': {...}, 'i': {...}}: 's' entries (a, alpha, b0, beta)
    match the signal-row blocks of G_V + G_S against idler input channel
    (b0, beta); 'i' entries (b, beta, a0, alpha) match the idler
    creation-sector rows against signal inputs.  All matrices carry the
    sqrt(dw dw) bin projection of the pair arrays.
    """
    min_len = min(structure.length(l) for l in range(1, structure.n_layers + 1))
    if step > min_len / 16.0:
        raise StepTooCoarse(
            f"step {step:.3e} m exceeds min layer length / 16 = {min_len / 16:.3e} m"
        )
    centers, widths = basis.centers, basis.widths
    sums = np.unique((centers[:, None] + centers[None, :]).ravel())
    pump = propagate_pump(structure, pump_spec, sums)
    couplings = [
        LayerCoupling(structure, l, basis, pump)
        for l in range(structure.n_layers + 2)
    ]
    partner = {
        b0: scalar_layer_amplitudes(structure, centers, "flux", side=b0)
        for b0 in DIRS
    }

    def run(h):
        return {f: _march_once(structure, couplings, basis, f, partner, h)
                for f in FIELDS}

    res = run(step)
    if richardson:
        res2 = run(step / 2.0)
        res = {f: {k: (4.0 * res2[f][k] - v) / 3.0 for k, v in r.items()}
               for f, r in res.items()}

    weight = np.sqrt(widths[:, None] * widths[None, :])
    return {"s": {k: v * weight for k, v in res["s"].items()},
            "i": {k: np.conj(v) * weight for k, v in res["i"].items()}}


def compare_with_emission(reference, emission):
    """Global relative Frobenius mismatch between oracle and pipeline totals."""
    total = emission.g_volume + emission.g_surface
    diff_sq = 0.0
    ref_sq = 0.0
    for (a, alpha, b0, beta), ref in reference["s"].items():
        blk = pair_block(total, ("s", a, alpha), (b0, beta))
        diff_sq += float(np.sum(np.abs(blk - ref) ** 2))
        ref_sq += float(np.sum(np.abs(ref) ** 2))
    for (b, beta, a0, alpha), ref in reference["i"].items():
        blk = pair_block(total, ("i", b, beta), (a0, alpha))
        diff_sq += float(np.sum(np.abs(blk - ref) ** 2))
        ref_sq += float(np.sum(np.abs(ref) ** 2))
    if ref_sq == 0.0:
        return 0.0 if diff_sq == 0.0 else float("inf")
    return float(np.sqrt(diff_sq / ref_sq))
