"""Brute-force reference for the first-order pair amplitude.

Integrates the coupled first-order mode equations on a fine z grid
through the whole stack, applying electric/magnetic continuity
numerically as 2x2 mode re-mixing at every boundary, without using the
closed-form layer kernels or the emission-operator assembly (only
compare_with_emission reads its pair arrays).  Only the total (volume
plus surface) output amplitude is physical at the structure ports, and
that is what this module produces.  It marches the idler rows on their
own data, so comparing them with the conjugated signal rows of the
emission maps checks the conjugation identity those maps rest on; the
signal and idler rows at the step and the Richardson half step run
along two leading axes of one march.

Method: the pair coefficients C(z) of the propagating field against the
fixed input modes of the partner field obey

    dC_a/dz = i k_a(w) C_a + [+-1]_a sum_g T_g^*(w, w') e^{i k_p,g (z - z_l)}
              conj(M_partner(z, w'))

inside each layer (M_partner = linear scattering solution of the partner
field, flux-normalized).  A fixed-step midpoint rule integrates each
layer; a particular solution marched from zero at z_1 is corrected by a
homogeneous (linear-scattering) solution to enforce outgoing boundary
conditions.  One linear solution per input side serves as the partner
of either propagating field and as its outgoing-wave correction.  Step
halving plus Richardson extrapolation removes the leading O(h^2) error.

The midpoint update of a sub-step of size h is c_{n+1} = A c_n + b_n
with A = 1 + ikh + (ikh)^2/2 and b_n = h s(zeta_n + h/2)
+ (h^2/2) ik s(zeta_n), so a layer of N sub-steps is summed in closed
form: c_N = A^N c_0 + sum_n A^(N-1-n) b_n.  The source is sum_g
T_g^* e^{i k_p,g zeta} conj(amp_F e^{ik zeta} + amp_B e^{-ik zeta});
only T_g^* (poling times pump weight) and the partner amplitudes amp
change from layer to layer, so the z-sums of the rest (pump and partner
phases times A^(N-1-n)) run once per (material object, length) class
and step, and each layer costs one K x K contraction.  The pump phases
are evaluated once per distinct bin sum; the bin-sum grid is exactly
symmetric, so the idler rows share the signal rows' sums.  Each class
sum runs over chunks of at most BLOCK sub-steps, reduced in order on
top of the running sum, so the block size does not change a bit.
"""

from __future__ import annotations

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, StepTooCoarse
from .linear import PumpSpec, _crossing, field_maps, layer_amplitudes
from .materials import refractive_index
from .spectral import (
    DIR_SIGN,
    DIRS,
    POLS,
    SpectralBasis,
    bin_sum_pump,
    chi2_matrix,
    coupling_unit,
    pump_weights,
    pump_wavenumbers,
)
from .structure import StructureSpec

# sub-steps per chunk of a class sum; bounds its terms to
# BLOCK x 8 x K_row x K_col complex values
BLOCK = 64


def _class_sums(k, kp_sums, index, length, step):
    """Closed-form midpoint sums of one (material, length) class.

    k: forward wave number on the bin centers (K,); kp_sums: signed pump
    wave numbers per distinct bin sum (2, S) over g, gathered onto the
    (row bin, col bin) grid by index.  Returns (growth, weighted): growth
    = A^N of shape (2, K, 1) over (direction a, row bin), and weighted of
    shape (2, 2, 2, K, K) over (a, pump dir g, partner dir s): sgn_a sum_n
    A^(N-1-n) (h E(zeta_n + h/2) + (h^2/2) i k_a E(zeta_n)) with E(zeta)
    = e^{i k_p,g zeta} e^{-+i k zeta} (-i for s = F, whose partner mode
    is conj(amp_F e^{ik zeta})).
    """
    n_sub = max(1, int(np.ceil(length / step)))
    h = length / n_sub
    ik = 1j * np.stack((k, -k))[:, :, None]
    x = ik * h
    growth = 1.0 + x + 0.5 * x * x
    ik_part = np.stack((-1j * k, 1j * k))  # (s, K)
    total = np.zeros((2, 2, 2) + index.shape, dtype=complex)
    for n0 in range(0, n_sub, BLOCK):
        n = np.arange(n0, min(n0 + BLOCK, n_sub))
        zeta = n * h
        pump = np.exp(1j * kp_sums[:, None, :] * zeta[:, None])[..., index]
        part = np.exp(ik_part[:, None, :] * zeta[:, None])
        phase = pump[:, None] * part[None, :, :, None, :]  # (g, s, n, K, K)
        decay = growth ** (n_sub - 1 - n)[:, None, None, None]  # (n, a, K, 1)
        terms = decay[:, :, None, None] * np.moveaxis(phase, 2, 0)[:, None]
        terms[0] += total
        total = np.add.reduce(terms, axis=0)
    half = (np.exp(1j * kp_sums[:, None, :] * (0.5 * h))[..., index]
            * np.exp(ik_part * (0.5 * h))[None, :, None, :])  # E(h/2)
    sign = np.array([DIR_SIGN[a] for a in DIRS])[:, None, None, None, None]
    weight = sign * (h * half + 0.5 * h * h * ik[:, None, None])
    return growth ** n_sub, weight * total


def _march_inputs(structure, pump_spec, basis):
    """(layers, classes, partner, index): layers[l] = (d[signal pol, idler
    pol], forward k on the bin centers, conj(T_g) per unit chi2 over (g,
    signal bin, idler bin), flux map from layer l-1); classes[(material
    id, length)] = (k, kp_sums, length) of each nonlinear class;
    partner[b0] = layer amplitudes (N+2, 2, K) for unit input in channel
    b0 ('F' at z_1, 'B' at z_{N+1}): the partner modes, and with 'B' the
    outgoing-wave correction; index: the (K, K) bin-sum index."""
    centers = basis.centers
    pump, index = bin_sum_pump(structure, pump_spec, basis)
    weights = pump_weights(structure, pump, index,
                           list(range(structure.n_layers + 2)))

    def material_data(mat):
        # n on the bin centers, and the pump wave numbers per bin sum
        n = refractive_index(mat, centers)
        return (chi2_matrix(mat, pump.polarization), n,
                centers / CONSTANTS.c * n, pump_wavenumbers(mat, pump),
                coupling_unit(mat, basis))

    per_material = structure.per_material(material_data)
    classes = {}  # (material id, length) of each nonlinear layer
    layers = []
    for l, (d, n, k, kp_sums, unit) in enumerate(per_material):
        # the flux map into layer l across boundary z_l
        cross = _crossing(per_material[l - 1][1] + 0j, n + 0j) if l else None
        layers.append((d, k, unit * weights[l], cross))
        if np.any(d):  # never an ambient: those are linear
            length = structure.length(l)
            classes[(id(structure.material(l)), length)] = (k, kp_sums,
                                                            length)
    maps = field_maps(structure, centers)
    partner = {b0: layer_amplitudes(maps, b0) for b0 in DIRS}
    return layers, classes, partner, index


def _march(structure, layers, pairs, partner_amps, class_sums):
    """Particular pair solutions of both row fields at every step for the
    (signal pol, idler pol) pairs, corrected to outgoing boundary
    conditions: (S, 2, P, 2, 2, K, K) over (step, row field s/i, pol
    pair, partner input b0, output dir, row bin, col bin), from the
    ``_class_sums`` stacked over the steps.  An idler row propagates the
    idler: pol pair (beta, alpha), the transposed conj(T_g)."""
    shape = layers[0][2].shape[1:]
    n_steps = len(next(iter(class_sums.values()))[0])
    # state[s, f, p, b0, a]: step, row field, pol pair, partner input b0,
    # propagation direction a
    state = np.zeros((n_steps, 2, len(pairs), 2, 2) + shape, dtype=complex)

    for l in range(1, structure.n_layers + 2):
        # continuity jump from layer l-1 into layer l at boundary z_l
        chi2, k, t_unit, d = layers[l]
        c_f, c_b = state[..., 0, :, :], state[..., 1, :, :]
        state = np.stack((d[0, 0][:, None] * c_f + d[0, 1][:, None] * c_b,
                          d[1, 0][:, None] * c_f + d[1, 1][:, None] * c_b),
                         axis=-3)
        if l == structure.n_layers + 1:
            break
        length = structure.length(l)
        # an idler row's chi2.T[beta, alpha] is chi2[alpha, beta]
        coef = [chi2[POLS.index(pr), POLS.index(pc)] for pr, pc in pairs]
        active = [p for p, c in enumerate(coef) if c != 0.0]
        linear = [p for p, c in enumerate(coef) if c == 0.0]
        if linear:
            # linear layer for these pairs: free phases only
            k_row = np.stack((k, -k))[:, :, None]
            state[:, :, linear] *= np.exp(1j * k_row * length)
        if not active:
            continue
        growth, weighted = class_sums[(id(structure.material(l)), length)]
        amps = np.conj(np.stack([partner_amps[b0][l] for b0 in DIRS]))
        t_rows = np.stack((t_unit, np.swapaxes(t_unit, 1, 2)))
        source = np.einsum("...agskm,...gkm,bsm->...bakm", weighted[:, None],
                           t_rows, amps)
        growth = growth[:, None, None]
        for p in active:
            state[:, :, p] = growth * state[:, :, p] + coef[p] * source

    # enforce outgoing boundary conditions with a homogeneous correction
    sig_b = partner_amps["B"]
    refl_right = sig_b[structure.n_layers + 1, 0]  # F amp at z_N+1 per unit B in
    tran_left = sig_b[0, 1]                        # B amp at z_1 per unit B in
    c_corr = -state[..., 1, :, :]  # cancel the backward amplitude at z_{N+1}
    return np.stack((state[..., 0, :, :] + refl_right[:, None] * c_corr,
                     tran_left[:, None] * c_corr), axis=-3)


def reference_pair_amplitude(structure: StructureSpec, pump_spec: PumpSpec,
                             basis: SpectralBasis, step: float,
                             richardson: bool = True):
    """Total output pair amplitude, directly comparable to the emission maps.

    Returns {'s': {...}, 'i': {...}}: 's' entries (a, alpha, b0, beta)
    match the blocks of G_V + G_S against idler input channel (b0,
    beta); 'i' entries (b, beta, a0, alpha) match the idler rows against
    signal inputs, the conjugated blocks (b, alpha; a0, beta).  All
    carry the sqrt(dw dw) bin projection of the pair arrays.
    """
    if not 0.0 < step < np.inf:
        raise ConfigError(f"z-step must be finite and positive, got {step}")
    min_len = min(structure.length(l) for l in range(1, structure.n_layers + 1))
    if step > min_len / 16.0:
        raise StepTooCoarse(
            f"step {step:.3e} m exceeds min layer length / 16 = {min_len / 16:.3e} m"
        )
    layers, classes, partner, index = _march_inputs(structure, pump_spec,
                                                    basis)
    pairs = sorted({(POLS[i], POLS[j]) for d, _, _, _ in layers[1:-1]
                    for i, j in zip(*np.nonzero(d))})
    if not pairs:
        return {"s": {}, "i": {}}
    steps = (step, step / 2.0) if richardson else (step,)
    class_sums = {key: tuple(np.stack(a) for a in zip(*(
        _class_sums(k, kp_sums, index, length, h) for h in steps)))
        for key, (k, kp_sums, length) in classes.items()}
    res = _march(structure, layers, pairs, partner, class_sums)
    res = (4.0 * res[1] - res[0]) / 3.0 if richardson else res[0]
    weight = np.sqrt(basis.widths[:, None] * basis.widths[None, :])
    res = (res[0] * weight, np.conj(res[1]) * weight)
    rows = {"s": pairs, "i": [(beta, alpha) for alpha, beta in pairs]}
    return {f: {(a, pr, b0, pc): res[i][p, j, m]
                for p, (pr, pc) in enumerate(rows[f])
                for j, b0 in enumerate(DIRS) for m, a in enumerate(DIRS)}
            for i, f in enumerate(("s", "i"))}


def compare_with_emission(reference, emission):
    """Global relative Frobenius mismatch between oracle and pipeline
    totals, the oracle's idler rows against the conjugated signal rows."""
    total = emission.g_volume + emission.g_surface
    at = {x: i for names in (DIRS, POLS) for i, x in enumerate(names)}
    pairs = [(total[at[a], at[alpha], at[b0], at[beta]], ref)
             for (a, alpha, b0, beta), ref in reference["s"].items()]
    pairs += [(np.conj(total[at[b], at[alpha], at[a0], at[beta]]), ref)
              for (b, beta, a0, alpha), ref in reference["i"].items()]
    diff_sq = ref_sq = 0.0
    for blk, ref in pairs:
        diff_sq += float(np.sum(np.abs(blk - ref) ** 2))
        ref_sq += float(np.sum(np.abs(ref) ** 2))
    if ref_sq == 0.0:
        return 0.0 if diff_sq == 0.0 else float("inf")
    return float(np.sqrt(diff_sq / ref_sq))
