#!/usr/bin/env python3
"""Regenerate the embedded wavelet filter tables (src/wavefeat/_wavelet_tables.py).

Constructions used:
  * Daubechies (db1-db8): spectral factorization of the maximally flat
    half-band polynomial, minimum-phase root selection, 60-digit arithmetic.
  * Symlets (sym2-sym8): same half-band polynomial, least-asymmetric root
    selection (enumerate inside/outside choices per conjugate root group,
    pick the filter whose DFT phase deviates least from linear).
  * Coiflets (coif1-coif5): Newton refinement of the published tables onto
    the exact defining equations (orthonormality of even shifts, wavelet
    moments, scaling-function moments), 60-digit arithmetic.

Each wavelet's table entry is its analysis low-pass filter, dec_lo; the
other three filters of an orthogonal wavelet are exact reversals and sign
flips of it, which dwt.lookup_wavelet derives.  Every filter is checked at
60 digits against its defining equations, and as written, in float64, for
orthonormality to its even shifts to 1e-12.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 60

SQRT2 = mp.sqrt(2)


# ----------------------------------------------------------------------
# orthogonal families: half-band polynomial machinery
# ----------------------------------------------------------------------

def halfband_roots(n_moments: int):
    """Roots (in z) of the degree-(n_moments-1) maximally flat polynomial
    P(y) = sum_k C(n-1+k, k) y^k evaluated through y = (2 - z - 1/z)/4.

    Returns a list of root groups; each group is a list of z-roots that must
    be kept together for real filter coefficients, paired with the group of
    their reciprocals:  [(inside_group, outside_group), ...].
    """
    n = n_moments
    if n == 1:
        return []
    p_coeffs = [mp.mpf(math.comb(n - 1 + k, k)) for k in range(n)]
    # mp.polyroots expects highest-degree first
    y_roots = mp.polyroots(list(reversed(p_coeffs)), maxsteps=200, extraprec=200)

    groups = []
    used = [False] * len(y_roots)
    for i, y in enumerate(y_roots):
        if used[i]:
            continue
        used[i] = True
        conj_idx = None
        if abs(mp.im(y)) > mp.mpf(10) ** (-40):
            # find the conjugate partner
            for j in range(i + 1, len(y_roots)):
                if not used[j] and abs(y_roots[j] - mp.conj(y)) < mp.mpf(10) ** (-30):
                    conj_idx = j
                    used[j] = True
                    break
            assert conj_idx is not None, "conjugate root not found"
        ys = [y] if conj_idx is None else [y, y_roots[conj_idx]]
        inside, outside = [], []
        for yy in ys:
            # z^2 - (2 - 4 y) z + 1 = 0
            b = 2 - 4 * yy
            disc = mp.sqrt(b * b - 4)
            z1 = (b + disc) / 2
            z2 = (b - disc) / 2
            if abs(z1) > abs(z2):
                z1, z2 = z2, z1
            inside.append(z1)
            outside.append(z2)
        groups.append((inside, outside))
    return groups


def filter_from_roots(n_moments: int, chosen_roots) -> list:
    """Scaling filter h(z) = c (1+z)^n prod (z - r) with sum(h) = sqrt(2)."""
    n = n_moments
    poly = [mp.mpc(1)]

    def mul(poly, root):
        out = [mp.mpc(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i + 1] += c
            out[i] -= c * root
        return out

    for _ in range(n):
        poly = mul(poly, mp.mpc(-1))  # factor (z + 1)
    for r in chosen_roots:
        poly = mul(poly, r)
    total = sum(poly)
    scale = SQRT2 / total
    h = [mp.re(c * scale) for c in poly]
    imag = max(abs(mp.im(c * scale)) for c in poly)
    assert imag < mp.mpf(10) ** (-35), f"imaginary residue {imag}"
    return h


def orthonormality_residual(h) -> mp.mpf:
    L = len(h)
    worst = mp.mpf(0)
    for m in range(L // 2):
        acc = mp.mpf(0)
        for k in range(L - 2 * m):
            acc += h[k] * h[k + 2 * m]
        target = 1 if m == 0 else 0
        worst = max(worst, abs(acc - target))
    return worst


def phase_nonlinearity(h) -> float:
    """Sup deviation of the unwrapped DFT phase from its linear fit."""
    hf = np.array([float(x) for x in h])
    n_grid = 512
    w = np.linspace(0.05, np.pi - 0.05, n_grid)
    resp = np.exp(-1j * np.outer(w, np.arange(len(hf)))) @ hf
    phase = np.unwrap(np.angle(resp))
    slope = np.polyfit(w, phase, 1)
    resid = phase - np.polyval(slope, w)
    return float(np.max(np.abs(resid)))


def make_daubechies(n: int) -> list:
    groups = halfband_roots(n)
    chosen = [r for inside, _ in groups for r in inside]
    h = filter_from_roots(n, chosen)
    assert orthonormality_residual(h) < mp.mpf(10) ** (-40)
    return h


def make_symlet(n: int) -> list:
    groups = halfband_roots(n)
    best = None
    for mask in range(1 << len(groups)):
        chosen = []
        for g, (inside, outside) in enumerate(groups):
            chosen.extend(outside if (mask >> g) & 1 else inside)
        h = filter_from_roots(n, chosen)
        score = phase_nonlinearity(h)
        if best is None or score < best[0]:
            best = (score, h)
    h = best[1]
    assert orthonormality_residual(h) < mp.mpf(10) ** (-40)
    return h


# ----------------------------------------------------------------------
# coiflets: Newton refinement of published starting values
# ----------------------------------------------------------------------

# Published low-pass filters (analysis ordering used by common wavelet
# software); starting points for the exact-equation refinement below.
COIF_SEED = {
    1: [-0.01565572813546454, -0.0727326195128539, 0.38486484686420286,
        0.8525720202122554, 0.3378976624578092, -0.0727326195128539],
    2: [-0.0007205494453645122, -0.0018232088707029932, 0.0056114348193944995,
        0.023680171946334084, -0.0594344186464569, -0.0764885990783064,
        0.41700518442169254, 0.8127236354455423, 0.3861100668211622,
        -0.06737255472196302, -0.04146493678175915, 0.016387336463522112],
    3: [-3.459977283621256e-05, -7.098330313814125e-05, 0.0004662169601128863,
        0.0011175187708906016, -0.0025745176887502236, -0.00900797613666158,
        0.015880544863615904, 0.03455502757306163, -0.08230192710688598,
        -0.07179982161931202, 0.42848347637761874, 0.7937772226256206,
        0.4051769024096169, -0.06112339000267287, -0.0657719112818555,
        0.023452696141836267, 0.007782596427325418, -0.003793512864491014],
    4: [-1.7849850030882614e-06, -3.2596802368833675e-06, 3.1229875865345646e-05,
        6.233903446100713e-05, -0.00025997455248771324, -0.0005890207562443383,
        0.0012665619292989445, 0.003751436157278457, -0.00565828668661072,
        -0.015211731527946259, 0.025082261844864097, 0.03933442712333749,
        -0.09622044203398798, -0.06662747426342504, 0.4343860564914685,
        0.7822389309206135, 0.41530840703043026, -0.05607731331675481,
        -0.08126669968087875, 0.026682300156053072, 0.016068943964776348,
        -0.0073461663276420195, -0.0016294920126017326, 0.0008923136685823146],
    5: [-9.517657273819165e-08, -1.6744288576823017e-07, 2.0637618513646814e-06,
        3.7346551751414047e-06, -2.1315026809955787e-05, -4.134043227251251e-05,
        0.00014054114970203437, 0.00030225958181306315, -0.0006381313430451114,
        -0.0016628637020130838, 0.0024333732126576722, 0.006764185448053083,
        -0.009164231162481846, -0.01976177894257264, 0.03268357426711183,
        0.0412892087501817, -0.10557420870333893, -0.06203596396290357,
        0.4379916261718371, 0.7742896036529562, 0.4215662066908515,
        -0.05204316317624377, -0.09192001055969624, 0.02816802897093635,
        0.023408156785839195, -0.010131117519849788, -0.004159358781386048,
        0.0021782363581090178, 0.00035858968789573785, -0.00021208083980379827],
}


def coif_conditions(h, n: int):
    """Residuals of the defining equations of a coiflet of order n (L = 6n)."""
    L = 6 * n
    res = []
    # orthonormality of even shifts
    for m in range(L // 2):
        acc = mp.mpf(0)
        for k in range(L - 2 * m):
            acc += h[k] * h[k + 2 * m]
        res.append(acc - (1 if m == 0 else 0))
    # wavelet moments p = 0 .. 2n-1 with g_k = (-1)^k h_{L-1-k}
    for p in range(2 * n):
        acc = mp.mpf(0)
        for k in range(L):
            g = h[L - 1 - k] * (1 if k % 2 == 0 else -1)
            acc += g * mp.mpf(k) ** p
        res.append(acc)
    # scaling moments p = 1 .. 2n-1 about the integer center c
    c = None
    s1 = sum(h[k] * k for k in range(L))
    c = mp.nint(s1 / SQRT2)
    for p in range(1, 2 * n):
        acc = mp.mpf(0)
        for k in range(L):
            acc += h[k] * (mp.mpf(k) - c) ** p
        res.append(acc)
    return res


def refine_coiflet(n: int) -> list:
    h = [mp.mpf(repr(v)) for v in COIF_SEED[n]]
    L = 6 * n
    for _ in range(60):
        r = coif_conditions(h, n)
        worst = max(abs(x) for x in r)
        if worst < mp.mpf(10) ** (-45):
            break
        # Gauss-Newton least squares (system may be over-determined)
        m_eq = len(r)
        jac = mp.matrix(m_eq, L)
        eps = mp.mpf(10) ** (-25)
        for j in range(L):
            hp = list(h)
            hp[j] += eps
            rp = coif_conditions(hp, n)
            for i in range(m_eq):
                jac[i, j] = (rp[i] - r[i]) / eps
        jt = jac.T
        lhs = jt * jac
        rhs = jt * mp.matrix(r)
        delta = mp.lu_solve(lhs, rhs)
        for j in range(L):
            h[j] -= delta[j]
    final = max(abs(x) for x in coif_conditions(h, n))
    assert final < mp.mpf(10) ** (-40), f"coif{n} refinement stalled at {final}"
    drift = max(abs(h[j] - mp.mpf(repr(COIF_SEED[n][j]))) for j in range(L))
    assert drift < mp.mpf(10) ** (-4), f"coif{n} drifted {drift} from published table"
    return h


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def check_float_orthonormal(name: str, taps) -> None:
    """Assert that the filter as written, in float64, is orthonormal to its
    even shifts to 1e-12."""
    h = np.array(taps)
    for m in range(0, h.size, 2):
        dot = float(h[:h.size - m] @ h[m:])
        assert abs(dot - (m == 0)) <= 1e-12, f"{name}: shift {m} gives {dot!r}"


def main() -> None:
    # Daubechies and symlets are stored smallest tap first (analysis ordering)
    entries = [(f"db{n}", make_daubechies(n)[::-1]) for n in range(1, 9)]
    entries += [(f"sym{n}", make_symlet(n)[::-1]) for n in range(2, 9)]
    entries += [(f"coif{n}", refine_coiflet(n)) for n in range(1, 6)]

    lines = [
        '"""Embedded wavelet filter tables.  Generated by tools/make_wavelet_tables.py;',
        'do not edit by hand."""',
        "",
        "# name -> dec_lo; dwt.lookup_wavelet derives dec_hi, rec_lo and rec_hi",
        "FILTERS = {",
    ]
    for name, h in entries:
        taps = [float(v) for v in h]
        check_float_orthonormal(name, taps)
        lines.append(f'    "{name}": ({", ".join(map(repr, taps))}),')
    lines.append("}")
    lines.append("")

    out = "src/wavefeat/_wavelet_tables.py"
    with open(out, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {len(entries)} filters to {out}")


if __name__ == "__main__":
    main()
