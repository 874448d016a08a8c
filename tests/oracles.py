"""Reference computations the test suite judges `ringsim` against.

Each oracle is built from its physics alone and imports nothing from
`ringsim` (`tests/test_oracles.py` enforces this), so it shares no code
with the closed forms it checks.  Units: hbar = m = 1, lengths in units of
the ring radius R.
"""

import numpy as np

# semi-axes (a, b) of an ellipse of eccentricity eps, for each length that
# the ring radius R = 1 may name
ELLIPSE_AXES = {
    "semi-major": lambda eps: (1.0, np.sqrt(1.0 - eps ** 2)),
    "semi-minor": lambda eps: (1.0 / np.sqrt(1.0 - eps ** 2), 1.0),
    "mean": lambda eps: (2.0 / (1.0 + np.sqrt(1.0 - eps ** 2)),
                         2.0 * np.sqrt(1.0 - eps ** 2)
                         / (1.0 + np.sqrt(1.0 - eps ** 2))),
}


def tilt_ladder_shift(v0: float, phase: float, ell: int,
                      cutoff: int = 48) -> float:
    """Tilt shift of level |ell| by dense diagonalization, no perturbation
    theory.

    Builds the (2*cutoff+1)^2 matrix of L^2/2 + v0 cos(alpha - phase) on the
    ladder (the cosine couples ell <-> ell +- 1) and returns the mean shift
    of the |ell| doublet.  The mean is the right comparison object: the
    doublet splits at second order through the ell = 0 intermediate state
    for |ell| = 1, while its mean matches the closed form up to O(v0^4).
    """
    if cutoff < abs(ell) + 8:
        raise ValueError("oracle cutoff too close to |ell|")
    n = 2 * cutoff + 1
    ells = np.arange(-cutoff, cutoff + 1)
    h = np.zeros((n, n), dtype=np.complex128)
    h[np.arange(n), np.arange(n)] = 0.5 * ells.astype(float) ** 2
    coupling = 0.5 * v0 * np.exp(-1j * phase)
    h[np.arange(1, n), np.arange(n - 1)] = coupling          # <ell+1|V|ell>
    h[np.arange(n - 1), np.arange(1, n)] = np.conj(coupling)
    evals = np.linalg.eigvalsh(h)
    if ell == 0:
        return float(evals[0])
    k = abs(int(ell))
    return float(0.5 * np.sum(evals[2 * k - 1:2 * k + 1]) - 0.5 * k ** 2)


def ellipse_curve_levels(a: float, b: float, top: int, modes: int = 129,
                         samples: int = 4096) -> np.ndarray:
    """Levels |ell| = 0..top of a particle confined to an ellipse's curve.

    H = -1/2 d^2/ds^2 - kappa(s)^2 / 8 in arc length s, with da Costa's
    geometric potential (Phys. Rev. A 23, 1982 (1981)), diagonalized in the
    plane waves exp(2 pi i n s / L), |n| <= modes // 2.  The curve is
    x = a cos t, y = b sin t, sampled at `samples` equal steps in t; the
    arc length s(t) is integrated spectrally and the Fourier coefficients
    of kappa^2 in s are trapezoid sums over t.  Level ell is the mean of
    its +-ell doublet, which the potential may split.
    """
    t = 2.0 * np.pi * np.arange(samples) / samples
    speed = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
    kappa2 = (a * b) ** 2 / speed ** 6
    harmonics = np.fft.fftfreq(samples, 1.0 / samples)
    spectrum = np.fft.fft(speed)
    spectrum[1:] /= 1j * harmonics[1:]
    spectrum[0] = 0.0
    # s(t) up to a constant, which only rephases the basis
    s = speed.mean() * t + np.fft.ifft(spectrum).real
    length = 2.0 * np.pi * speed.mean()
    wave = 2.0 * np.pi / length
    diffs = np.arange(-(modes - 1), modes)
    coeffs = (kappa2 * speed) @ np.exp(-1j * wave * np.outer(s, diffs)) \
        / (samples * speed.mean())
    n = np.arange(modes) - modes // 2
    h = -0.125 * coeffs[n[:, None] - n[None, :] + modes - 1]
    h[np.arange(modes), np.arange(modes)] += 0.5 * (wave * n) ** 2
    vecs = np.linalg.eigh(h)[1][:, :2 * top + 1]
    # Rayleigh quotients: eigh rounds a level to eps times the largest
    # kinetic energy, the quotient to eps times the level itself
    evals = np.einsum("ij,ij->j", vecs.conj(), h @ vecs).real
    return np.array([evals[0]] + [0.5 * (evals[2 * k - 1] + evals[2 * k])
                                  for k in range(1, top + 1)])


def ellipse_curve_shift(ells, radius: str = "semi-major", modes: int = 129,
                        samples: int = 4096, probe: float = 0.02):
    """First-order ellipse shift of each level, divided by eps^2.

    The shift is taken from the circle's level (ell^2 - 1/4) / 2 at
    eccentricities `probe` and `probe / 2` and Richardson-extrapolated to
    the part linear in eps^2; `radius` names which length is R = 1 (a key
    of `ELLIPSE_AXES`).
    """
    ells = np.abs(np.atleast_1d(np.asarray(ells, dtype=int)))

    def shift(eps):
        a, b = ELLIPSE_AXES[radius](eps)
        levels = ellipse_curve_levels(a, b, int(ells.max()), modes, samples)
        return levels[ells] - 0.5 * (ells ** 2 - 0.25)

    half = 0.5 * probe
    return (16.0 * shift(half) - shift(probe)) / (12.0 * half ** 2)


def cubic(values, g):
    """The quasi-1d mean-field local term g |psi|^2 of grid values."""
    return g * np.abs(values) ** 2


def rk4ip(values, energies, g, duration, steps, local=cubic):
    """Grid values evolved by i dpsi/dt = E psi + local(psi, g) psi.

    E acts diagonally on the grid's FFT harmonics (`energies`, in numpy's
    FFT order) and `local` is the real local term, g |psi|^2 by default.
    Fourth-order Runge-Kutta in the interaction picture (RK4IP: J. Hult,
    J. Lightwave Technol. 25, 3770 (2007)) over `steps` equal steps, with
    no splitting: the kinetic half-step factor moves each stage between
    the step's midpoint picture and the grid, so it is exact for E alone
    and fourth order in the step under the coupling.
    """
    h = duration / steps
    half = np.exp(-0.5j * h * np.asarray(energies))

    def kinetic(v):
        return np.fft.ifft(half * np.fft.fft(v))

    def rate(v):
        return -1j * h * local(v, g) * v

    psi = np.asarray(values, dtype=np.complex128)
    for _ in range(steps):
        inner = kinetic(psi)
        k1 = kinetic(rate(psi))
        k2 = rate(inner + 0.5 * k1)
        k3 = rate(inner + 0.5 * k2)
        k4 = rate(kinetic(inner + k3))
        psi = kinetic(inner + (k1 + 2.0 * k2 + 2.0 * k3) / 6.0) + k4 / 6.0
    return psi
