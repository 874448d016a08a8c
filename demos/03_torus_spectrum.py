"""How a real torus trap bends the ideal ring spectrum.

A trap with finite radial confinement is not a mathematical ring: the
rotational pseudo-potential lets fast modes circulate at a slightly larger
radius (a quartic depression of the spectrum), a tilt of the symmetry axis
adds a once-around potential that repels neighbouring modes, and an elliptic
cross-section couples modes two apart.  This script tabulates each closed-
form correction, shows the centrifugal retiming of the revival, and prints
the factor of 2*pi between the published ellipticity shift and the
first-order shift of a particle confined to the ellipse's curve.

Run:  python3 demos/03_torus_spectrum.py
"""
import math
import os

import numpy as np

import ringsim as rs


def main():
    base = rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3)
    # Give the trap mild imperfections: a tilt potential of 0.05 rotational
    # energy quanta and a 5% eccentricity.
    trap = rs.TrapSpec(mass=base.mass, radius=base.radius,
                       omega_perp=base.omega_perp,
                       tilt_amplitude=0.05 * base.energy_unit,
                       eccentricity=0.05)
    print("trap: radius %.1f um, transverse frequency %.2f kHz"
          % (trap.radius * 1e6, trap.omega_perp / (2.0 * math.pi) * 1e-3))
    print("confinement ratio (transverse / rotational energy scale): %.1f"
          % trap.omega_internal)
    print()

    modes = np.arange(0, 26)
    ideal = rs.DispersionModel(trap, 25).energies_si[25:]  # modes 0..25
    tilt = rs.tilt_shift(trap, modes)
    zero_point = 0.5 * rs.HBAR * trap.omega_perp
    quartic = rs.centrifugal_shift(trap, modes) - zero_point
    elliptic = rs.ellipticity_shift(trap, modes)

    print("energy corrections in units of the ideal mode-1 energy:")
    scale = ideal[1]
    print("%-6s %-12s %-14s %-14s %-14s" % ("mode", "ideal", "tilt",
                                            "centrifugal", "elliptic"))
    rows = []
    for m in (0, 1, 2, 5, 10, 15, 20, 25):
        print("%-6d %-12.1f %-+14.3e %-+14.3e %-+14.3e"
              % (m, ideal[m] / scale, tilt[m] / scale,
                 quartic[m] / scale, elliptic[m] / scale))
        rows.append((m, ideal[m], tilt[m], quartic[m], elliptic[m]))
    print("(the quartic centrifugal term overtakes everything at high mode "
          "number)")

    print()
    print("fast modes sit further out; the displacement grows with mode "
          "number:")
    for m in (5, 15, 25):
        u = float(rs.centrifugal_displacement(trap, m))
        print("  mode %-3d  radial displacement %.3e m  (%.2e of the radius)"
              % (m, u, u / trap.radius))

    print()
    print("the centrifugal quartic retimes the revival:")
    ideal_period = rs.revival_time(trap)
    spec = rs.ProtocolSpec(trap=trap, solver="linear", cutoff=128,
                           include_centrifugal=True,
                           search_resolution_factor=1e-9)
    retimed = rs.find_revival_time(spec).time_s
    print("  ideal period      %.6f ms" % (ideal_period * 1e3))
    print("  best revival at   %.6f ms" % (retimed * 1e3))
    print("  fractional delay  %+.4f%%"
          % ((retimed / ideal_period - 1.0) * 100.0))

    print()
    ells = np.array([0, 1, 2, 3, 5, 8, 13])
    # thin-ring curve of an ellipse whose semi-major axis is R: its
    # first-order shift is eps^2 (ell^2 - 1/4) / 4 in internal units
    curve = trap.eccentricity ** 2 * (ells ** 2 - 0.25) / 4.0
    u = rs.centrifugal_displacement(trap, ells) / trap.radius
    bare = curve / (rs.ellipticity_shift(trap, ells) / trap.energy_unit
                    / (1.0 + 3.0 * u))
    print("ellipticity: the published form disagrees with the thin-ring")
    print("curve's first-order shift eps^2 (ell^2 - 1/4) / 4 (R the")
    print("semi-major axis): curve = closed * C / (1 + 3u) with")
    print("  C = %.9g (2*pi = %.9g), spread %.2e across modes %s"
          % (np.mean(bare), 2.0 * np.pi, np.ptp(bare), ells.tolist()))

    os.makedirs("demo_output", exist_ok=True)
    path = os.path.join("demo_output", "torus_spectrum.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mode,ideal_j,tilt_j,centrifugal_quartic_j,"
                     "elliptic_j\n")
        for row in rows:
            handle.write("%d,%.12e,%.12e,%.12e,%.12e\n" % row)
    print()
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
