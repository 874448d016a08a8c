"""A wave packet on an ideal ring re-forms, twice.

Free evolution on a ring with a purely quadratic spectrum is periodic: after
one revival period the packet reappears on the far side of the ring, after
two it is back where it started, and exactly halfway it splits into an equal
superposition of itself and its antipodal twin.  This script evolves a
Gaussian packet through those landmarks and prints what the state looks like
at each one.

Run:  python3 demos/01_revival_and_splitter.py
"""
import math
import os

import numpy as np

import ringsim as rs


def density_strip(state, cells=64):
    profile = rs.density_profile(state, 512)
    coarse = profile.density.reshape(cells, -1).mean(axis=1)
    peak = float(np.max(coarse))
    return "".join(" .:-=+*#"[min(7, int(8 * d / peak))] for d in coarse)


def main():
    trap = rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3)
    period = rs.revival_time(trap)
    model = rs.DispersionModel(trap, 128)
    packet = rs.gaussian_packet(0.0, 0.121, 128)
    far = rs.rotate(packet, math.pi)

    print("ring of radius %.1f um, revival period %.3f ms"
          % (trap.radius * 1e6, period * 1e3))
    print()
    print("%-16s %-18s %-18s" % ("time", "|<now|start>|^2",
                                 "|<now|far side>|^2"))
    rows = []
    for fraction in (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0, 1.5, 2.0):
        state = rs.evolve_linear(packet, fraction * period, model)
        f_self = rs.fidelity(packet, state)
        f_far = rs.fidelity(far, state)
        print("%-16s %-18.6f %-18.6f" % ("%.2f periods" % fraction,
                                         f_self, f_far))
        rows.append((fraction, f_self, f_far))

    print()
    print("at half a period the evolution acts as a balanced beam splitter:")
    half = rs.evolve_linear(packet, 0.5 * period, model)
    split = rs.half_revival_superposition(packet)
    worst = float(np.max(np.abs(half.amplitudes - split.amplitudes)))
    print("  worst amplitude error against the closed-form splitter: %.2e"
          % worst)
    print("  (even modes keep their phase, odd modes are multiplied by -i)")

    print()
    print("density around the ring (angle 0 at the left edge):")
    full = rs.evolve_linear(packet, period, model)
    for label, state in (("start", packet), ("half period", half),
                         ("full period", full)):
        print("  %-12s |%s|" % (label, density_strip(state)))

    os.makedirs("demo_output", exist_ok=True)
    path = os.path.join("demo_output", "revival_landmarks.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("periods,fidelity_start,fidelity_far_side\n")
        for row in rows:
            handle.write("%.3f,%.12g,%.12g\n" % row)
    print()
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
