"""A gauge flux through the ring rotates the revived packet.

Anything that couples to the particle's circulation — a magnetic field
threading a charged ring, a line charge threaded by a magnetic moment, a
rotating lab frame — shifts the angular-momentum ladder by an effective
flux.  The packet still revives, but rotated by (flux action / hbar) per
revival period.  Measuring that rotation is a sensing protocol, and the
rotation is the same for every realization with the same action.

Run:  python3 demos/04_gauge_flux_rotation.py
"""
import math
import os

import ringsim as rs


def main():
    trap = rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3)
    period = rs.revival_time(trap)

    # The packet-width angular resolution a single shot can plausibly read.
    resolution = trap.sigma_u / trap.radius
    b_min = rs.min_detectable_field(resolution, rs.ELEMENTARY_CHARGE, trap)

    scenarios = [
        ("unit charge, minimum detectable field (%.3g T)" % b_min,
         rs.GaugeScenario.charged(rs.ELEMENTARY_CHARGE, b_min)),
        ("earth-rotation frame (7.29e-5 rad/s)",
         rs.GaugeScenario.rotating_frame(7.292115e-5)),
        ("bohr magneton around a line charge field of 1e7 V/m",
         rs.GaugeScenario.aharonov_casher(rs.BOHR_MAGNETON, 1.0e7)),
        ("one debye dipole in a 1 T transverse field",
         rs.GaugeScenario.dipole_in_magnetic_field(rs.DEBYE, 1.0)),
    ]

    print("rotation of the revived packet per %.2f ms period:"
          % (period * 1e3))
    rows = []
    for label, scenario in scenarios:
        angle = rs.rotation_per_revival(scenario, trap)
        print("  %-55s %+.3e rad" % (label, angle))
        rows.append((scenario.kind, angle))
    print()
    print("the first entry rotates by exactly the assumed angular "
          "resolution %.3e rad" % resolution)

    print()
    print("watching the rotation happen (exact spectral evolution):")
    packet = rs.gaussian_packet(0.0, 0.121, 128)
    model = rs.DispersionModel(trap, 128)
    theta = 0.37
    flux = rs.FluxSpec(action=theta * rs.HBAR)
    evolved = rs.evolve_linear(packet, period, model, flux=flux)
    expected = rs.rotate(packet, math.pi + theta)
    print("  flux action %.2f hbar -> expected revival angle pi + %.2f"
          % (theta, theta))
    print("  centroid of the revived packet: %.6f rad (expected %.6f)"
          % (rs.circular_centroid(evolved), math.pi + theta))
    print("  fidelity against the rotated original: %.12f"
          % rs.fidelity(expected, evolved))

    print()
    print("the same effect through the full interference protocol:")
    omega = 5.0  # rad/s frame rotation
    spec = rs.ProtocolSpec(
        trap=trap,
        solver="linear",
        cutoff=128,
        flux=rs.to_flux_spec(rs.GaugeScenario.rotating_frame(omega), trap),
        search_resolution_factor=1e-9,
    )
    result = rs.run_protocol(spec)
    predicted = math.pi + omega * period
    print("  frame rotation %.1f rad/s -> readout centroid %.6f rad "
          "(pi + omega*T = %.6f)"
          % (omega, result.centroid_angle, predicted))
    print("  revival fidelity with flux on: %.9f" % result.revival_fidelity)

    os.makedirs("demo_output", exist_ok=True)
    path = os.path.join("demo_output", "gauge_rotations.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("scenario,rotation_per_revival_rad\n")
        for kind, angle in rows:
            handle.write("%s,%.12e\n" % (kind, angle))
    print()
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
