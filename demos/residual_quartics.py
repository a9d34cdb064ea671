"""
Rational quartics as residuals of sections through a line
=========================================================

"""

from delpezzo5 import (build_model, enumerate_fixed_quartics,
                       format_ideal_text, residual_quartic)

model = build_model()

# one pipeline run in slow motion: cut the threefold by two coordinate
# hyperplanes through the middle line, then divide the line out of the
# quintic section; the threefold is Cohen-Macaulay, so the two forms are
# a regular sequence and the section needs no saturation
run = residual_quartic(model, "l0", (0, 4))
print("sections:", ", ".join(str(s) for s in run.sections))
print("section used as cut (certified saturated):", run.certified_section)
print("section curve HP:", run.quintic_hilbert)
print("residual curve HP:", run.curve_hilbert)
if run.secant_hilbert is not None:
    print(f"meets the line in a length-{run.secant_hilbert(0)} scheme")
else:
    print("the line is a component")
print(format_ideal_text(model.orbit, run.curve.groebner().elements))

# this particular residual is the irreducible rational normal quartic;
# the other twenty-nine picks produce the reducible configurations
census = enumerate_fixed_quartics(model)
print(f"{len(census.records)} residual curves,"
      f" {len(census.orbits)} involution orbits\n")

print("orbit  row  label        members (line, pick)")
for k, orbit in enumerate(census.orbits):
    where = ", ".join(f"({census.records[m].line} {census.records[m].pick})"
                      for m in orbit.members)
    row = "-" if orbit.row is None else f"{orbit.row:2d}"
    tag = " self-mirror" if orbit.self_mirror else ""
    print(f"{k:5d}  {row:>3}  {orbit.label:12s} {where}{tag}")

# every member is a quartic curve with the same deformation count
tangents = {r.relative_tangent for r in census.records}
print("\nrelative tangent dimensions seen:", sorted(tangents))
