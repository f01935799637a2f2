"""
Siphons and the lattice of invariant faces
==========================================

Every builtin model is an ODE system whose right-hand sides split into
nonnegative reaction rates. A siphon is a set of variables that, once all
zero, can never be produced again; each siphon gives a coordinate face the
flow cannot leave. This script walks the enumeration for both variants of
the opportunistic-colonizer model.
"""

from crnrelay import builtin_model, minimal_siphons, verify_face_invariance
from crnrelay.modelfile import print_model

# the variant with release recycling (omega > 0) is the default model
m = builtin_model("osn_omega_pos")
print(print_model(m))

# the reaction view: rates and their net stoichiometry, in extraction order
net = m.network()
print(f"{len(net.reactions)} reactions extracted")
for k, rxn in enumerate(net.reactions, start=1):
    gains = ", ".join(f"{v}:{g}" for v, g in sorted(rxn.net().items()))
    print(f"  r{k:<3} rate {rxn.rate_text()}   net {{{gains}}}")
print()

# minimal siphons generate everything else by unions
for name in ("osn_omega_pos", "osn_omega0"):
    model = builtin_model(name)
    sips = minimal_siphons(model.network())
    print(name, "minimal siphons:",
          sorted(sorted(s) for s in sips))

# omega = 0 has {W} as an extra siphon: with no release there is no way to
# replenish the free wild type once it is gone. omega > 0 loses it because
# the recycling rate omega*R produces W from R.
print()

# the lattice: all unions of minimal siphons, ordered by inclusion
m0 = builtin_model("osn_omega0")
lat = m0.lattice()
print(f"omega=0 lattice: {len(lat.nodes)} faces, {len(lat.covers)} covers")
for low, up in sorted(lat.covers, key=lambda c: (len(c[1]), lat.label(c[1]), lat.label(c[0])))[:6]:
    print(f"  {lat.label(low):24} < {lat.label(up)}")
print("  ...")
print()

# each lattice face really is invariant; an arbitrary variable set is not
good = verify_face_invariance(m0, {"S1", "B1"})
bad = verify_face_invariance(m0, {"S1"})
print("face {S1,B1} invariant:", good.ok)
print("face {S1} invariant:", bad.ok, "->", dict(bad.details))
