"""The singularity category of a classified cyclic non-homogeneous algebra.

These algebras have infinite global dimension and are not even
Iwanaga-Gorenstein, yet their singularity category has a tiny model: the
stable category of the Frobenius subcategory F, which is equivalent to the
stable module category of a radical-square-zero cycle on r*n vertices.
"""

from nakct import (
    Indec,
    Kind,
    classify_nz,
    cyclic_simples,
    f_objects,
    gamma,
    glue,
    gorenstein_witness,
    homogeneous,
    indecomposables,
    resolution_quiver,
    self_glue,
    sing_ct,
    sing_image,
)
from nakct.render import render_resolution

lam = self_glue(glue(homogeneous(Kind.ACYCLIC, 7, 3), homogeneous(Kind.ACYCLIC, 9, 2)))
print("algebra:", lam)

# The resolution quiver tracks tau(soc P_i); its cycles single out the
# simples that survive into the singularity category.
quiver = resolution_quiver(lam)
print("\nresolution quiver:")
print(render_resolution(quiver, "ascii"))
print("cyclic simples:", sorted(cyclic_simples(lam)))

# The singularity model is built once and every step below takes it: F is
# the module category of a homogeneous cycle Gamma with m = r*n.
model = gamma(lam, 4)
print("\nGamma =", model.gamma)
print("block offsets:", model.block_offsets)
print("projective enumeration:",
      [(p.i, p.j) for p in model.projectives_enum])

# F consists of the modules whose top and tau-socle are cyclic simples.
fcat = f_objects(lam, model)
print("\n|F-objects| =", len(fcat.objects))
print("F-projectives:", sorted((x.i, x.j) for x in fcat.f_projectives))

# The canonical functor to the singularity category either kills a module
# or identifies it with a canonical F-object along an inclusion/projection.
for pair in ((6, 7), (2, 2), (1, 2), (9, 9)):
    image = sing_image(model, Indec(*pair))
    print(f"M{pair} -> {image.verdict}"
          + (f" as M({image.target.i},{image.target.j}) via {image.via}" if image.target else ""))

# Downstairs the subcategory count grows: the module category has a unique
# 4Z-cluster tilting subcategory, its singularity category has four.
upstairs = classify_nz(lam, 4)
record = sing_ct(model)
print("\nupstairs subcategories:", len(upstairs.subcategories))
print("downstairs count:", record.count)
print("distinguished simples upstairs:", sorted(record.distinguished_simple_indices))
print("their Gamma positions:", sorted(record.gamma_indices))

# Not Iwanaga-Gorenstein: an injective non-projective module survives.
witness = gorenstein_witness(model)
print("\nGorenstein obstruction witness:", (witness.i, witness.j))
print("its image:", sing_image(model, witness))

# Sanity: how much of the module category survives at all
alive = sum(1 for x in indecomposables(lam) if sing_image(model, x).verdict == "NonZero")
print(f"\n{alive} of {len(indecomposables(lam))} indecomposables are nonzero downstairs")
