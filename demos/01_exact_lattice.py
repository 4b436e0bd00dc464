# Exact lattice operations on finitely additive measures over a finite
# set algebra: evaluation, total variation, Jordan and band decompositions,
# all in rational arithmetic so every identity is an equality.

from fractions import Fraction

from puremeasure.fa_lattice import (
    FAMeasure,
    GroundSet,
    SimpleFunction,
    band_decompose,
    continuity_check,
    evaluate,
    integrate_simple,
    jordan_decompose,
    lattice_meet,
    outer_measure,
    sigma_additive_part,
    total_variation,
    total_variation_measure,
    tv_partition_oracle,
)

ground = GroundSet(("a", "b", "c"))
mu = FAMeasure.on_atoms(ground, [Fraction(2), Fraction(-3), Fraction(1)])

print("mu on atoms a, b, c:", mu.values)
print("mu({a,b}) =", evaluate(mu, ground.subset("ab")))

full = ground.full
print("\ntotal variation |mu|(full) =", total_variation(mu, full))
print("partition oracle agrees:   ", tv_partition_oracle(mu, full))

pos, neg = jordan_decompose(mu)
print("\nJordan decomposition:")
print("  mu+ =", pos.values, " mu- =", neg.values)
print("  mu+ - mu- == mu:", pos - neg == mu)
print("  (mu+ ^ mu-)(full) =", lattice_meet(pos, neg, full), " (orthogonal parts)")

band = ground.subset("a")
inside, outside = band_decompose(mu, band)
print("\nband decomposition along {a}:")
print("  supported inside: ", inside.values)
print("  orthogonal rest:  ", outside.values)
print("  meet of total variations:",
      lattice_meet(total_variation_measure(inside), total_variation_measure(outside), full))

sigma_part, pure = sigma_additive_part(mu)
print("\nevery measure on a finite algebra is countably additive:")
print("  pure part is zero:", pure.is_zero)

nu = FAMeasure.on_atoms(ground, [Fraction(1), Fraction(4), Fraction(0)])
print("\ncontinuity of mu with respect to nu:")
print("  vanishes on nu-null sets:", continuity_check(mu, nu),
      " (nu ignores {c} but mu charges it)")

# outer measure sees sets the algebra cannot: blocks {a,b} and {c}
from puremeasure.fa_lattice import SubAlgebra

coarse = SubAlgebra.from_blocks(ground, [["a", "b"], ["c"]])
rho = FAMeasure(coarse, (Fraction(5), Fraction(2)))
print("\nouter measure on the coarse algebra {a,b}|{c}:")
print("  rho*({a}) =", outer_measure(rho, ground.subset("a")), " (cheapest cover is {a,b})")

f = SimpleFunction.on_atoms(ground, [1, 2, 3])
print("\nintegral of the simple function (1,2,3) against mu:", integrate_simple(f, mu))
