# Surface representations: averaging over a shrinking inner collar of a
# smooth boundary recovers the surface average, and the boundary term of
# the divergence identity is checkable against a volume integral.

import numpy as np

from puremeasure.density_engine import DeltaSchedule, aura_report
from puremeasure.geometry import Ball, RegionBoundary
from puremeasure.quadrature import SampleSpec
from puremeasure.surface_rep import (
    collar_average,
    gauss_check,
    surface_fixture,
    surface_reference,
)

circle = surface_fixture(Ball((0.0, 0.0), 1.0))
sched = DeltaSchedule(0.64, 8)

collar = collar_average(lambda p: p[:, 0] ** 2, circle, sched,
                        SampleSpec(n=1_000_000, seed=5), tol=0.05)
reference = surface_reference(lambda p: p[:, 0] ** 2, circle)
print("average of x^2 over the unit circle:")
print(f"  collar means:      {[round(l.value, 4) for l in collar.series]}")
print(f"  collar limit:      {collar.limit.mid:.4f}")
print(f"  parametric value:  {reference:.6f}")

# the collars themselves form a shrinking sequence; the engine gives each full
# mass 1 by construction
aura = aura_report(RegionBoundary(circle.region), circle.region, sched,
                   SampleSpec(n=200_000, seed=6))
print("\ncollar volumes (shrinking):")
for level in aura.levels[:5]:
    print(f"  delta {level.delta:7.4f}: volume {level.volume:.4f} +- {level.volume_stderr:.4f}")

# divergence identity on the disk: div(x, y) = 2, flux through the circle = 2*pi
gauss = gauss_check(lambda p: p, circle, SampleSpec(n=2_000_000, seed=7),
                    div=lambda p: np.full(len(p), 2.0))
print(f"\ndivergence identity for phi = (x, y) on the unit disk:")
print(f"  volume integral of div(phi): {gauss.volume_integral.value:.5f}"
      f" +- {gauss.volume_integral.stderr:.5f}")
print(f"  boundary flux:               {gauss.flux:.5f}")
print(f"  residual:                    {gauss.residual:.5f}")
