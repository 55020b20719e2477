"""Closed-form real-operation counts: antenna domain vs beam domain.

The antenna-domain construction pays per antenna pair and per ray, the
beam-domain one per beam.  For massive arrays the beam-domain count
grows additively in the antenna count instead of multiplicatively, so
it wins by orders of magnitude; for very small arrays combined with a
large beam grid the bookkeeping overhead per beam can make it lose.
Both cases show up in the table below.
"""
from beamchan import ro_bdcm, ro_gbsm
from beamchan.complexity import complexity_sweep

RAYS = 20
CLUSTERS = 20

print(f"{'antennas':>9} {'pairs':>7} | {'M=20':>12} {'M=200':>13} "
      f"{'M=400':>13} | {'antenna-domain':>15}")
for n, g, b in complexity_sweep((1, 2, 4, 8, 16, 32, 64), RAYS, CLUSTERS, (20, 200, 400)):
    print(f"{n:>4}x{n:<4} {n * n:>7} | {b[20]:>12,} {b[200]:>13,} "
          f"{b[400]:>13,} | {g:>15,}")

print()
ratio = ro_gbsm(32, 32, RAYS, CLUSTERS) / ro_bdcm(32, 32, 400)
print(f"32x32 with 400 beams: beam domain needs {ratio:,.0f}x fewer "
      f"real operations")
ratio = ro_bdcm(1, 1, 400) / ro_gbsm(1, 1, RAYS, CLUSTERS)
print(f"1x1 with 400 beams: beam domain is {ratio:.1f}x more expensive "
      f"(beam overhead dominates tiny arrays)")
