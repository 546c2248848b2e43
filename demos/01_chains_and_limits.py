"""Walk through the four-state chain machinery on classic strategy pairs.

A pair of memory-one strategies induces a Markov chain on the joint states
CC, CD, DC, DD.  Deterministic strategies make that chain reducible or
periodic, so a stationary distribution need not be unique, and the
long-run quantity this package computes is the start-dependent Cesaro
(time-average) limit.

It comes from one finite elimination: transient states are removed one at
a time, their starting mass carried to the recurrent classes that absorb
it, and each recurrent class is solved by Grassmann-Taksar-Heyman (GTH)
elimination.  No step count, window or convergence test is involved,
so slowly mixing chains are solved as accurately as fast ones.
"""

import numpy as np

import zdlab as z

np.set_printoptions(precision=6, suppress=True)

print("=== Tit-for-Tat against unconditional cooperation ===")
M = z.transition_matrix(z.TFT, z.ALL_C)
print("transition matrix (columns = previous state):")
print(M)

structure = z.classify(M)
print("communicating classes:", structure.classes)
print("recurrent flags:      ", structure.recurrent)
print("ergodic:              ", structure.ergodic)

limit = z.cesaro_limit(M)
print("cesaro limit from uniform ->", limit.distribution, f"(unique={limit.unique})")
# mutual cooperation absorbs everything, whatever the start
for start in (z.JointState.DD, z.JointState.CD):
    limit = z.cesaro_limit(M, start)
    print(f"cesaro limit from {start.name}:", limit.distribution)

print()
print("=== Tit-for-Tat against itself: a periodic, reducible chain ===")
M = z.transition_matrix(z.TFT, z.TFT)
structure = z.classify(M)
print("classes:", structure.classes, "periods:", structure.periods)

limit = z.cesaro_limit(M)
print("cesaro limit from uniform: unique =", limit.unique, "->", limit.distribution)
print("(three recurrent classes each carry an invariant measure, so the")
print(" start matters; the Cesaro limit resolves that honestly:)")
for start in (z.JointState.CC, z.JointState.CD, z.JointState.DD):
    limit = z.cesaro_limit(M, start)
    print(f"  from {start.name}: {limit.distribution}   residual={limit.residual:.1e}")

print()
print("=== A slowly leaking cycle: exact, with no step budget ===")
# CD and DC swap into each other and leak 1e-9 per step into CC or DD
M = z.transition_matrix(z.TFT, z.parse_strategy("custom:1,1e-9,0.999999999,0"))
print("transient states:", z.classify(M).transient_states)
limit = z.cesaro_limit(M)
print("cesaro limit from uniform:", limit.distribution, f"converged={limit.converged}")

print()
print("=== Trembling hands regularise everything ===")
for eps in (0.1, 0.01, 0.001):
    noisy = z.TFT.with_noise(eps)
    result = z.cesaro_limit(z.transition_matrix(noisy, noisy))
    print(f"  eps={eps:<6} stationary ->", result.distribution)
print("(the eps -> 0 limit is a different object from the Cesaro limit of")
print(" a fixed start; the library computes both and never conflates them)")
