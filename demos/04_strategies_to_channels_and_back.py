"""A Bell strategy round-trips through a channel family without loss.

Fourier combinations of a projective strategy give block-diagonal coupling
unitaries; the induced channel family then carries the full behaviour
p(ab|xy) in its diagonal moments.  Extracting it back (with the sub-POVM
completion on the last outcome) reproduces the Born rule entrywise, here on
the strategy reaching the quantum CHSH optimum (2 + sqrt(2))/4.
"""

import numpy as np

from uichan import (behaviour_direct, behaviour_from_channel, bell_value, channel_direct,
                    chsh_functional, chsh_optimal_strategy, diagonal_fourier_lift,
                    diagonal_moment_behaviour, sub_povm_total_bound)

alice, bob, psi = chsh_optimal_strategy()
print("strategy: optimal CHSH qubit measurements on the maximally entangled pair")

lifted = diagonal_fourier_lift(alice, bob, psi)
print(f"lifted tensor model: ancilla n = {lifted.n} (= outcomes), "
      f"locals dA = {lifted.dA}, dB = {lifted.dB}")
print(f"sub-POVM total bound of the lift: {sub_povm_total_bound(lifted):.12f} (exactly 1)")

channel = channel_direct(lifted)
extracted = behaviour_from_channel(channel)
born = behaviour_direct(alice, bob, psi)

gap = np.max(np.abs(extracted.p - born.p))
print(f"extracted behaviour vs Born rule, max entry gap: {gap:.3e}")
assert gap < 1e-10

f = chsh_functional()
print(f"CHSH value via channel extraction: {bell_value(extracted, f):.10f}")
print(f"CHSH value via Born rule:          {bell_value(born, f):.10f}")
print(f"quantum optimum (2 + sqrt 2)/4:    {(2 + np.sqrt(2)) / 4:.10f}")

raw = diagonal_moment_behaviour(channel)[0, 0, 0, 0]
print(f"raw diagonal-moment value at (a,b,x,y) = (1,1,1,1): {raw.real:.10f} "
      f"(= p(11|11) = {born.p[0, 0, 0, 0]:.10f} for a lifted strategy)")
