"""One channel family, two independent formulas.

The direct route conjugates the aligned input with the coupling unitaries
and traces out the mediating system.  The moment route first evaluates the
8-index table of operator-entry moments and then contracts it against the
input.  The two computations share no intermediate results, so their
agreement is a strong end-to-end check; it also demonstrates the CPTP
audit every valid model must pass.
"""

import numpy as np

from uichan import (channel_direct, channel_from_moments, choi, cptp_report,
                    moment_table, moments_from_channel, random_tensor_model)

model = random_tensor_model(n=2, m=2, dA=2, dB=3, state="density", seed=11)
print(f"random tensor model: n={model.n}, m={model.m}, dA={model.dA}, dB={model.dB}")

direct = channel_direct(model)
table = moment_table(model)
via_moments = channel_from_moments(table)

gap = np.max(np.abs(direct.supers - via_moments.supers))  # over all (x, y) at once
print(f"max entry gap between the two routes: {gap:.3e}")
assert gap < 1e-10

defects = table.contraction_defects()
print("moment-table unitarity contractions (must vanish):")
for name, value in defects.items():
    print(f"  {name}: {value:.3e}")

audit = cptp_report(direct)
print(f"CPTP audit: min Choi eigenvalue {audit.min_choi_eigenvalue:.3e}, "
      f"trace defect {audit.trace_defect:.3e} -> accepted={audit.accepted}")

recovered = moments_from_channel(direct)  # a view of the channel array, no copy
round_trip = np.max(np.abs(recovered.tables - table.tables))
print(f"moment table recovered from the channel, round-trip gap: {round_trip:.3e}")

J = choi(direct)[0, 0]
print(f"Choi matrix of the (1,1) member: shape {J.shape}, "
      f"hermitian defect {np.max(np.abs(J - J.conj().T)):.3e}")
