"""Every tensor model is a commuting model in disguise.

Extending one party's operators by the identity on the other party's space
realizes the tensor-product structure as a pair of commuting subalgebras on
the joint space, and the induced channel family is preserved exactly.  The
embedded model takes its zero commutator from that construction instead of
measuring it, so the certificate here is measured the way any reader of the
model's file measures it: on a fresh CommutingModel built from its arrays.
Unrelated unitaries on a shared space fail the same certificate by a wide
margin.
"""

import numpy as np

from uichan import (CommutingModel, channel_direct, embed_tensor_as_commuting, linalg,
                    random_tensor_model, validate_commuting)

tm = random_tensor_model(n=2, m=2, dA=2, dB=2, seed=5)
cm = embed_tensor_as_commuting(tm)
print(f"embedded model lives on d = {cm.d} = dA*dB = {tm.dA}*{tm.dB}")

# a model built from the arrays alone, as read from a file, measures its commutator
as_read = CommutingModel(n=cm.n, m=cm.m, d=cm.d, state=cm.state, U=cm.U, V=cm.V)
report = validate_commuting(as_read)
assert report.max_commutator == validate_commuting(cm).max_commutator == 0.0
print(f"entrywise commutation: max commutator {report.max_commutator:.3e}, "
      f"max unitarity defect {report.max_unitarity_defect:.3e} "
      f"-> accepted={report.accepted}")

gap = np.max(np.abs(channel_direct(tm).supers - channel_direct(cm).supers))
print(f"channel family preserved by the embedding, max gap {gap:.3e}")
assert gap < 1e-12

# what failure looks like: unrelated unitaries on the same space do not commute
rng = linalg.rng_from_seed(99)
impostor = CommutingModel(n=2, m=1, d=4,
                          state=linalg.haar_state_vector(rng, 4),
                          U=(linalg.haar_unitary_from(rng, 8),),
                          V=(linalg.haar_unitary_from(rng, 8),))
bad = validate_commuting(impostor)
print(f"unrelated Haar unitaries: max commutator {bad.max_commutator:.3f} "
      f"-> accepted={bad.accepted}")
