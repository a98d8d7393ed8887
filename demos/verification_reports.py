"""
Batch verification and reports
==============================

Every closed form and identity in the package can be swept over a
parameter range in one call.  The result is a report object that
renders as text or JSON and never hides a discrepancy: failures are
collected with both polynomials printed verbatim.
"""

from klpoly import (
    verify_inversion_identity_batch,
    verify_regular_closed_forms,
    verify_smoothness_equivalence,
)

# Sweep both families up to total size 6 and compare the recursion
# against the closed forms, interior elements included.
report = verify_regular_closed_forms(6)
print(report.text())
print()

# The inversion identity over all comparable pairs of S_4.
report = verify_inversion_identity_batch(4)
print(report.text())
print()

# Sampled mode for larger groups: fix a seed, draw comparable pairs.
report = verify_inversion_identity_batch(6, samples=40, seed=9)
print(report.text())
print()

# The pattern test against direct computation, all tops of S_4.
report = verify_smoothness_equivalence(4)
print(report.text())
print()

# The same report as machine-readable JSON, fixed six-key schema.
print(report.to_json())
