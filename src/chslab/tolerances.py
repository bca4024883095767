"""Numerical tolerances used across the package.

One table, so that every module clamps and compares with the same numbers.

================== ========= ====================================================
name               value     used for
================== ========= ====================================================
ATOL_STRUCTURAL    1e-9      structural invariants: unit norm, hermiticity,
                             trace one, probability sums, eigenvalue clamping
ATOL_CROSS_PATH    1e-8      agreement between two independent code paths
                             (sparse vs dense, block vs dense, closed form)
ATOL_IDENTITY      1e-10     exact operator identities checked numerically
                             (key-average vs split-average, hybrid equivalences)
ATOL_CHAIN         1e-9      slack added to exact inequalities (triangle,
                             monotonicity, binding and rank bounds)
REL_RANK_CUTOFF    1e-10     relative eigenvalue cutoff: supports, inverse roots
================== ========= ====================================================
"""

ATOL_STRUCTURAL = 1e-9
ATOL_CROSS_PATH = 1e-8
ATOL_IDENTITY = 1e-10
ATOL_CHAIN = 1e-9
REL_RANK_CUTOFF = 1e-10
