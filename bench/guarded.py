"""Run one verify case under an address-space limit.

Usage: guarded.py LIMIT_MB LAMBDA DIM ALPHA_CSV.  The limit is set before
numpy is imported, so it covers every allocation.  Prints the case's outcome
as JSON, or exits 3 when an allocation hits the limit.
"""

import json
import resource
import sys

limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

import clext  # noqa: E402  (after the limit)

from cases import outcome_of_verify  # noqa: E402

lam, dim = int(sys.argv[2]), int(sys.argv[3])
alpha = [float(v) for v in sys.argv[4].split(",")]
try:
    rep = clext.build_fock_rep(clext.from_alpha(lam, alpha), dim)
    outcome = outcome_of_verify(clext.verify_defining_relations(rep),
                                clext.verify_projector_algebra(rep))
except MemoryError:
    print(f"guard tripped: MemoryError under a {sys.argv[1]} MB address-space limit",
          file=sys.stderr)
    sys.exit(3)
print(json.dumps(outcome))
