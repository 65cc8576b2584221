"""Watch the plain discretization method fail to converge.

On the builtin problem "cex1" the true optimal value is 0.5, yet the
lower-bounding loop that adds only lower-level-program minimizers produces
iterates x^k = 2^(1-k) and lower bounds -2^(1-k): the bounds creep up to 0
and never cross it.  Every added point satisfies the inner constraint at the
iterate that produced it, but later iterates slide underneath those cuts.
"""
from gsiplab import AlgorithmConfig, LLP_ONLY, diagnose_trace, get_builtin, run

problem = get_builtin("cex1")
result = run(problem, AlgorithmConfig(variant=LLP_ONLY, max_iter=12))

print(f"problem {problem.name}: true value {problem.f_star}")
print(f"{'k':>3} {'x^k':>12} {'y^k':>12} {'lower bound':>12}")
for rec in result.trace:
    print(f"{rec.k:>3} {rec.x['x']:>12.6f} {rec.llp.minimizer['y']:>12.6f} "
          f"{rec.f_lower:>12.6f}")
print(f"status: {result.status}, final bound {result.final_lower_bound:.6f} "
      f"(never reaches {problem.f_L})")

violations = diagnose_trace(problem, result)
print(f"\n{len(violations)} added points later become infeasible; e.g.")
for l, k, value in violations[:5]:
    print(f"  at iterate {l}, the point added in iterate {k} has "
          f"hbar = {value:.6f} > 0")
