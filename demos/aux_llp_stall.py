"""Watch the auxiliary-refinement variant stall.

The variant tries to repair the plain discretization by adding, instead of
the lower-level minimizer itself, a nearby point that minimizes the
aggregated inner constraint among near-optimal points (within a factor
alpha of the lower-level value).  On the builtin problem "cex2" this gets
stuck: the first added point pins all later iterates at x = 0, so the
bounds freeze at 0 while the true value is 0.5.  The stall needs
alpha >= 10/11: below it the first added point has y < 0 and the run gets
past 0.  Shifting g to -y - c moves the threshold to c/(1+c), so every
alpha in (0, 1) has a problem of this family on which the variant stalls.
"""
from gsiplab import AUX_LLP, AlgorithmConfig, get_builtin, run

problem = get_builtin("cex2")
result = run(problem, AlgorithmConfig(variant=AUX_LLP, alpha=0.95, max_iter=8))

print(f"problem {problem.name}: true value {problem.f_star}")
print(f"{'k':>3} {'x^k':>10} {'llp value':>10} {'added y':>10} {'bound':>10}")
for rec in result.trace:
    added = rec.aux.minimizer["y"] if rec.aux is not None else float("nan")
    print(f"{rec.k:>3} {rec.x['x']:>10.4f} {rec.llp.value:>10.4f} "
          f"{added:>10.4f} {rec.f_lower:>10.4f}")
print(f"status: {result.status}, final bound {result.final_lower_bound:.4f}")
print("\nseeding the discretization with y = -1 rescues this run:")
seeded = run(problem, AlgorithmConfig(variant=AUX_LLP, alpha=0.95, max_iter=8,
                                      initial_yset=({"y": -1.0},)))
print(f"status: {seeded.status}, final bound {seeded.final_lower_bound:.6f}")
