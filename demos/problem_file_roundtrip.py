"""Read, canonicalize, and write the problem file format.

Parses a problem from text, shows the canonical serialization, and
demonstrates that parse and serialize are inverse on the canonical form.
"""
from gsiplab import parse_problem, serialize_problem

SOURCE = """\
# any number of inner constraints, combined by maximum
problem "demo"
outer x in [-1, 1]
inner y in [-1, 1]
objective: -x
g: (x - y)^2 - 10
h: -2*x + y
h: -x
f_star: 0.5
"""

problem = parse_problem(SOURCE)
canonical = serialize_problem(problem)
print("canonical form:")
print(canonical)

assert parse_problem(canonical) == problem
print("round trip: parse(serialize(problem)) == problem")

print(f"loaded problem {problem.name!r} with outer box {problem.X.intervals()} "
      f"and {len(problem.h)} inner constraints")
