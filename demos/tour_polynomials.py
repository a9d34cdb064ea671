"""
Exact polynomials, monomial orders, and Groebner bases
======================================================

"""

# every coefficient in the package is a fractions.Fraction; there is no
# floating point anywhere, so printed results are exact by construction
from delpezzo5 import (GREVLEX, LEX, RingContext, format_polynomial,
                       normal_form, parse_polynomial, reduced_groebner_basis)

ctx = RingContext(("x", "y"))
f = parse_polynomial("x*y - 1", ctx)
g = parse_polynomial("y^2 - 1", ctx)

# a lex basis eliminates: the pure-y generator survives, and x is solved
# for in terms of y
gb = reduced_groebner_basis([f, g], LEX)
print("lex basis of <x*y - 1, y^2 - 1>:")
for p in gb.elements:
    print("   ", format_polynomial(p, LEX))

# normal forms are canonical representatives modulo the ideal: membership
# is exactly "normal form zero"
member = parse_polynomial("x^2*y - y", ctx)
stranger = parse_polynomial("x^2*y - 1", ctx)
print("NF(x^2*y - y) =", format_polynomial(gb.normal_form(member), LEX))
print("NF(x^2*y - 1) =", format_polynomial(gb.normal_form(stranger), LEX))

# grevlex is the workhorse order for everything that does not need
# elimination; the one-step division interface works with any generators,
# not just a basis
h = parse_polynomial("x^3*y^2 + y", ctx)
print("one division step under grevlex:",
      format_polynomial(normal_form(h, [f, g], GREVLEX), GREVLEX))
