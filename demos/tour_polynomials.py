"""
Exact polynomials, monomial orders, and Groebner bases
======================================================

"""

# every coefficient in the package is a fractions.Fraction; there is no
# floating point anywhere, so printed results are exact by construction
from delpezzo5 import (GREVLEX, LEX, RingContext, format_polynomial,
                       normal_form, parse_polynomial, reduced_groebner_basis,
                       syzygy_columns)

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

# relations among the generators: each column c has c0*f + c1*g = 0, and
# together the columns generate every such relation
print("relations among f = x*y - 1 and g = y^2 - 1:")
for c0, c1 in syzygy_columns([f, g]):
    print(f"    ({format_polynomial(c0, LEX)})*f + ({format_polynomial(c1, LEX)})*g = 0")

# grevlex is the workhorse order for everything that does not need
# elimination; the one-step division interface works with any generators,
# not just a basis
h = parse_polynomial("x^3*y^2 + y", ctx)
print("one division step under grevlex:",
      format_polynomial(normal_form(h, [f, g], GREVLEX), GREVLEX))
