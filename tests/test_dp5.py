"""The threefold model end to end: coordinate change, invariant
subspace, fixed-point combinatorics, curve censuses, residuals."""
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

import pytest

from delpezzo5 import dp5, tables
from delpezzo5.hilbert import (HilbertPolynomial, hilbert_function,
                               hilbert_polynomial)
from delpezzo5.homspaces import tangent_dimension
from delpezzo5.ideals import Ideal
from delpezzo5.polyring import parse_polynomial

MODEL = dp5.build_model()

HP_LINE = HilbertPolynomial([1, 1])
HP_CONIC = HilbertPolynomial([1, 2])
HP_CUBIC = HilbertPolynomial([1, 3])
HP_QUARTIC = HilbertPolynomial([1, 4])
HP_SECTION = HilbertPolynomial([0, 5])


def orbit_ideal(*texts):
    return Ideal(MODEL.orbit, [parse_polynomial(t, MODEL.orbit)
                               for t in texts])


class TestModel:
    def test_generator_counts(self):
        assert len(MODEL.threefold.gens) == 5
        assert len(MODEL.hyperplanes) == 3
        # quadratic relations only; the linear forms live separately
        assert len(MODEL.grassmannian.gens) == 5

    def test_threefold_is_weight_homogeneous(self):
        assert MODEL.threefold.is_torus_fixed()

    def test_hilbert_values(self):
        assert hilbert_function(MODEL.threefold, 1) == 7
        assert hilbert_function(MODEL.threefold, 2) == 23

    def test_span_is_all_of_projective_space(self):
        assert dp5.linear_span_dimension(MODEL.threefold) == 6

    def test_model_is_cached(self):
        assert dp5.build_model() is MODEL

    def test_model_maps_are_read_only(self):
        with pytest.raises(TypeError):
            MODEL.images[tables.PLUCKER_VARIABLES[0]] = MODEL.orbit.zero()
        with pytest.raises(TypeError):
            MODEL.lines["l0"] = MODEL.threefold


class TestCoordinateChange:
    def test_full_check_passes(self):
        out = dp5.coordinate_change_check(MODEL)
        assert out["passed"]
        assert out["hyperplanes_vanish"]
        assert out["ideal_equal"]
        assert out["bijective"]

    def test_each_relation_matches_one_quadric(self):
        out = dp5.coordinate_change_check(MODEL)
        matched_quadrics = [m[1] for m in out["quadric_matches"]]
        assert sorted(matched_quadrics) == list(range(5))
        for _, _, factor in out["quadric_matches"]:
            assert factor in (Fraction(1), Fraction(2))

    def test_linear_forms_map_to_zero(self):
        for form in MODEL.hyperplanes:
            assert dp5.change_coordinates(MODEL, form).is_zero()


class TestInvariantSubspace:
    def test_full_check_passes(self):
        out = dp5.invariant_subspace_check(MODEL)
        assert out["passed"]
        assert out["chain_length"] == 7
        assert out["dimension"] == 7
        assert out["matches"]

    def test_first_lowering_step(self):
        chain = dp5.lowering_chain()
        assert chain[0] == {(-2, -4): Fraction(1)}
        assert chain[1] == {(0, -4): Fraction(2)}

    def test_chain_terminates(self):
        chain = dp5.lowering_chain()
        assert len(chain) == 7
        assert not dp5._lower_wedge(chain[-1])


class TestFixedPoints:
    def test_space_weights_give_ten_isolated_points(self):
        points = dp5.torus_fixed_grassmannian((4, 2, 0, -2, -4))
        assert len(points) == 10
        assert all(p.isolated for p in points)

    def test_line_generator_weights(self):
        points = dp5.torus_fixed_grassmannian((6, 2, 0, -2, -6))
        assert len(points) == 10

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            dp5.torus_fixed_grassmannian((4, 2, 0), k=3)

    def test_duplicate_weights_rejected(self):
        with pytest.raises(ValueError):
            dp5.torus_fixed_grassmannian((2, 2, 0))


class TestFixedLines:
    def test_exactly_three_families(self):
        records = dp5.fixed_lines(MODEL)
        assert sorted(r.label for r in records) == ["l0", "l1", "l2"]

    def test_ideals_match_catalog(self):
        for r in dp5.fixed_lines(MODEL):
            assert r.ideal == MODEL.lines[r.label]

    def test_line_invariants(self):
        for name, ideal in MODEL.lines.items():
            assert hilbert_polynomial(ideal) == HP_LINE
            assert dp5.linear_span_dimension(ideal) == 1
            assert tangent_dimension(ideal, within=MODEL.threefold) == 2

    def test_five_sections_through_each_line(self):
        for name in MODEL.lines:
            assert dp5.line_section_count(MODEL, name) == 5


class TestFixedConics:
    def test_five_matching_records(self):
        expected = dp5.expected_conic_ideals(MODEL)
        records = dp5.fixed_conics(MODEL)
        assert len(records) == 5
        for r in records:
            assert r.ideal == expected[r.details["omitted_weight"]]

    def test_middle_conic_printed_form(self):
        records = {r.details["omitted_weight"]: r.ideal
                   for r in dp5.fixed_conics(MODEL)}
        assert records[0] == orbit_ideal("a4", "a2", "8*a0^2 + a6*am6",
                                         "am2", "am4")

    def test_conic_invariants(self):
        for r in dp5.fixed_conics(MODEL):
            assert hilbert_polynomial(r.ideal) == HP_CONIC
            assert tangent_dimension(r.ideal, within=MODEL.threefold) == 4
            assert r.ideal.contains_ideal(MODEL.threefold)


class TestFixedCubics:
    def test_ten_matching_records(self):
        expected = {frozenset(pair): ideal
                    for pair, ideal, _ in dp5.expected_cubic_rows(MODEL)}
        records = dp5.fixed_cubics(MODEL)
        assert len(records) == 10
        for r in records:
            assert r.ideal == expected[frozenset(r.details["vertex_pair"])]

    def test_printed_top_row(self):
        # incidence with the line spanned by the two highest weights
        built = dp5.schubert_cubic(MODEL, (4, 2))
        assert built == orbit_ideal("am6", "am4", "am2", "a0^2", "a2*a0",
                                    "3*a2^2 - 4*a4*a0")

    def test_cubic_invariants(self):
        for r in dp5.fixed_cubics(MODEL):
            assert hilbert_polynomial(r.ideal) == HP_CUBIC
            assert tangent_dimension(r.ideal, within=MODEL.threefold) == 6
            assert r.ideal.contains_ideal(MODEL.threefold)

    def test_bad_vertex_pair_rejected(self):
        with pytest.raises(ValueError):
            dp5.schubert_cubic(MODEL, (4, 4))
        with pytest.raises(ValueError):
            dp5.schubert_cubic(MODEL, (4, 3))


class TestResidualQuartic:
    def test_rational_normal_curve_case(self):
        rq = dp5.residual_quartic(MODEL, "l0", (0, 4))
        assert rq.curve == dp5.rnc_ideal(MODEL)
        assert rq.secant_hilbert == HilbertPolynomial([2])

    def test_line_component_case(self):
        rq = dp5.residual_quartic(MODEL, "l0", (0, 3))
        assert rq.secant_hilbert is None
        assert MODEL.lines["l0"].contains_ideal(rq.curve)

    def test_hilbert_polynomials(self):
        rq = dp5.residual_quartic(MODEL, "l1", (2, 4))
        assert rq.quintic_hilbert == HP_SECTION
        assert rq.curve_hilbert == HP_QUARTIC

    def test_residual_is_saturated(self):
        # the quotient of the saturated section needs no second saturation
        curve = dp5.residual_quartic(MODEL, "l2", (1, 3)).curve
        assert curve.saturate_irrelevant() == curve

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dp5.residual_quartic(MODEL, "l3", (0, 1))
        with pytest.raises(ValueError):
            dp5.residual_quartic(MODEL, "l0", (2, 2))
        with pytest.raises(ValueError):
            dp5.residual_quartic(MODEL, "l0", (0, 5))


class TestQuarticCensus:
    def census(self):
        return dp5.enumerate_fixed_quartics(MODEL)

    def test_thirty_distinct_curves(self):
        records = self.census().records
        assert len(records) == 30
        assert len({r.curve.canonical_key() for r in records}) == 30

    def test_sixteen_involution_orbits(self):
        orbits = self.census().orbits
        assert len(orbits) == 16
        rows = sorted(o.row for o in orbits if o.row is not None)
        assert rows == list(range(1, 16))
        assert sum(o.label == "C4" for o in orbits) == 1

    def test_self_mirror_orbits(self):
        marked = {(o.label, o.row) for o in self.census().orbits
                  if o.self_mirror}
        assert marked == {("C4", None), ("l1+l2+C2", 2)}

    def test_row_fourteen_ideal_and_label(self):
        printed = orbit_ideal("a4", "a6", "3*am2^2 - 4*a0*am4 + a2*am6",
                              "2*a0*am2 - 3*a2*am4", "a2*am2", "a0^2",
                              "a2*a0", "a2^2")
        hits = [r for r in self.census().records if r.curve == printed]
        assert hits and all(r.label == "4l2" for r in hits)

    def test_mirror_symmetry_of_the_enumeration(self):
        # the involution sends the pick {i, j} on l0 to {4-j, 4-i}; the
        # picks on l1 and l2 are swapped wholesale without reindexing
        records = {(r.line, r.pick): r for r in self.census().records}
        for (line, pick), r in records.items():
            mirrored = dp5.mirror_ideal(MODEL, r.curve)
            if line == "l0":
                partner = ("l0", tuple(sorted(4 - k for k in pick)))
            else:
                partner = ({"l1": "l2", "l2": "l1"}[line], pick)
            assert mirrored == records[partner].curve

    def test_mirror_is_an_involution(self):
        for r in self.census().records[:5]:
            twice = dp5.mirror_ideal(MODEL, dp5.mirror_ideal(MODEL, r.curve))
            assert twice == r.curve

    def test_every_curve_on_the_threefold(self):
        for r in self.census().records:
            assert r.curve.contains_ideal(MODEL.threefold)
            assert r.curve.is_torus_fixed()
            assert dp5.linear_span_dimension(r.curve) == 4

    def test_tangent_dimension_eight_everywhere(self):
        assert {r.relative_tangent for r in self.census().records} == {8}

    def test_residual_arithmetic(self):
        for r in self.census().records:
            assert r.quintic_hilbert == HP_SECTION
            assert r.curve_hilbert == HP_QUARTIC
        secants = [r for r in self.census().records
                   if r.secant_hilbert is not None]
        assert len(secants) == 10
        assert all(r.secant_hilbert == HilbertPolynomial([2])
                   for r in secants)

    def test_cached_census_is_frozen(self):
        census = self.census()
        label = census.records[0].label
        with pytest.raises(FrozenInstanceError):
            census.records[0].label = "tampered"
        with pytest.raises(FrozenInstanceError):
            census.orbits[0].label = "tampered"
        assert isinstance(census.records, tuple)
        assert isinstance(census.orbits, tuple)
        assert dp5.enumerate_fixed_quartics(MODEL).records[0].label == label

    def test_dispatcher_returns_census_details(self):
        records = dp5.fixed_curves(MODEL, 4)
        assert len(records) == 30
        assert all(r.details["orbit_index"] is not None for r in records)
        with pytest.raises(ValueError):
            dp5.fixed_curves(MODEL, 5)


class TestRationalNormalCurve:
    def test_full_check(self):
        out = dp5.rnc_check(MODEL)
        assert out["determinantal_equal"]
        assert out["hilbert"] == HP_QUARTIC
        assert out["torus_fixed"]
        assert out["span"] == 4
        assert out["on_threefold"]

    def test_tangent_dimensions(self):
        out = dp5.rnc_check(MODEL)
        assert out["tangent_relative"] == 8
        assert out["tangent_ambient"] == 31

    def test_printed_ideal_matches_catalog(self):
        printed = Ideal(MODEL.orbit,
                        [parse_polynomial(s, MODEL.orbit)
                         for s in tables.RNC_GENS])
        assert dp5.rnc_ideal(MODEL) == printed


class TestHomBound:
    def test_vertex_cubic_bound(self):
        assert dp5.vertex_cubic_hom_bound(MODEL) <= 2
