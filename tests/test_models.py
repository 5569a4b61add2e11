import itertools
import json
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobjets import models
from frobjets.models import (
    SectionModel,
    custom_staircase,
    model_from_config,
    model_from_spec,
    product_projective,
    projective_space,
    scaled_model,
)
from frobjets.monomials import WORK_LIMIT


def attained(model, m, side):
    """The exponents of the box [0, side]^n that the model attains at degree m."""
    box = itertools.product(range(side + 1), repeat=model.n)
    return {a for a in box if model.attains(a, m)}


class TestProjectiveSpace:
    def test_degree_one_simplex(self):
        model = projective_space(2)
        assert attained(model, 1, 3) == {(0, 0), (1, 0), (0, 1)}

    def test_line_segment(self):
        model = projective_space(1)
        assert sorted(attained(model, 3, 6)) == [(0,), (1,), (2,), (3,)]

    def test_membership_is_degree_test(self):
        model = projective_space(2)
        assert model.attains((3, 2), 5)
        assert not model.attains((3, 3), 5)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            projective_space(0)


class TestProductProjective:
    def test_box(self):
        model = product_projective(1, 1, 1, 1)
        assert attained(model, 2, 5) == {(a, b) for a in range(3) for b in range(3)}

    def test_block_boundary(self):
        model = product_projective(2, 1, 3, 1)
        assert model.attains((3, 0, 0), 1)
        assert not model.attains((4, 0, 0), 1)
        assert model.attains((0, 0, 1), 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            product_projective(1, 1, 0, 1)


class TestCustomStaircase:
    def test_reproduces_projective_space(self):
        pn = projective_space(2)
        custom = custom_staircase(2, [((1, 1), 1)])
        for m in (1, 3, 7):
            for a in itertools.product(range(21), repeat=2):
                assert pn.attains(a, m) == custom.attains(a, m)

    def test_reproduces_product(self):
        prod = product_projective(1, 1, 2, 3)
        custom = custom_staircase(2, [((1, 0), 2), ((0, 1), 3)])
        for m in (1, 2, 5):
            for a in itertools.product(range(16), repeat=2):
                assert prod.attains(a, m) == custom.attains(a, m)

    def test_weighted_count(self):
        # Oracle: direct lattice enumeration of 2*a1 + a2 <= 3.
        model = custom_staircase(2, [((2, 1), 1)])
        points = attained(model, 3, 6)
        expected = {a for a in itertools.product(range(7), repeat=2) if 2 * a[0] + a[1] <= 3}
        assert points == expected
        assert len(points) == 6

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            custom_staircase(2, [((1, 0), 1)])

    @pytest.mark.parametrize(
        "n, constraints, name",
        [
            (3, [((1, 0, 0), 1), ((0, 0, 2), 1)], "x2"),
            (3, [((0, 0, 0), 4), ((2, 0, 1), 1)], "x2"),
            (4, [((1, 1, 0, 0), 1), ((0, 3, 0, 1), 2)], "x3"),
            (2, [], "x1"),
        ],
    )
    def test_first_unbounded_variable_is_named(self, n, constraints, name):
        message = rf"^unbounded staircase: no constraint bounds variable {name}$"
        with pytest.raises(ValueError, match=message):
            custom_staircase(n, constraints)


class TestDerivedRows:
    def test_rows_summarize_the_weighted_constraints(self):
        model = custom_staircase(3, [((0, 0, 0), 2), ((1, 2, 2), 5), ((0, 3, 0), 1)])
        # (s, W, S, i): the zero row is left out, and the tie at W = 2 keeps i = 1
        assert model.rows == ((5, 2, 5, 1), (1, 3, 3, 1))

    def test_rows_stay_out_of_equality_hash_and_repr(self):
        model = custom_staircase(2, [((0, 0), 4), ((2, 1), 3)])
        tampered = custom_staircase(2, [((0, 0), 4), ((2, 1), 3)])
        object.__setattr__(tampered, "rows", ())
        assert tampered == model and hash(tampered) == hash(model)
        assert repr(tampered) == repr(model) == (
            "SectionModel(n=2, constraints=(((0, 0), 4), ((2, 1), 3)), "
            "label='custom staircase', kind='custom', params=())"
        )
        # equal rows do not make equal models: the constraints decide
        assert custom_staircase(2, [((2, 1), 3)]).rows == model.rows
        assert custom_staircase(2, [((2, 1), 3)]) != model

    def test_rows_cannot_be_set(self):
        with pytest.raises(TypeError):
            SectionModel(1, (((1,), 1),), rows=((1, 1, 1, 0),))
        with pytest.raises(FrozenInstanceError):
            projective_space(2).rows = ()


class TestScaledModel:
    def test_scaled_simplex(self):
        model = scaled_model(projective_space(2), 2)
        assert attained(model, 1, 4) == {
            a for a in itertools.product(range(3), repeat=2) if sum(a) <= 2
        }

    def test_identity_scale(self):
        model = projective_space(3)
        assert scaled_model(model, 1) is model


@st.composite
def small_models(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return projective_space(draw(st.integers(1, 3)))
    if choice == 1:
        return product_projective(
            draw(st.integers(1, 2)),
            draw(st.integers(1, 2)),
            draw(st.integers(1, 3)),
            draw(st.integers(1, 3)),
        )
    n = draw(st.integers(1, 2))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=2,
        )
    )
    # ensure every variable is bounded
    rows.append(((1,) * n, draw(st.integers(1, 3))))
    return custom_staircase(n, rows)


class TestModelInvariants:
    # each test asks `attains` over the explicit box [0, 6]^n
    @given(model=small_models(), m=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_downward_closure(self, model, m):
        points = attained(model, m, 6)
        # one step down from every attained point is enough: the steps compose
        for a in points:
            for i, x in enumerate(a):
                if x > 0:
                    assert a[:i] + (x - 1,) + a[i + 1 :] in points

    @given(
        model=small_models(),
        m1=st.integers(1, 6),
        m2=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_minkowski_superadditivity(self, model, m1, m2, data):
        a = data.draw(st.sampled_from(sorted(attained(model, m1, 6))))
        b = data.draw(st.sampled_from(sorted(attained(model, m2, 6))))
        combined = tuple(x + y for x, y in zip(a, b))
        assert model.attains(combined, m1 + m2)

    @given(model=small_models(), m=st.integers(1, 11))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_degree(self, model, m):
        assert attained(model, m, 6) <= attained(model, m + 1, 6)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            projective_space(3),
            product_projective(1, 2, 2, 3),
            custom_staircase(2, [((2, 1), 1)]),
            scaled_model(projective_space(2), 3),
        ],
    )
    def test_round_trip_preserves_membership(self, model):
        config = model.to_config()
        rebuilt = model_from_config(json.loads(json.dumps(config)))
        assert rebuilt.n == model.n
        for m in (1, 4):
            for a in itertools.product(range(14), repeat=model.n):
                assert rebuilt.attains(a, m) == model.attains(a, m)
        assert rebuilt.to_config() == config

    def test_tuple_constraints_round_trip(self):
        config = {"kind": "custom", "n": 2, "constraints": (((2, 1), 1), ((0, 1), 1))}
        model = model_from_config(config)
        assert model.to_config() == {
            "kind": "custom",
            "n": 2,
            "constraints": [[[2, 1], 1], [[0, 1], 1]],
        }
        assert model_from_config(model.to_config()).to_config() == model.to_config()

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "pn", "n": 2.9},
            {"kind": "pn", "n": True},
            {"kind": "product", "n1": 1, "n2": "1", "c": 1, "d": 1},
            {"kind": "custom", "n": 1, "constraints": [[[1], 2.5]]},
            {"kind": "custom", "n": 1, "constraints": [[[1.0], 2]]},
            {"kind": "custom", "n": 2, "constraints": [[[1, False], 2], [[0, 1], 1]]},
        ],
    )
    def test_non_integer_fields_rejected(self, config):
        with pytest.raises(ValueError, match="must be an integer"):
            model_from_config(config)

    def test_non_iterable_constraints_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"kind": "custom", "n": 2, "constraints": 5})
        with pytest.raises(ValueError):
            custom_staircase(2, 5)

    def test_spec_shorthands(self):
        assert model_from_spec("pn:2").to_config() == {"kind": "pn", "n": 2}
        assert model_from_spec("product:1,1,2,3").to_config() == {
            "kind": "product",
            "n1": 1,
            "n2": 1,
            "c": 2,
            "d": 3,
        }
        inline = model_from_spec('{"kind": "custom", "n": 1, "constraints": [[[2], 1]]}')
        assert inline.attains((3,), 6) and not inline.attains((4,), 6)

    @pytest.mark.parametrize(
        "spec", ["pn:1_0", "pn:\u0662", "pn:", "pn:2.0", "product:1,1,2,3_0", "product:1,1,\u00b2,3"]
    )
    def test_shorthands_take_ascii_digits_only(self, spec):
        with pytest.raises(ValueError, match="must be an integer"):
            model_from_spec(spec)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"kind": "pn"}, "n"),
            ({"kind": "product", "n1": 1, "c": 1, "d": 1}, "n2"),
            ({"kind": "custom", "constraints": [[[1], 1]]}, "n"),
            ({"kind": "custom", "n": 1}, "constraints"),
        ],
    )
    def test_missing_key_named(self, config, key):
        with pytest.raises(ValueError, match=rf"^missing model key '{key}'$"):
            model_from_config(config)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"kind": "mystery"})
        with pytest.raises(ValueError):
            model_from_spec("weird:1")


class TestSizeLimit:
    """A model of more than WORK_LIMIT weights (n times its constraints) is refused unbuilt."""

    def test_at_the_limit_the_model_builds(self):
        assert WORK_LIMIT == 10**6
        row = ((1,) * 1000, 1)
        assert custom_staircase(1000, [row] * 1000).n == 1000
        with pytest.raises(ValueError, match=r"^the model would hold 1001 x 1000 constraint"):
            custom_staircase(1000, [row] * 1001)

    def test_boundary_of_each_constructor(self, monkeypatch):
        monkeypatch.setattr(models, "WORK_LIMIT", 12)
        assert projective_space(12).n == 12
        assert product_projective(3, 3, 1, 2).n == 6
        assert SectionModel(4, (((1,) * 4, 1),) * 3).n == 4
        for call, estimate in [
            (lambda: projective_space(13), "1 x 13"),
            (lambda: product_projective(3, 4, 1, 2), "2 x 7"),
            (lambda: SectionModel(4, (((1,) * 4, 1),) * 4), "4 x 4"),
        ]:
            with pytest.raises(ValueError, match=rf"^the model would hold {estimate} constraint"):
                call()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: projective_space(10**18),
            lambda: product_projective(1, 10**18, 1, 1),
            lambda: model_from_config({"kind": "pn", "n": 10**18}),
            lambda: model_from_config({"kind": "custom", "n": 10**18, "constraints": [[[1], 1]]}),
        ],
        ids=["pn", "product", "pn-config", "custom-config"],
    )
    def test_refused_before_any_tuple_is_built(self, build):
        # (1,) * 10**18 cannot be built, so only a refusal made first returns at all
        message = r"^the model would hold \d+ x \d+ constraint weights, over the work limit of "
        with pytest.raises(ValueError, match=message):
            build()

    def test_type_errors_come_first(self):
        with pytest.raises(ValueError, match=r"^n must be an integer, got 1e\+18$"):
            projective_space(1e18)
        with pytest.raises(ValueError, match=r"^d must be an integer, got 'x'$"):
            product_projective(10**18, 1, 1, "x")
