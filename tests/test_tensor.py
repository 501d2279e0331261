"""Tensor calculus against hand and finite-difference oracles."""

import itertools
import math
import sys

import numpy as np
import pytest

from sasaki_lab import exprlang as el
from sasaki_lab import manifold
from sasaki_lab import numkernel as nk
from sasaki_lab import tensor as tn
from sasaki_lab.manifold import (
    Atlas, Chart, PointEnv, SamplePlan, TransitionMap, TransitionPiece,
)
from sasaki_lab import report
from sasaki_lab.report import run_residual_check

from pointwise import alone, point, report_bytes


def r3_atlas():
    return Atlas([Chart("O", ("x", "p", "z"), ((-1.0, 1.0),) * 3)])


def r2_atlas():
    return Atlas([Chart("O", ("x", "y"), ((-1.0, 1.0),) * 2)])


ENV3 = {"x": 0.3, "p": -0.5, "z": 0.7}
ENV2 = {"x": 0.4, "y": -0.2}


def eta_field(atlas):
    """The flat contact form dz - p dx."""
    return tn.TensorField.from_exprs(
        "eta", atlas, (0, 1), {"O": {(0,): "-p", (2,): "1"}}
    )


class TestEvaluation:
    def test_sparse_exprs_fill_dense(self):
        eta = eta_field(r3_atlas())
        assert _leaf_values(eta.at("O", ENV3)) == [0.5, 0.0, 1.0]

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            tn.TensorField.from_exprs("bad", r3_atlas(), (0, 1), {"O": {(0, 1): "1"}})
        with pytest.raises(ValueError):
            tn.TensorField.from_exprs("bad", r3_atlas(), (0, 1), {"O": {(9,): "1"}})

    def test_symmetry_mirroring(self):
        g = tn.TensorField.from_exprs(
            "g", r2_atlas(), (0, 2), {"O": {(0, 1): "x"}}, symmetry="sym"
        )
        m = g.at("O", ENV2)
        assert m[0][1] == m[1][0] == 0.4
        w = tn.TensorField.from_exprs(
            "w", r2_atlas(), (0, 2), {"O": {(0, 1): "x"}}, symmetry="anti"
        )
        m = w.at("O", ENV2)
        assert m[0][1] == 0.4 and m[1][0] == -0.4


class TestJet:
    def test_jet_matches_fd(self):
        f = tn.TensorField.from_exprs(
            "f", r2_atlas(), (0, 1), {"O": {(0,): "sin(x)*y", (1,): "x^2"}}
        )
        chart = f.atlas.chart("O")
        vals, parts = tn.field_jet(f, "O", ENV2)
        h = 1e-6
        for i, c in enumerate(("x", "y")):
            up = dict(ENV2)
            dn = dict(ENV2)
            up[c] += h
            dn[c] -= h
            fd = [
                (a - b) / (2 * h)
                for a, b in zip(f.at("O", up), f.at("O", dn))
            ]
            for got, want in zip(parts[i], fd):
                assert abs(got - want) < 1e-8


class TestExteriorDerivative:
    def test_d_eta_is_dx_wedge_dp(self):
        """d(dz − p dx) = dx∧dp: components (x,p) = +1, (p,x) = −1."""
        eta = eta_field(r3_atlas())
        deta = tn.exterior_derivative(eta)
        m = deta.at("O", ENV3)
        want = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert _leaf_values(m) == want

    def test_d_of_scalar_is_gradient(self):
        s = tn.TensorField.from_exprs("s", r2_atlas(), (0, 0), {"O": {(): "x^2*y"}})
        ds = tn.exterior_derivative(s)
        got = ds.at("O", ENV2)
        assert got[0] == pytest.approx(2 * 0.4 * -0.2)
        assert got[1] == pytest.approx(0.4**2)

    def test_d_squared_is_zero(self):
        """d² = 0 needs second derivatives: nested dual sweeps."""
        alpha = tn.TensorField.from_exprs(
            "alpha",
            r3_atlas(),
            (0, 1),
            {"O": {(0,): "sin(p*z)", (1,): "x*z^2", (2,): "exp(x)"}},
        )
        dda = tn.exterior_derivative(tn.exterior_derivative(alpha))
        assert tn.max_abs(dda.at("O", ENV3)) < 1e-12


class TestLieBracket:
    def test_hand_case(self):
        """[x∂y, y∂x] = x∂x − y∂y."""
        X = tn.TensorField.from_exprs("X", r2_atlas(), (1, 0), {"O": {(1,): "x"}})
        Y = tn.TensorField.from_exprs("Y", r2_atlas(), (1, 0), {"O": {(0,): "y"}})
        b = tn.lie_bracket(X, Y).at("O", ENV2)
        assert b[0] == pytest.approx(ENV2["x"])
        assert b[1] == pytest.approx(-ENV2["y"])

    def test_antisymmetry(self):
        X = tn.TensorField.from_exprs(
            "X", r2_atlas(), (1, 0), {"O": {(0,): "sin(y)", (1,): "x*y"}}
        )
        Y = tn.TensorField.from_exprs(
            "Y", r2_atlas(), (1, 0), {"O": {(0,): "x^2", (1,): "cos(x)"}}
        )
        ab = tn.lie_bracket(X, Y).at("O", ENV2)
        ba = tn.lie_bracket(Y, X).at("O", ENV2)
        for u, v in zip(ab, ba):
            assert abs(u + v) < 1e-12


class TestLieDerivative:
    def test_cartan_magic_formula(self):
        """L_X α = i_X dα + d(i_X α) for a 1-form — independent oracle."""
        atlas = r3_atlas()
        X = tn.TensorField.from_exprs(
            "X", atlas, (1, 0), {"O": {(0,): "p", (1,): "z*x", (2,): "1"}}
        )
        alpha = tn.TensorField.from_exprs(
            "alpha", atlas, (0, 1), {"O": {(0,): "z^2", (1,): "x", (2,): "p*x"}}
        )
        lhs = tn.lie_derivative(alpha, X).at("O", ENV3)

        da = tn.exterior_derivative(alpha)

        def ixda(env):
            m = da.at("O", env)
            xv = X.at("O", env)
            return [nk.sum_(m[i][j] * xv[i] for i in range(3)) for j in range(3)]

        def ixa(chart, env):
            av = alpha.at("O", env)
            xv = X.at("O", env)
            return nk.sum_(a * b for a, b in zip(av, xv))

        ixa_field = tn.TensorField("ixa", atlas, (0, 0), ixa)
        dixa = tn.exterior_derivative(ixa_field).at("O", ENV3)
        first = ixda(ENV3)
        for a, b, c in zip(lhs, first, dixa):
            assert abs(a - (b + c)) < 1e-10

    def test_lie_derivative_of_metric_along_rotation(self):
        """Euclidean metric is invariant under the rotation field −y∂x+x∂y."""
        atlas = r2_atlas()
        g = tn.TensorField.from_exprs(
            "g", atlas, (0, 2), {"O": {(0, 0): "1", (1, 1): "1"}}
        )
        rot = tn.TensorField.from_exprs(
            "rot", atlas, (1, 0), {"O": {(0,): "-y", (1,): "x"}}
        )
        assert tn.max_abs(tn.lie_derivative(g, rot).at("O", ENV2)) < 1e-14
        # and a scaling field does NOT preserve it: L_{x∂x}(dx²) = 2dx²
        scale = tn.TensorField.from_exprs("sc", atlas, (1, 0), {"O": {(0,): "x"}})
        m = tn.lie_derivative(g, scale).at("O", ENV2)
        assert m[0][0] == pytest.approx(2.0)

    def test_mixed_valence_endomorphism(self):
        """L_X (df ⊗ ∂f): translation-invariant data has zero derivative."""
        atlas = r2_atlas()
        J = tn.TensorField.from_exprs(
            "J", atlas, (1, 1), {"O": {(0, 1): "-1", (1, 0): "1"}}
        )
        X = tn.TensorField.from_exprs("X", atlas, (1, 0), {"O": {(0,): "1"}})
        assert tn.max_abs(tn.lie_derivative(J, X).at("O", ENV2)) == 0.0


def nijenhuis_fd_oracle(J, env, h=1e-6):
    """N(∂a,∂b) via finite differences of the defining bracket formula."""
    chart = J.atlas.chart("O")
    dim = chart.dim

    def jac_of_vec(vec_fn, env):
        out = []
        for i, c in enumerate(chart.coords):
            up, dn = dict(env), dict(env)
            up[c] += h
            dn[c] -= h
            vu, vd = vec_fn(up), vec_fn(dn)
            out.append([(a - b) / (2 * h) for a, b in zip(vu, vd)])
        return out  # out[i][k] = ∂_i v^k

    def bracket(u_fn, v_fn, env):
        uj = jac_of_vec(u_fn, env)
        vj = jac_of_vec(v_fn, env)
        u0, v0 = u_fn(env), v_fn(env)
        return [
            sum(u0[m] * vj[m][k] - v0[m] * uj[m][k] for m in range(dim))
            for k in range(dim)
        ]

    def col(a):
        return lambda e: [J.at("O", e)[k][a] for k in range(dim)]

    out = tn.zeros(dim, 3)
    for a in range(dim):
        for b in range(dim):
            jja = col(a)
            jjb = col(b)
            t1 = bracket(jja, jjb, env)
            ea = lambda e, a=a: [1.0 if k == a else 0.0 for k in range(dim)]
            eb = lambda e, b=b: [1.0 if k == b else 0.0 for k in range(dim)]
            t2 = bracket(jja, eb, env)
            t3 = bracket(ea, jjb, env)
            jm = J.at("O", env)
            for k in range(dim):
                out[k][a][b] = t1[k] - sum(
                    jm[k][m] * (t2[m] + t3[m]) for m in range(dim)
                )
    return out


def reference_nijenhuis(J):
    """`tensor.nijenhuis` as written before ∂_a J^m_b − ∂_b J^m_a was hoisted
    out of the k loop, kept verbatim: the exact oracle of its arithmetic."""

    def components(chart, env):
        dim = chart.dim
        jv, jp = tn.field_jet(J, chart.name, env)
        out = tn.zeros(dim, 3)
        for k in range(dim):
            for a in range(dim):
                for b in range(dim):
                    acc = 0.0
                    for m in range(dim):
                        acc = acc + (
                            jv[m][a] * jp[m][k][b]
                            - jv[m][b] * jp[m][k][a]
                            - jv[k][m] * (jp[a][m][b] - jp[b][m][a])
                        )
                    out[k][a][b] = acc
        return out

    return tn.TensorField(
        f"ref:N({J.name})", J.atlas, (1, 2), components, J.chart_names()
    )


def _dual_levels(chart, coords):
    """A point's env, plain and seeded once and twice (order-1 and order-2
    duals), in that order."""
    env = chart.env(coords)
    _, once = tn._seeded(chart, env)
    _, twice = tn._seeded(chart, once)
    return env, once, twice


class TestNijenhuis:
    def test_constant_complex_structure_integrable(self):
        J = tn.TensorField.from_exprs(
            "J", r2_atlas(), (1, 1), {"O": {(0, 1): "-1", (1, 0): "1"}}
        )
        assert tn.max_abs(tn.nijenhuis(J).at("O", ENV2)) == 0.0

    def test_dim2_j_is_always_integrable(self):
        """Any J with J² = −id on a surface has N ≡ 0 (dim 2 is degenerate)."""
        J = tn.TensorField.from_exprs(
            "J",
            r2_atlas(),
            (1, 1),
            {"O": {(0, 1): "-(1 + x^2)", (1, 0): "1/(1 + x^2)"}},
        )
        assert tn.max_abs(tn.nijenhuis(J).at("O", ENV2)) < 1e-14

    def test_variable_j_matches_fd_oracle_dim4(self):
        """Block J on ℝ⁴ with an x-dependent block: N(∂x,∂u) = (f'/f)∂u.

        f = 1+x², so N^u_{xu} = −2x/(1+x²) — hand oracle — and every
        component must match the finite-difference bracket oracle.
        """
        atlas = Atlas([Chart("O", ("x", "y", "u", "v"), ((-1.0, 1.0),) * 4)])
        J = tn.TensorField.from_exprs(
            "J",
            atlas,
            (1, 1),
            {
                "O": {
                    (0, 1): "-1",
                    (1, 0): "1",
                    (2, 3): "-(1 + x^2)",
                    (3, 2): "1/(1 + x^2)",
                }
            },
        )
        env = {"x": 0.4, "y": -0.2, "u": 0.1, "v": 0.9}
        got = tn.nijenhuis(J).at("O", env)
        f, fp = 1 + 0.4**2, 2 * 0.4
        assert got[2][0][2] == pytest.approx(-fp / f)
        want = nijenhuis_fd_oracle(J, env)
        assert tn.max_abs(got) > 1e-3  # genuinely non-integrable
        for k, a, b in itertools.product(range(4), repeat=3):
            assert abs(got[k][a][b] - want[k][a][b]) < 1e-6

    def test_matches_the_unhoisted_loop_bit_for_bit(self):
        """Leaf for leaf, tangents at every dual level included, on a J with
        no zero entry, with signed zeros and with a NaN entry."""
        atlas = r3_atlas()
        chart = atlas.chart("O")
        tables = [
            {(k, j): f"{k + 1}*sin({k - j}*x + p) + z*p^{j}/{k + j + 2}"
             for k in range(3) for j in range(3)},
            {(0, 1): "-x*z", (1, 0): "1/(1 + p^2)", (2, 2): "-0.0",
             (1, 2): "exp(x)", (2, 0): "0*z"},
        ]
        for n, table in enumerate(tables):
            J = tn.TensorField.from_exprs(f"J{n}", atlas, (1, 1), {"O": table})
            for env in _dual_levels(chart, (0.3, -0.5, 0.7)):
                want = _canon(reference_nijenhuis(J).at("O", env))
                assert _canon(tn.nijenhuis(J).at("O", env)) == want
        nan = tn.TensorField("Jnan", r3_atlas(), (1, 1), lambda chart, env: [
            [env["x"], math.nan, 1.0], [env["p"] * env["z"], 0.0, -0.0],
            [2.0, env["z"], env["x"] * env["p"]],
        ])
        for env in _dual_levels(nan.atlas.chart("O"), (0.3, -0.5, 0.7)):
            want = _canon(reference_nijenhuis(nan).at("O", env))
            assert _canon(tn.nijenhuis(nan).at("O", env)) == want


def test_musical_flat_contracts_second_slot():
    """ω = dx∧dy, X = ∂x: compose(ω, X) = ω(·, ∂x) = −dy. Freezes the slot
    convention of the musical flat."""
    w = tn.TensorField.from_exprs(
        "w", r2_atlas(), (0, 2), {"O": {(0, 1): "1", (1, 0): "-1"}}
    )
    X = tn.TensorField.from_exprs("X", r2_atlas(), (1, 0), {"O": {(0,): "1"}})
    assert _leaf_values(tn.compose(w, X).at("O", ENV2)) == [0.0, -1.0]


class TestPullback:
    def test_polar_map_on_one_form(self):
        """F(r,t) = (r cos t, r sin t): F*(dx) = cos t dr − r sin t dt."""
        polar = Atlas([Chart("P", ("r", "t"), ((0.5, 2.0), (-1.0, 1.0)))])
        cart = r2_atlas()
        F = tn.SmoothMap.from_exprs(
            "F", polar, cart, {"P": ("O", ("r*cos(t)", "r*sin(t)"))}
        )
        dx = tn.TensorField.from_exprs("dx", cart, (0, 1), {"O": {(0,): "1"}})
        got = tn.pullback(F, dx).at("P", {"r": 1.3, "t": 0.4})
        assert got[0] == pytest.approx(np.cos(0.4))
        assert got[1] == pytest.approx(-1.3 * np.sin(0.4))

    def test_polar_map_on_metric(self):
        """F*(dx²+dy²) = dr² + r² dt²."""
        polar = Atlas([Chart("P", ("r", "t"), ((0.5, 2.0), (-1.0, 1.0)))])
        cart = r2_atlas()
        F = tn.SmoothMap.from_exprs(
            "F", polar, cart, {"P": ("O", ("r*cos(t)", "r*sin(t)"))}
        )
        g = tn.TensorField.from_exprs(
            "g", cart, (0, 2), {"O": {(0, 0): "1", (1, 1): "1"}}
        )
        m = tn.pullback(F, g).at("P", {"r": 1.3, "t": 0.4})
        assert m[0][0] == pytest.approx(1.0)
        assert m[0][1] == pytest.approx(0.0, abs=1e-12)
        assert m[1][1] == pytest.approx(1.3**2)

    def test_pullback_tensor_conjugates_endomorphism(self):
        """Linear F = diag(2,1/2) acting on J=[[0,-1],[1,0]]: A⁻¹JA."""
        src = r2_atlas()
        tgt = Atlas([Chart("O", ("u", "v"), ((-4.0, 4.0),) * 2)])
        F = tn.SmoothMap.from_exprs("F", src, tgt, {"O": ("O", ("2*x", "y/2"))})
        J = tn.TensorField.from_exprs(
            "J", tgt, (1, 1), {"O": {(0, 1): "-1", (1, 0): "1"}}
        )
        got = tn.pullback(F, J).at("O", ENV2)
        # A = diag(2, 1/2); A⁻¹ J A = [[0, -1/4],[4, 0]]
        assert got[0][1] == pytest.approx(-0.25)
        assert got[1][0] == pytest.approx(4.0)

    def test_scalar_pullback_is_composition(self):
        src = r2_atlas()
        tgt = Atlas([Chart("O", ("u", "v"), ((-4.0, 4.0),) * 2)])
        F = tn.SmoothMap.from_exprs("F", src, tgt, {"O": ("O", ("x + y", "x - y"))})
        f = tn.TensorField.from_exprs("f", tgt, (0, 0), {"O": {(): "u*v"}})
        got = tn.pullback(F, f).at("O", ENV2)
        assert got == pytest.approx((0.4 - 0.2) * (0.4 + 0.2))

    def test_vector_along_an_embedding_fails_when_built(self):
        """Contravariant slots need the inverse Jacobian: a 2 -> 3 map is
        refused, by name, before any evaluation; covariant slots are not."""
        F = tn.SmoothMap.from_exprs(
            "cone_embedding", r2_atlas(), r3_atlas(),
            {"O": ("O", ("x*cos(y)", "x*sin(y)", "x"))},
        )
        X = tn.TensorField.from_exprs("X", r3_atlas(), (1, 0), {"O": {(0,): "z"}})
        with pytest.raises(ValueError, match="'cone_embedding'.*maps 2 coordinates to 3"):
            tn.pullback(F, X)
        g = tn.TensorField.from_exprs(
            "g", r3_atlas(), (0, 2), {"O": {(0, 0): "1", (1, 1): "1", (2, 2): "1"}}
        )
        m = tn.pullback(F, g).at("O", ENV2)  # the cone metric dx² + x² dy²
        assert m[0][0] == pytest.approx(2.0)
        assert m[1][1] == pytest.approx(0.4**2)


class TestCrossChart:
    @staticmethod
    def single_valued(T, sign_fn=None):
        """T's chart data agree: the driver over `field_overlaps(T)`."""
        return run_residual_check(
            f"single_valued({T.name})", tn.field_overlaps(T),
            tn.single_valued(T, sign_fn), SamplePlan(points_per_chart=8),
        )

    def make_atlas(self):
        a = Chart("A", ("x",), ((0.0, 1.0),))
        b = Chart("B", ("x",), ((0.0, 2.0),))
        t = TransitionMap(
            "A",
            "B",
            (TransitionPiece(((0.0, 1.0),), (el.parse("2*x"),), (el.parse("x/2"),)),),
        )
        return Atlas([a, b], [t])

    def test_consistent_vector_field_passes(self):
        atlas = self.make_atlas()
        # v = ∂x on A pushes to 2∂x' under x' = 2x
        v = tn.TensorField.from_exprs(
            "v", atlas, (1, 0), {"A": {(0,): "1"}, "B": {(0,): "2"}}
        )
        rep = self.single_valued(v)
        assert rep.verdict == "pass"

    def test_inconsistent_form_fails(self):
        atlas = self.make_atlas()
        alpha = tn.TensorField.from_exprs(
            "alpha", atlas, (0, 1), {"A": {(0,): "1"}, "B": {(0,): "1"}}
        )
        rep = self.single_valued(alpha)
        assert rep.verdict == "fail" and rep.witness is not None

    def test_sign_fn_allows_paired_data(self):
        atlas = self.make_atlas()
        # B-side stores MINUS the transported form; sign_fn −1 repairs it
        alpha = tn.TensorField.from_exprs(
            "alpha", atlas, (0, 1), {"A": {(0,): "1"}, "B": {(0,): "-0.5"}}
        )
        rep = self.single_valued(alpha, sign_fn=lambda t, piece: -1.0)
        assert rep.verdict == "pass"

    def test_nan_components_fail_with_a_nan_witness(self):
        atlas = self.make_atlas()
        # consistent where x' > 1.5, NaN (1/(0*inf)) where x' < 1.5
        v = tn.TensorField.from_exprs("v", atlas, (1, 0), {
            "A": {(0,): "1"},
            "B": {(0,): "2 + 1 / ((1 + sgn(x - 1.5)) * 1e400)"},
        })
        rep = self.single_valued(v)
        assert rep.verdict == "fail" and math.isnan(rep.max_residual)
        assert math.isnan(rep.witness.residual)
        assert rep.witness.coords[0] < 0.75  # a point mapped below x' = 1.5


def test_field_algebra_helpers():
    atlas = r2_atlas()
    a = tn.TensorField.from_exprs("a", atlas, (0, 1), {"O": {(0,): "1"}})
    b = tn.TensorField.from_exprs("b", atlas, (0, 1), {"O": {(1,): "1"}})
    J = tn.TensorField.from_exprs(  # X ⊗ b with X = 2∂x: maps ∂y ↦ 2∂x
        "J", atlas, (1, 1), {"O": {(0, 1): "2"}}
    )
    assert _leaf_values(tn.compose(J, tn.TensorField.from_exprs(
        "Y", atlas, (1, 0), {"O": {(1,): "1"}}
    )).at("O", ENV2)) == [2.0, 0.0]
    s = tn.tf_add(a, b)
    assert _leaf_values(s.at("O", ENV2)) == [1.0, 1.0]
    sc = tn.tf_combine("x·a", (0, 1), [a], lambda cs, env: [env["x"] * v for v in cs[0]])
    assert _leaf_values(sc.at("O", ENV2)) == [0.4, 0.0]


# -- the field algebra -------------------------------------------------

ENV_EXACT = {"x": 0.5, "y": -0.25}  # every product below is exact


def _field(name, valence, comps):
    """A field with the given component function of (x, y) on the plane."""
    return tn.TensorField(
        name, r2_atlas(), valence, lambda chart, env: comps(env["x"], env["y"])
    )


def test_compose_contracts_last_slot_with_first():
    A = _field("A", (1, 1), lambda x, y: [[1.0, x], [0.0, 2.0]])
    B = _field("B", (1, 1), lambda x, y: [[0.0, 1.0], [y, 3.0]])
    eta = _field("eta", (0, 1), lambda x, y: [x, 1.0])
    X = _field("X", (1, 0), lambda x, y: [2.0, y])
    AB = tn.compose(A, B)
    assert AB.valence == (1, 1)
    assert _leaf_values(AB.at("O", ENV_EXACT)) == [[-0.125, 2.5], [-0.5, 6.0]]
    eta_B = tn.compose(eta, B)  # η_m B^m_j
    assert eta_B.valence == (0, 1)
    assert _leaf_values(eta_B.at("O", ENV_EXACT)) == [-0.25, 3.5]
    X_eta = tn.compose(X, eta)  # X^m η_m
    assert X_eta.valence == (0, 0)
    assert X_eta.at("O", ENV_EXACT) == 0.75


def test_congruence_pulls_both_slots_through_J():
    b = _field("b", (0, 2), lambda x, y: [[1.0, x], [0.0, y]])
    J = _field("J", (1, 1), lambda x, y: [[0.0, -1.0], [1.0, 0.0]])
    bJJ = tn.congruence(b, J)  # b(J e_i, J e_j), J e_0 = e_1, J e_1 = −e_0
    assert bJJ.valence == (0, 2)
    assert _leaf_values(bJJ.at("O", ENV_EXACT)) == [[-0.25, 0.0], [-0.5, 1.0]]


def test_identity_is_the_unit_of_compose():
    J = _field("J", (1, 1), lambda x, y: [[x, -1.0], [1.0, y]])
    one = tn.identity(r2_atlas())
    assert _leaf_values(one.at("O", ENV_EXACT)) == [[1.0, 0.0], [0.0, 1.0]]
    assert tn.compose(J, one).at("O", ENV_EXACT) == J.at("O", ENV_EXACT)


def test_agreeing_scales_its_second_field():
    T = _field("T", (1, 0), lambda x, y: [1.0, 2.0])
    S = _field("S", (1, 0), lambda x, y: [-1.0, -2.0])
    nan = _field("nan", (1, 0), lambda x, y: [5.0, math.nan])
    assert tn.agreeing((T, S, -1.0))("O", ENV_EXACT) == 0.0
    assert tn.agreeing((T, T, -1.0))("O", ENV_EXACT) == 4.0
    assert tn.agreeing((T, S))("O", ENV_EXACT) == 4.0  # c is 1
    assert tn.agreeing((T, S, 0.5))("O", ENV_EXACT) == 3.0
    # a NaN component wins over a larger finite one, in any pair
    assert math.isnan(tn.agreeing((nan, T, -1.0))("O", ENV_EXACT))
    assert math.isnan(
        tn.agreeing((T, T, 100.0), (T, nan, -2.0))("O", ENV_EXACT)
    )


# -- per-point evaluation memo ----------------------------------------


def _leaf_values(s):
    return tn.map_structure(nk.value_of, s)


def _vector_times_form(alpha, X):
    """X ⊗ α as an endomorphism: M^k_j = X^k α_j."""
    return tn.tf_combine(
        f"{alpha.name}⊗{X.name}", (1, 1), [alpha, X],
        lambda cs, env: [[x * a for a in cs[0]] for x in cs[1]],
    )


def _sym2(a, b):
    """a⊗b + b⊗a."""

    def fn(cs, env):
        av, bv = cs
        n = range(len(av))
        return [[av[i] * bv[j] + bv[i] * av[j] for j in n] for i in n]

    return tn.tf_combine(f"sym({a.name},{b.name})", (0, 2), [a, b], fn)


def _solved_structure():
    """A nonlinear contact form, its solved Reeb field and ξ⊗η on R³."""
    from sasaki_lab.contact import ContactStructure, reeb_field

    atlas = r3_atlas()
    eta = tn.TensorField.from_exprs(
        "eta_wavy", atlas, (0, 1),
        {"O": {(0,): "-p", (1,): "0.2*sin(x*z)", (2,): "1 + 0.1*x^2"}},
    )
    xi = reeb_field(ContactStructure("wavy", atlas, eta))
    return atlas, eta, xi, _vector_times_form(eta, xi)


def _counted(T, calls):
    """T with every raw evaluation recorded in `calls`."""
    def counted(chart, env):
        calls.append(env)
        return T.components(chart, env)

    return tn.TensorField(T.name, T.atlas, T.valence, counted, T.chart_names())


class TestPointMemo:
    def sample_env(self):
        chart = r3_atlas().chart("O")
        return chart.env((0.3, -0.5, 0.7))

    def test_memoized_first_and_second_derivative_fields_match_plain_dict(self):
        atlas, eta, xi, J = _solved_structure()
        X = tn.TensorField.from_exprs(
            "X", atlas, (1, 0), {"O": {(0,): "z", (1,): "x*p"}}
        )
        first = tn.lie_bracket(X, xi)
        second = tn.nijenhuis(J)
        dd = tn.exterior_derivative(tn.exterior_derivative(tn.compose(
            _sym2(eta, eta), xi)))
        for T in (first, second, dd):
            env = self.sample_env()
            assert isinstance(env, PointEnv)
            raw = T.at("O", dict(env))
            assert _leaf_values(T.at("O", env)) == _leaf_values(raw)
            assert _leaf_values(T.at("O", env)) == _leaf_values(raw)  # from memo
            vals, parts = tn.field_jet(T, "O", env)
            rvals, rparts = tn.field_jet(T, "O", dict(env))
            assert _leaf_values(vals) == _leaf_values(rvals)
            assert _leaf_values(parts) == _leaf_values(rparts)
        assert tn.max_abs(second.at("O", self.sample_env())) > 1e-3
        assert tn.max_abs(dd.at("O", self.sample_env())) < 1e-12

    def test_each_field_evaluated_once_per_point(self):
        atlas, eta, _, _ = _solved_structure()
        calls = []
        counted_eta = _counted(eta, calls)
        from sasaki_lab.contact import ContactStructure, reeb_field

        xi = reeb_field(ContactStructure("wavy", atlas, counted_eta))
        N = tn.nijenhuis(_vector_times_form(counted_eta, xi))
        env = self.sample_env()
        N.at("O", env)
        N.at("O", env)
        tn.lie_bracket(xi, xi).at("O", env)
        counted_eta.at("O", env)
        counted_eta.at("O", env)
        # once per differentiation level: value, first and second jets
        assert len(calls) == 3
        calls.clear()
        N.at("O", {"x": 0.3, "p": -0.5, "z": 0.7})
        N.at("O", {"x": 0.3, "p": -0.5, "z": 0.7})
        assert len(calls) == 4  # plain dicts keep nothing: both jets twice

    def test_distinct_points_never_share_entries(self):
        atlas, eta, xi, J = _solved_structure()
        calls = []
        counted = _counted(tn.nijenhuis(J), calls)
        chart = atlas.chart("O")
        a = chart.env((0.3, -0.5, 0.7))
        b = chart.env((0.3, -0.5, 0.7))  # same coordinates, another point
        c = chart.env((-0.2, 0.1, 0.4))
        got = [counted.at("O", e) for e in (a, b, c)]
        assert len(calls) == 3
        assert a.memo is not b.memo
        assert not set(map(id, a.memo.values())) & set(map(id, b.memo.values()))
        assert _leaf_values(got[0]) == _leaf_values(got[1])
        assert _leaf_values(got[2]) == _leaf_values(
            tn.nijenhuis(J).at("O", {"x": -0.2, "p": 0.1, "z": 0.4})
        )

    def test_mutating_returned_structures_changes_nothing(self):
        atlas, eta, xi, J = _solved_structure()
        N = tn.nijenhuis(J)
        env = self.sample_env()
        want = _leaf_values(N.at("O", env))
        got = N.at("O", env)
        assert N.at("O", env) is got  # the kept structure itself
        with pytest.raises(TypeError):
            got[0][0][1] = 99.0
        with pytest.raises(TypeError):
            got[1] = None
        assert _leaf_values(N.at("O", env)) == want
        vals, parts = tn.field_jet(J, "O", env)
        want_vals, want_parts = _leaf_values(vals), _leaf_values(parts)
        vals[0][0] = 99.0
        parts[2][1][1] = 99.0
        again_vals, again_parts = tn.field_jet(J, "O", env)
        assert _leaf_values(again_vals) == want_vals
        assert _leaf_values(again_parts) == want_parts
        assert _leaf_values(J.at("O", env)) == want_vals

    def test_point_env_is_read_only(self):
        env = self.sample_env()
        with pytest.raises(TypeError):
            env["x"] = 1.0
        with pytest.raises(TypeError):
            env.update(x=1.0)
        copy = dict(env)
        copy["x"] = 1.0
        assert env["x"] == 0.3 and not isinstance(copy, PointEnv)

    def test_sample_envs_released_after_a_check(self):
        import gc
        import weakref

        from sasaki_lab.report import run_residual_check

        atlas, _, _, J = _solved_structure()
        N = tn.nijenhuis(J)
        seen = []

        def residual(chart, env):
            seen.append(weakref.ref(env))
            return tn.max_abs(N.at(chart, env))

        plan = SamplePlan(seed=42, points_per_chart=4, tolerance=10.0)
        rep = run_residual_check("memo_release", atlas, residual, plan)
        assert rep.samples == 4 and len(seen) == 1  # the chart's batch env
        gc.collect()
        assert all(ref() is None for ref in seen)


def _bindings(obj):
    """(module, name) of every binding of `obj` in the package's modules."""
    return [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name.startswith("sasaki_lab.")
        for name, value in vars(mod).items() if value is obj
    ]


def _holds_a_list(s):
    return isinstance(s, list) or (
        isinstance(s, tuple) and any(_holds_a_list(x) for x in s))


@pytest.mark.parametrize(
    "key", ["main1-family", "mobius-jet", "mobius-cotangent", "product-darboux"]
)
def test_gallery_evaluates_only_at_point_envs(key, monkeypatch, capsys):
    """No gallery check hands `at` or `field_jet` a plain mapping, the
    envs its constructions derive included, and every structure `at`
    hands out is frozen to its leaves."""
    from sasaki_lab.cli import main

    at, jet = tn.TensorField.at, tn.field_jet
    plain, unfrozen = [], []

    def recording_at(self, chart, env):
        if not isinstance(env, PointEnv):
            plain.append(("at", self.name, chart))
        out = at(self, chart, env)
        if _holds_a_list(out):
            unfrozen.append((self.name, chart))
        return out

    def recording_jet(T, chart, env):
        if not isinstance(env, PointEnv):
            plain.append(("field_jet", T.name, chart))
        return jet(T, chart, env)

    monkeypatch.setattr(tn.TensorField, "at", recording_at)
    for mod, name in _bindings(jet):
        monkeypatch.setattr(mod, name, recording_jet)
    assert main(["verify", key, "--samples", "2"]) == 0
    capsys.readouterr()
    assert plain == []
    assert unfrozen == []


# -- the one-walk jet split -------------------------------------------


def _unpack_by_map_structure(out, tag, dim):
    """The jet unpacking field_jet used to do: one walk per output."""
    vals = tn.map_structure(lambda v: nk.value_at(v, tag), out)
    parts = [
        tn.map_structure(lambda v, i=i: nk.tangent_at(v, tag, i), out)
        for i in range(dim)
    ]
    return vals, parts


def _canon(s):
    """Shape, dual levels and the repr of every leaf."""
    if isinstance(s, (list, tuple)):
        return [_canon(x) for x in s]
    if isinstance(s, nk.DScalar):
        return ("dual", s.tag, _canon(s.val), tuple(_canon(t) for t in s.tg))
    return repr(s)


RANKED_FIELDS = {
    0: ((0, 0), {(): "x*sin(p) + z^2"}),
    1: ((0, 1), {(0,): "-p", (2,): "1", (1,): "exp(x*z)"}),
    2: ((1, 1), {(0, 1): "x*p", (2, 0): "cos(z)", (1, 1): "-0.0"}),
    3: ((1, 2), {(0, 1, 2): "x*z", (2, 0, 1): "sin(p)", (1, 1, 1): "2"}),
}


class TestJetSplit:
    @pytest.mark.parametrize("rank", sorted(RANKED_FIELDS))
    def test_split_matches_map_structure_unpacking(self, rank):
        valence, table = RANKED_FIELDS[rank]
        T = tn.TensorField.from_exprs(f"T{rank}", r3_atlas(), valence, {"O": table})
        chart = T.atlas.chart("O")
        env = chart.env((0.3, -0.5, 0.7))
        tag, dual_env = tn._seeded(chart, env)
        want = _canon(_unpack_by_map_structure(T.at("O", dual_env), tag, 3))
        assert _canon(tn.field_jet(T, "O", env)) == want
        # a jet inside a jet: leaves are duals of the outer level over the
        # inner one, and inner-level constants stay untouched
        tag2, dual2 = tn._seeded(chart, dual_env)
        want2 = _canon(_unpack_by_map_structure(T.at("O", dual2), tag2, 3))
        assert _canon(tn.field_jet(T, "O", dual_env)) == want2

    @pytest.mark.parametrize("rank", sorted(RANKED_FIELDS))
    def test_writing_into_a_split_changes_no_later_result(self, rank):
        valence, table = RANKED_FIELDS[rank]
        T = tn.TensorField.from_exprs(f"T{rank}", r3_atlas(), valence, {"O": table})
        env = T.atlas.chart("O").env((0.3, -0.5, 0.7))
        want = _canon(tn.field_jet(T, "O", env))
        vals, parts = tn.field_jet(T, "O", env)
        parts[0] = 99.0
        if rank:
            vals[0] = 99.0
            parts[1][0] = 99.0
            parts[2].clear()
        assert _canon(tn.field_jet(T, "O", env)) == want
        assert _canon(T.at("O", env)) == want[0]
        if rank >= 2:
            with pytest.raises(TypeError):
                T.at("O", env)[0][0] = 99.0  # a nested row of the value memo
            assert _canon(T.at("O", env)) == want[0]


def test_zeros_gives_every_row_its_own_list():
    out = tn.zeros(5, 3)
    assert _canon(out) == [[["0.0"] * 5] * 5] * 5
    out[1][2][3] = 1.0
    assert tn.max_abs(out) == 1.0 and tn.max_abs(out[0]) == tn.max_abs(out[1][1]) == 0.0
    assert tn.zeros(4, 0) == 0.0 and tn.zeros(4, 1) == [0.0] * 4


# -- the bit-for-bit pullback oracle ----------------------------------


def reference_pullback(F, T):
    """`tensor.pullback` as written before partial products were shared,
    kept verbatim: every output index walks all of T's components again and
    multiplies each kept term through all of its factors."""
    p, q = T.valence
    rank = p + q

    def components(chart, env):
        dim = chart.dim
        tgt_chart = F.pieces[chart.name][0]
        vals, jac = F.jet(chart.name, env)
        tv = T.at(tgt_chart, T.atlas.chart(tgt_chart).env(vals))
        if rank == 0:
            return tv
        m = len(jac)
        # factors[r][i][j]: what slot r's input index j contributes to output i
        factors = []
        if p:
            # columns of the inverse Jacobian: solve A X = I
            ident = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
            inv = nk.solve_linear(jac, ident)  # inv[a][j] = (A^{-1})^a_j
            factors += [inv] * p
        factors += [[[jac[j][i] for j in range(m)] for i in range(dim)]] * q
        out = tn.zeros(dim, rank)
        for idx in itertools.product(range(dim), repeat=rank):
            rows = [factors[r][i] for r, i in enumerate(idx)]
            acc = 0.0
            for jdx in itertools.product(range(m), repeat=rank):
                term = tn.get_at(tv, jdx)
                if nk.value_of(term) == 0.0 and not isinstance(term, nk.DScalar):
                    continue
                for row, j in zip(rows, jdx):
                    term = term * row[j]
                acc = acc + term
            tn._set(out, idx, acc)
        return out

    return tn.TensorField(f"ref:{F.name}*({T.name})", F.source, (p, q), components,
                          F.pieces)


TARGET = Atlas([Chart("T", ("u", "v", "w"), ((-4.0, 4.0),) * 3)])
# a nonlinear local diffeomorphism of ℝ³ and an embedding ℝ² -> ℝ³
PULL_MAPS = {
    "diffeo": tn.SmoothMap.from_exprs(
        "diffeo", r3_atlas(), TARGET,
        {"O": ("T", ("x + p*z", "p + sin(x)/3", "z*exp(x/2) - x*p"))},
    ),
    "embedding": tn.SmoothMap.from_exprs(
        "embedding", r2_atlas(), TARGET,
        {"O": ("T", ("x*cos(y)", "x*sin(y)", "x*y + y^2/3"))},
    ),
}
PULL_POINTS = {"diffeo": (0.3, -0.5, 0.7), "embedding": (0.4, -0.2)}
ZERO_DUAL = nk.DScalar(0.0, (1.0, -0.5), nk.new_tag())  # value 0, not a plain zero


def _pull_source(valence, special):
    """A field on ℝ³ whose components cycle through 0.0, -0.0, a dual of
    value 0 and smooth functions of the point; `special` puts NaN and inf at
    two of them."""
    rank = sum(valence)

    def leaf(n, u, v, w):
        kind = n % 5
        if special and n in (1, 3):
            return math.nan if n == 1 else -math.inf
        if kind == 0 and rank:
            return 0.0 if n % 2 else -0.0
        if kind == 2:
            return ZERO_DUAL
        return (n + 1) * u * v / 7 + nk.sin((n + 2) * w) - n / 3

    def components(chart, env):
        u, v, w = env["u"], env["v"], env["w"]
        if rank == 0:
            return leaf(1, u, v, w)
        out = tn.zeros(3, rank)
        for n, idx in enumerate(itertools.product(range(3), repeat=rank)):
            tn._set(out, idx, leaf(n, u, v, w))
        return out

    return tn.TensorField(f"T{valence}", TARGET, valence, components)


PULL_CASES = [
    pytest.param(valence, m, id=f"{valence[0]}{valence[1]}-{m}")
    for valence in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0), (1, 2)]
    for m in PULL_MAPS
    if m == "diffeo" or valence[0] == 0  # an embedding takes covariant fields
]


@pytest.mark.parametrize("special", [False, True], ids=["finite", "nan-inf"])
@pytest.mark.parametrize("valence,map_key", PULL_CASES)
def test_pullback_matches_the_per_output_loop_bit_for_bit(valence, map_key, special):
    """Leaf for leaf by repr, tangents at every dual level included: at a
    plain point the factors are floats, at a once- and a twice-seeded point
    the map and the field carry order-1 and order-2 duals."""
    F = PULL_MAPS[map_key]
    T = _pull_source(valence, special)
    chart = F.source.chart("O")
    for env in _dual_levels(chart, PULL_POINTS[map_key]):
        want = _canon(reference_pullback(F, T).at("O", env))
        assert _canon(tn.pullback(F, T).at("O", env)) == want


# -- sample groups: one evaluation per batch, the lone values kept ------


def _steps(u, v, w):
    """Plain leaves that are zero at the points with u < 0 only: the step
    (sgn u + 1)·v, its negation, which gives -0.0 there, and (sgn u + 1)·w
    over a plain constant."""
    step = nk.signum(nk.value_of(u)) + 1.0
    return step * nk.value_of(v), -(step * nk.value_of(v)), step * 0.5


def _partly_zero_source(valence, special):
    """A field on ℝ³ whose plain components are 0.0 or -0.0 at some points
    of a batch only, beside duals and smooth leaves; `special` puts
    0·inf (NaN) at those points and inf at the others."""
    rank = sum(valence)

    def components(chart, env):
        u, v, w = env["u"], env["v"], env["w"]
        steps = _steps(u, v, w)
        if special:
            steps += ((nk.signum(nk.value_of(u)) + 1.0) * math.inf,)
        leaves = [*steps, u * w - v, ZERO_DUAL, nk.sin(v) * 0.0]
        if rank == 0:
            return leaves[0]
        out = tn.zeros(3, rank)
        for n, idx in enumerate(itertools.product(range(3), repeat=rank)):
            tn._set(out, idx, leaves[n % len(leaves)])
        return out

    return tn.TensorField(f"Z{valence}", TARGET, valence, components)


def _group(chart, count, seed=3) -> list:
    """`count` points of `chart`, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-0.9, 0.9, chart.dim).tolist()) for _ in range(count)]


def _levels(chart, points, order):
    """The batch env of `points` and each point's env, seeded `order` times,
    each level one tag that the batch shares with its points."""
    envs = [chart.batch_env(points)] + [chart.env(p) for p in points]
    for _ in range(order):
        tag = nk.new_tag()
        envs = [
            PointEnv(zip(chart.coords, nk.unit_duals([env[c] for c in chart.coords], tag)))
            for env in envs
        ]
    return envs[0], envs[1:]


def at_batch(fn, *args):
    """``fn(*args)`` under the errstate the driver evaluates a batch in."""
    with np.errstate(all="raise", under="ignore"):
        return fn(*args)


@pytest.mark.parametrize("special", [False, True], ids=["finite", "nan-inf"])
@pytest.mark.parametrize("valence,map_key", PULL_CASES)
def test_pullback_over_a_batch_with_zeros_at_some_points(valence, map_key, special):
    """At the batch env of a sample group, at every dual level, a pullback
    whose plain terms are zero at some points only does not take both
    branches at once: it raises (`Unmergeable`, or the signal of 0·inf),
    and the driver evaluates each point on its own, where the points
    with a zero term skip it and the others keep it, as
    `reference_pullback` does.  A scalar is read off, not summed, so its
    batch gives each point by repr the reference's value there."""
    F = PULL_MAPS[map_key]
    T = _partly_zero_source(valence, special)
    chart = F.source.chart("O")
    points = _group(chart, 8)
    us = [nk.value_of(F.jet("O", chart.env(p))[0][0]) for p in points]
    assert min(us) < 0 < max(us)  # the zero pattern differs across the group
    whole = not sum(valence) and not special
    for order in range(3):
        batch, envs = _levels(chart, points, order)
        pulled, reference = tn.pullback(F, T), reference_pullback(F, T)
        want = [_canon(reference.at("O", env)) for env in envs]
        if whole:
            got = at_batch(pulled.at, "O", batch)
            assert [_canon(point(got, i)) for i in range(len(envs))] == want
        else:
            with pytest.raises(nk.Unmergeable if sum(valence) and not special else Exception):
                at_batch(pulled.at, "O", batch)
            assert [_canon(pulled.at("O", PointEnv(env))) for env in envs] == want


def _first_failure(T, envs):
    """(index, exception type, message) of the first env where T fails."""
    for i, env in enumerate(envs):
        try:
            T.at("O", env)
        except Exception as exc:
            return i, type(exc), str(exc)
    return None


def _failing_fields(c: float):
    """Fields that fail where x == c only: a zero divisor, the kinks of abs
    and sgn under a derivative, and a singular pivot."""
    atlas = r2_atlas()
    shifted = f"(x - {c!r})"
    scalar = lambda src: tn.TensorField.from_exprs(src, atlas, (0, 0), {"O": {(): src}})
    pivot = tn.TensorField(
        "pivot", atlas, (1, 0),
        lambda chart, env: nk.solve_linear(
            [[env["x"] - c, 1.0], [0.0, 1.0 + env["y"] ** 2]], [1.0, env["y"]]
        ),
    )
    return {
        "division": scalar(f"y / {shifted}"),
        "abs": tn.exterior_derivative(scalar(f"abs{shifted} * y")),
        "sgn": tn.exterior_derivative(scalar(f"sgn{shifted} + y")),
        "pivot": pivot,
    }


@pytest.mark.parametrize("kind", ["division", "abs", "sgn", "pivot"])
def test_a_failing_point_of_a_batch_raises_as_alone(kind):
    """A zero divisor, a kink or a singular pivot at one point of a group
    makes the batch raise; the driver then evaluates point by point, the
    points before it get their values, and the first such point in driver
    order raises the lone evaluation's exception, type and message."""
    chart = r2_atlas().chart("O")
    points = _group(chart, 6)
    c = points[2][0]  # the failing point, repeated later in the group
    points = points + [(c, -0.3)]
    T = _failing_fields(c)[kind]
    want = _first_failure(T, [chart.env(p) for p in points])
    assert want is not None and want[0] == 2
    batch = chart.batch_env(points)
    with pytest.raises(Exception):
        at_batch(T.at, "O", batch)
    U = _failing_fields(c)[kind]  # a fresh field: nothing kept yet
    seen = []

    def residual(where, env):
        seen.append(_canon(U.at(where, env)))
        return 0.0

    with pytest.raises(want[1]) as exc:
        report.evaluate_group(residual, "O", points, batch)
    assert (type(exc.value), str(exc.value)) == want[1:]
    assert seen == [_canon(U.at("O", chart.env(p))) for p in points[:2]]


def _leaves(s):
    if isinstance(s, (list, tuple)):
        return [leaf for x in s for leaf in _leaves(x)]
    return [s]


def test_a_group_evaluates_each_field_once():
    """A field is evaluated at the batch env, once for the group, and kept
    in the batch's memo; each point's slot, read off as Python floats, is
    its lone evaluation's value."""
    atlas, _, _, J = _solved_structure()
    calls = []
    N = _counted(tn.nijenhuis(J), calls)
    chart = atlas.chart("O")
    points = _group(chart, 5)
    batch = chart.batch_env(points)
    got = at_batch(N.at, "O", batch)
    assert at_batch(N.at, "O", batch) is got is batch.memo[(N, "O")]
    assert len(calls) == 1 and calls[0] is batch
    for i, p in enumerate(points):
        row = point(got, i)
        assert all(type(x) is float for x in _leaves(row))
        assert _canon(row) == _canon(tn.nijenhuis(J).at("O", chart.env(p)))


@pytest.mark.parametrize(
    "key",
    ["mobius-jet", "mobius-cotangent", "product-darboux", "darboux-2", "sphere-5",
     "main1-family"],
)
def test_gallery_entry_evaluates_every_batch_whole(key, monkeypatch, capsys):
    """At the default plan no sample group of an entry with pullbacks and
    Reeb solves, whose pivot rows differ between points, falls back to
    point-by-point evaluation: a branch the batch cannot take whole would
    show up here, not only as lost time."""
    from sasaki_lab.cli import main

    evaluate_group, groups, fallbacks = report.evaluate_group, [], []

    def recording(residual_fn, where, points, env):
        groups.append(len(points))
        return evaluate_group(residual_fn, where, points, env)

    monkeypatch.setattr(report, "evaluate_group", recording)
    monkeypatch.setattr(report, "point_by_point", lambda *args: fallbacks.append(args))
    assert main(["verify", key]) == 0
    capsys.readouterr()
    assert groups and fallbacks == []


def test_gallery_solves_each_batch_in_one_pass(monkeypatch, capsys):
    """`verify all` at seed 42 and the default plan evaluates no sample
    group point by point, and `solve_linear` solves a batch group by group
    only where a per-point pivot swap would put a plain leaf against a
    dual: three batches (two Reeb solves and one cone J = Ω⁻¹G).  Pivot
    rows and zero skips that differ by point are otherwise selected point
    by point in one elimination."""
    from sasaki_lab.cli import main

    solve_in_groups, splits, fallbacks = nk._solve_in_groups, [], []

    def counting(a_rows, b, labels):
        splits.append(labels.dtype.kind)
        return solve_in_groups(a_rows, b, labels)

    monkeypatch.setattr(nk, "_solve_in_groups", counting)
    monkeypatch.setattr(report, "point_by_point", lambda *args: fallbacks.append(args))
    assert main(["verify", "all", "--seed", "42"]) == 0
    capsys.readouterr()
    assert fallbacks == []
    assert splits == ["i", "i", "i"]  # pivot rows; no zero skip splits


def test_sample_set_prunes_batch_memos_to_declared_fields():
    atlas, eta, xi, J = _solved_structure()
    N = tn.nijenhuis(J)
    shared = tn.SampleSet([J])
    plan = SamplePlan(seed=1, points_per_chart=3, sample_set=shared)
    (chart,) = atlas.charts
    points, batch = shared.points(chart, plan)
    at_batch(N.at, "O", batch)
    at_batch(J.at, "O", batch)
    assert (N, "O") in batch.memo and (J, "O") in batch.memo
    assert shared.envs() == [batch]
    shared.prune()
    assert (N, "O") not in batch.memo and (J, "O") in batch.memo
    _, dual_batch = batch.memo[("seeded", chart.coords)]
    assert {key[0] for key in dual_batch.memo if key[0] != "seeded"} <= {J}
    assert shared.points(chart, plan) == (points, batch)


def test_a_map_jet_is_kept_at_its_env_and_pruned_with_the_declared_maps(monkeypatch):
    """`SmoothMap.jet` evaluates a (map, chart) once at an env and hands
    out what it kept; a sample set keeps the jets of its declared maps
    after a check and drops the others."""
    F = PULL_MAPS["diffeo"]
    G = tn.SmoothMap.from_exprs("shift", F.source, TARGET, {"O": ("T", ("x + 1", "p", "z"))})
    applied = []
    apply = tn.SmoothMap.apply
    monkeypatch.setattr(
        tn.SmoothMap, "apply", lambda self, *args: applied.append(self) or apply(self, *args)
    )
    shared = tn.SampleSet([F])
    chart = F.source.chart("O")
    _, batch = shared.points(chart, SamplePlan(seed=1, points_per_chart=3, sample_set=shared))
    kept = at_batch(F.jet, "O", batch)
    assert at_batch(F.jet, "O", batch) is kept
    at_batch(G.jet, "O", batch)
    assert applied == [F, G]
    shared.prune()
    assert batch.memo[(F, "O")] is kept and (G, "O") not in batch.memo


def test_a_batch_whose_first_coordinate_is_a_scalar_is_evaluated_whole():
    """A batch may hold a scalar beside its arrays, wherever it stands: a
    lift that puts its fiber height first is a batch too, and gives each
    point its lone value."""
    atlas = Atlas([Chart("O", ("x", "y", "s"), ((-1.0, 1.0),) * 3)])
    T = tn.TensorField.from_exprs("T", atlas, (0, 1), {"O": {(0,): "x*s", (2,): "y/s"}})
    xs, ys = np.array([0.1, -0.4, 0.7]), np.array([0.5, 0.2, -0.3])
    got = at_batch(T.at, "O", PointEnv({"s": 2.0, "x": xs, "y": ys}))
    for i in range(3):
        env = PointEnv({"s": 2.0, "x": xs[i].item(), "y": ys[i].item()})
        assert _canon(point(got, i)) == _canon(T.at("O", env))


# -- declared identities reduced at their batch -----------------------------

SPECIALS = [math.nan, math.inf, -math.inf, -0.0]


def _where(u, special, value):
    """`special` where u > 0, else `value`: slot by slot on a batch, with
    no floating-point signal, so only some points of a group hold it."""
    if type(u) is np.ndarray:
        return np.where(u > 0.0, special, value)
    return special if u > 0.0 else value


def _special_endo(atlas, special, name="T"):
    """A (1,1) field with `special` in two components at some points only."""

    def components(chart, env):
        x, y = env["x"], env["y"]
        return [[x * y, _where(x, special, y)], [_where(y, special, -0.0), x - y]]

    return tn.TensorField(name, atlas, (1, 1), components)


def _residual_cases(special):
    """(name, domain, residual, fields only the identity reads) per kind."""
    atlas = r2_atlas()
    T = _special_endo(atlas, special)
    yield "vanishing", atlas, tn.vanishing(T), [T]
    T = _special_endo(atlas, special)
    ident = tn.identity(atlas)
    yield "agreeing", atlas, tn.agreeing((T, ident, -1.0)), [T, ident]
    A = Chart("A", ("x",), ((0.0, 1.0),))
    B = Chart("B", ("x",), ((0.0, 2.0),))
    piece = TransitionPiece(((0.0, 1.0),), (el.parse("2*x"),), (el.parse("x/2"),))
    signed = Atlas([A, B], [TransitionMap("A", "B", (piece,))])
    v = tn.TensorField("v", signed, (1, 0), lambda chart, env: (
        [_where(env["x"] - 0.5, special, 1.0)] if chart.name == "A" else [-2.0]
    ))
    yield "single_valued", tn.field_overlaps(v), tn.single_valued(v, lambda t, p: -1.0), [v]


def _slots(residual, where, points, batch) -> list:
    """repr of the residual's value at each point of a group: read off one
    evaluation at the batch env, and at each point's env alone."""
    got = at_batch(residual, where, batch)
    if not isinstance(got, dict):
        got = np.broadcast_to(np.asarray(got, dtype=float), len(points))
    lone = [residual(where, PointEnv(zip(batch, p))) for p in points]
    return [repr(point(got, i)) for i in range(len(points))], list(map(repr, lone))


@pytest.mark.parametrize("special", SPECIALS, ids=repr)
@pytest.mark.parametrize("kind", ["vanishing", "agreeing", "single_valued"])
def test_identity_residual_over_a_group_matches_lone_points(kind, special, monkeypatch):
    """`vanishing`, `agreeing` (c = −1 against `identity`) and `single_valued`
    (on a piece of sign −1) give each point of a sample group, by repr, the
    residual of its lone evaluation, with components that are NaN, ±inf or
    −0.0 at some points only.  The group is reduced whole, and the report,
    its witness included (the first strictly-worst point, for ties and
    NaN), is the point-by-point path's."""
    name, domain, residual, fields = next(
        c for c in _residual_cases(special) if c[0] == kind
    )
    plan = SamplePlan(seed=5, points_per_chart=9, tolerance=1e-8)
    seen = set()
    for _, where, points, batch in manifold.sample_domain(domain, plan):
        got, want = _slots(residual, where, points, batch)
        assert got == want
        assert all((field, where if kind != "single_valued" else where.transition.source)
                   in batch.memo for field in fields)
        seen.update(got)
    if special != 0.0:  # NaN or inf, at some points only
        assert repr(abs(special)) in seen and len(seen) > 1
    rep = run_residual_check(name, domain, residual, plan)
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(run_residual_check(name, domain, residual, plan))


def _special_metric(atlas, special):
    """A symmetric (0,2) field on the plane with `special` off its
    diagonal at some points only; "singular" makes it singular there."""

    def components(chart, env):
        x, y = env["x"], env["y"]
        if special == "singular":
            return [[1.0, 1.0], [1.0, _where(x, 1.0, 2.0 + y * y)]]
        w = _where(x, special, 0.5 * y)
        return [[2.0 + x * x, w], [w, 1.0 + y * y]]

    return tn.TensorField("M", atlas, (0, 2), components)


def _nondegeneracy_cases(special):
    """(name, residual, records) per kind of new declaration over a field
    with `special` at some points only."""
    atlas = r2_atlas()
    M = _special_metric(atlas, special)
    volume = tn.tf_combine("|det M|", (0, 0), [M], lambda cs, env: abs(nk.determinant(cs[0])))
    lowest = tn.tf_combine("min_eig M", (0, 0), [M], lambda cs, env: nk.min_eigenvalue(cs[0]))
    yield "determinant", tn.nondegenerate(volume, "volume"), {"volume": min}
    yield "eigenvalue", tn.nondegenerate(lowest), None
    yield "every", tn.every(tn.vanishing(M), tn.nondegenerate(volume)), None
    c = tn.TensorField("c", atlas, (0, 0), lambda chart, env: _where(
        env["x"], 0.0 if special == "singular" else special, 1.0 + env["y"] ** 2))
    yield "scalar", tn.nondegenerate(c, "c"), {"c": min}


@pytest.mark.parametrize("special", SPECIALS + ["singular"], ids=repr)
@pytest.mark.parametrize("kind", ["determinant", "eigenvalue", "every", "scalar"])
def test_nondegeneracy_residual_over_a_group_matches_lone_points(kind, special, monkeypatch):
    """`nondegenerate` of a determinant, of a smallest eigenvalue and of a
    scalar field, with and without its record, and `every`, give each
    point of a sample group, by repr, the residual of its lone evaluation,
    where the field is NaN, ±inf, −0.0 or singular at some points only.
    The group is reduced whole, and the report, its record and witness
    included, is the point-by-point path's."""
    name, residual, records = next(
        c for c in _nondegeneracy_cases(special) if c[0] == kind
    )
    atlas = r2_atlas()
    plan = SamplePlan(seed=5, points_per_chart=9, tolerance=1e-8)
    (_, where, points, batch), = manifold.sample_domain(atlas, plan)
    got, want = _slots(residual, where, points, batch)
    assert got == want
    if special == "singular":  # a vanishing value falls short by 1
        assert any("1.0" in r for r in got) and len(set(got)) > 1
    elif kind != "scalar" and special != 0.0:  # an entry not finite is NaN
        assert any("nan" in r for r in got) and len(set(got)) > 1
    rep = run_residual_check(name, atlas, residual, plan, records=records)
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(
        run_residual_check(name, atlas, residual, plan, records=records)
    )


def _special_gallery_check(kind, special):
    """A plan -> report function: a check whose residual this package
    declares, over a structure with `special` at some points only ("singular":
    degenerate there)."""
    from sasaki_lab.bundle import symplectic_check
    from sasaki_lab.contact import ContactStructure, is_contact_form
    from sasaki_lab.sasaki import LeviStructure, standard_darboux_levi

    singular = special == "singular"

    def at_some(env, value, elsewhere):  # a plain leaf, constant in every jet
        return _where(nk.value_of(env["x"]), 0.0 if singular else value, elsewhere)

    if kind == "contact_form":
        atlas = r3_atlas()
        eta = tn.TensorField("eta", atlas, (0, 1), lambda chart, env: [
            -env["p"], 0.0 if singular else at_some(env, special, 0.0),
            at_some(env, special, 1.0) if singular else 1.0,
        ])
        return lambda plan: is_contact_form(ContactStructure("c", atlas, eta), plan)
    if kind == "symplectic_form":
        atlas = r2_atlas()
        omega = tn.TensorField("omega", atlas, (0, 2), lambda chart, env: (
            lambda f: [[0.0, f], [-f, 0.0]])(at_some(env, special, 1.0 + env["y"] ** 2)))
        return lambda plan: symplectic_check(omega, plan)
    flat = standard_darboux_levi(1)
    k = tn.TensorField("k", flat.atlas, (0, 0), lambda chart, env: at_some(env, special, 1.0))
    phibar = tn.tf_combine("k·phibar", (1, 1), [k, flat.phibar], lambda cs, env: [
        [cs[0] * v for v in row] for row in cs[1]])
    return LeviStructure("k", flat.contact, phibar).validate


@pytest.mark.parametrize("special", SPECIALS + ["singular"], ids=repr)
@pytest.mark.parametrize("kind", ["contact_form", "symplectic_form", "structure_axioms"])
def test_declared_gallery_check_matches_its_point_by_point_report(kind, special, monkeypatch):
    """`is_contact_form`, `symplectic_check` and `LeviStructure.validate`
    report, byte for byte, what they report with every sample evaluated on
    its own.  Each fails, a NaN or infinite coefficient included, but
    where −0.0 stands for a zero that keeps η a contact form."""
    check = _special_gallery_check(kind, special)
    plan = SamplePlan(seed=5, points_per_chart=9, tolerance=1e-8)
    rep = check(plan)
    harmless = kind == "contact_form" and special == 0.0
    assert rep.verdict == ("pass" if harmless else "fail")
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(check(plan))


@pytest.mark.parametrize("slope", ["0.7", "0.7*x", "0.266 + 0.554*x + 0.593*z^2",
                                   "0.764*exp(0.689*cos(x)) - 0.395*sin(z)"])
def test_slope_recovery_matches_its_point_by_point_report(slope, monkeypatch):
    from sasaki_lab.corpus import build_example

    job = build_example("main1-family", a=slope).check("slope_recovery")
    plan = SamplePlan(seed=5, points_per_chart=16)
    rep = job.run(plan)
    assert rep.passed
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(job.run(plan))


@pytest.mark.parametrize("slope", ["0.7", "0.7*x", "0.266 + 0.554*x + 0.593*z^2",
                                   "0.764*exp(0.689*cos(x)) - 0.395*sin(z)",
                                   "1e308*10 - 1e308*10"])
def test_reconstruction_matches_its_point_by_point_report(slope, monkeypatch):
    """`reconstruct_main1`'s declared clauses report, byte for byte, what
    they report with every sample evaluated on its own; the NaN slope
    fails with its NaN clauses named."""
    from sasaki_lab.corpus import build_example

    job = build_example("main1-family", a=slope).check("reconstruction")
    plan = SamplePlan(seed=5, points_per_chart=16)
    rep = job.run(plan)
    nan = "1e308" in slope
    assert rep.verdict == ("fail" if nan else "pass")
    assert (rep.details["failed_clauses"] != []) == nan
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(job.run(plan))


def test_identity_residual_whose_batch_signals_is_reduced_point_by_point(monkeypatch):
    """inf − inf signals in the batch's reduction: each point is reduced on
    its own, to NaN where both fields are inf, and the witness is the
    first NaN point, as on the point-by-point path."""
    atlas = r2_atlas()
    T, S = _special_endo(atlas, math.inf), _special_endo(atlas, math.inf, "S")
    residual = tn.agreeing((T, S))
    plan = SamplePlan(seed=5, points_per_chart=9, tolerance=1e-8)
    (_, where, points, batch), = manifold.sample_domain(atlas, plan)
    with pytest.raises(FloatingPointError):
        at_batch(residual, where, batch)
    got = report.evaluate_group(residual, where, points, batch)
    want = [repr(residual(where, PointEnv(zip(batch, p)))) for p in points]
    assert "nan" in want and list(map(repr, got.tolist())) == want
    rep = run_residual_check("inf", atlas, residual, plan)
    assert math.isnan(rep.witness.residual)
    alone(monkeypatch)
    assert report_bytes(rep) == report_bytes(run_residual_check("inf", atlas, residual, plan))


@pytest.mark.parametrize("kind", ["division", "sgn"])
def test_identity_residual_at_a_failing_point_raises_as_alone(kind):
    """A zero divisor or a kink at one point of a group: the batch falls
    back, the points before it get their residuals, and the point raises
    the lone evaluation's exception, type and message."""
    chart = r2_atlas().chart("O")
    points = _group(chart, 6)
    c = points[2][0]

    def outcomes(evaluate):
        out = []

        def noted(where, env):
            value = residual(where, env)
            if not isinstance(value, np.ndarray):
                out.append(repr(value))
            return value

        try:
            evaluate(noted, "O", points, chart.batch_env(points))
        except Exception as exc:
            return out + [(type(exc), str(exc))]
        return out

    residual = tn.vanishing(_failing_fields(c)[kind])
    want = outcomes(report.point_by_point)
    assert len(want) == 3 and isinstance(want[2], tuple)
    residual = tn.vanishing(_failing_fields(c)[kind])
    assert outcomes(report.evaluate_group) == want


def test_a_field_that_raises_at_its_batch_is_evaluated_there_once():
    """A zero divisor at one point of a 6-point group: the declared
    identity evaluates the field at the batch, once, and the points,
    which fall back, evaluate it on their own, not at the batch again
    (a field built on it included), up to the point that raises."""
    chart = r2_atlas().chart("O")
    points = _group(chart, 6)
    c = points[2][0]
    calls, envs = [], []
    T = _counted(_failing_fields(c)["division"], calls)
    doubled = tn.tf_scale(T, 2.0)
    residual = tn.vanishing(doubled)
    got = []

    def noted(where, env):
        envs.append(env)
        got.append(repr(residual(where, env)))
        return 0.0

    batch = chart.batch_env(points)
    with pytest.raises(el.EvalDomainError):
        report.evaluate_group(noted, "O", points, batch)
    # the batch once, then each point up to the failing one
    assert envs[0] is batch and len(envs) == 4
    assert [id(env) for env in calls] == [id(env) for env in envs]
    assert got == [repr(tn.vanishing(doubled)("O", chart.env(p))) for p in points[:2]]


def test_main1_reconstruction_evaluates_nothing_point_by_point(monkeypatch, capsys):
    """Every field `main1-family` evaluates, at the envs `bundle` derives
    from a group's batch env too, is evaluated at a batch: no group falls
    back, and no field is evaluated at an env that holds no array, but for
    `contact.kernel_frames`' read of η at a chart's first sample."""
    from sasaki_lab import contact
    from sasaki_lab.cli import main

    frames, frame_forms = contact.kernel_frames, set()

    def recording_frames(C, plan):
        frame_forms.add(C.eta.name)
        return frames(C, plan)

    for mod, name in _bindings(frames):
        monkeypatch.setattr(mod, name, recording_frames)
    at, lone, fallbacks = tn.TensorField.at, [], []

    def holds_an_array(env):
        return any(type(nk.value_of(v)) is np.ndarray for v in env.values())

    def recording_at(self, chart, env):
        if (self, chart) not in getattr(env, "memo", {}) and not holds_an_array(env):
            lone.append(self.name)
        return at(self, chart, env)

    monkeypatch.setattr(tn.TensorField, "at", recording_at)
    monkeypatch.setattr(report, "point_by_point", lambda *args: fallbacks.append(args))
    assert main(["verify", "main1-family", "--param", "a=0.5*x", "--samples", "16"]) == 0
    capsys.readouterr()
    assert fallbacks == [] and lone and set(lone) == frame_forms


# -- every gallery check evaluates its groups at their batch -----------------

UNSAMPLED = {"loop_sign"}  # a product of transition signs, no samples


def test_gallery_checks_evaluate_each_sample_group_once_at_its_batch(monkeypatch):
    """Every gallery check, at seed 42 and the default plan, hands
    `run_residual_check` a residual and evaluates it once per sample group,
    at the group's batch env, with no group falling back to point-by-point
    evaluation; or, with no sample to draw, evaluates nothing.  A check
    that samples and falls back, or calls its residual at an env that is
    not its group's batch, fails here."""
    from sasaki_lab import corpus

    handed, calls, fallbacks = [], [], []
    run_check, evaluate_group = report.run_residual_check, report.evaluate_group

    def recording_run_check(check, domain, residual_fn, plan, *args, **kwargs):
        handed.append(residual_fn)
        return run_check(check, domain, residual_fn, plan, *args, **kwargs)

    def recording_group(residual_fn, where, points, env):
        seen = []
        calls.append((env, seen))
        return evaluate_group(lambda w, e: seen.append(e) or residual_fn(w, e),
                              where, points, env)

    for mod, name in _bindings(run_check):
        monkeypatch.setattr(mod, name, recording_run_check)
    monkeypatch.setattr(report, "evaluate_group", recording_group)
    monkeypatch.setattr(report, "point_by_point", lambda *args: fallbacks.append(args))
    sides = {"sampled": 0, "unsampled": 0}
    for key in corpus.EXAMPLE_KEYS:
        ex = corpus.build_example(key)
        shared = ex.sample_set()
        for job in ex.checks:
            handed.clear()
            calls.clear()
            job.run(SamplePlan(seed=42, sample_set=shared))
            shared.prune()
            where = f"{key}/{job.name}"
            if job.name in UNSAMPLED:
                assert not handed and not calls, where
                sides["unsampled"] += 1
            else:
                assert handed, where
                assert all(seen == [env] for env, seen in calls), where
                sides["sampled"] += 1
    assert fallbacks == []
    assert sides == {"sampled": 87, "unsampled": 2}
