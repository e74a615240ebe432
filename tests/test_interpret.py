import numpy as np
import pytest

from entvec import core, interpret
from entvec.core import (
    entail_backward,
    entail_factorized,
    entail_forward,
    log_sigmoid,
    sigmoid,
)
from entvec.interpret import (
    DUP,
    LOG_ODDS,
    UNK_DUP,
    ContextModelInputs,
    Interpretation,
    context_score,
    context_score_grad_m,
    gradient_grid,
    pair_score,
    transform,
    unify_backward,
    unknown_mass,
)


class TestInterpretation:
    def test_constants(self):
        assert LOG_ODDS.kind == "logodds"
        assert DUP.kind == "dup"
        assert UNK_DUP.kind == "unkdup" and UNK_DUP.shift == 1.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Interpretation("cosine")

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            Interpretation("unkdup", shift=0.0)

    @pytest.mark.parametrize("shift", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_shift(self, shift):
        with pytest.raises(ValueError, match="unkdup shift must be finite"):
            Interpretation("unkdup", shift)

    def test_shift_is_not_checked_where_it_is_unused(self):
        assert Interpretation("dup", np.inf).copies == DUP.copies

    def test_copies(self):
        assert LOG_ODDS.copies == ((1, 0),)
        assert DUP.copies == ((1, 0), (-1, 0))
        assert UNK_DUP.copies == ((1, 1.0), (-1, 1.0))
        assert Interpretation("unkdup", 0.5).copies == ((1, 0.5), (-1, 0.5))

    def test_copies_are_derived(self):
        with pytest.raises(AttributeError):
            DUP.copies = ((1, 0),)
        with pytest.raises(TypeError):
            Interpretation("dup", copies=((1, 0),))


class TestTransform:
    def test_logodds_identity(self):
        np.testing.assert_array_equal(transform([2.0, -1.0], LOG_ODDS), [2.0, -1.0])

    def test_dup_concatenates_negation(self):
        np.testing.assert_array_equal(transform([2.0, -1.0], DUP), [2.0, -1.0, -2.0, 1.0])

    def test_unkdup_shifts_both_copies(self):
        np.testing.assert_array_equal(transform([2.0, -1.0], UNK_DUP), [1.0, -2.0, -3.0, 0.0])

    def test_dimension_doubling(self):
        raw = np.ones(5)
        assert transform(raw, LOG_ODDS).shape == (5,)
        assert transform(raw, DUP).shape == (10,)
        assert transform(raw, UNK_DUP).shape == (10,)

    def test_dup_negation_swaps_halves(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=6)
        a = transform(raw, DUP)
        b = transform(-raw, DUP)
        np.testing.assert_array_equal(b, np.concatenate([a[6:], a[:6]]))

    def test_batched(self):
        raw = np.arange(6.0).reshape(2, 3)
        out = transform(raw, DUP)
        assert out.shape == (2, 6)
        np.testing.assert_array_equal(out[0], transform(raw[0], DUP))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            transform([np.nan], LOG_ODDS)


class TestUnknownMass:
    def test_maximal_at_zero_and_positive(self):
        v = np.linspace(-6, 6, 121)
        mass = unknown_mass(v)
        assert np.all(mass > 0.0)
        assert np.argmax(mass) == 60  # v = 0

    def test_value_at_zero(self):
        assert unknown_mass(0.0) == pytest.approx(1.0 - 2.0 * sigmoid(-1.0), rel=1e-12)


class TestPairScore:
    def test_backward_origin(self):
        assert pair_score([0.0], [0.0], LOG_ODDS, "bwd") == pytest.approx(
            0.5 * np.log(0.5), rel=1e-12
        )

    def test_hyponym_is_entailing_side(self):
        y, x = [3.0, -1.0], [0.5, 0.25]
        assert pair_score(y, x, LOG_ODDS, "bwd") == pytest.approx(
            entail_backward(np.array(y), np.array(x)), rel=1e-15
        )

    def test_dup_factorized_additivity(self):
        v = np.array([0.7, -2.0, 1.1])
        got = pair_score(v, v, DUP, "fact")
        expect = entail_factorized(np.concatenate([v, -v]), np.concatenate([v, -v]))
        assert got == pytest.approx(expect, rel=1e-15)

    def test_dup_sign_flip_invariance(self):
        rng = np.random.default_rng(42)
        for op in ("fwd", "bwd", "fact"):
            h, g = rng.normal(size=4), rng.normal(size=4)
            assert pair_score(h, g, DUP, op) == pytest.approx(
                pair_score(-h, -g, DUP, op), rel=1e-12
            )

    @pytest.mark.parametrize("op", ["forward", "backward", "factorized"])
    def test_rejects_long_op_spellings(self, op):
        with pytest.raises(ValueError, match=op):
            pair_score([1.0, 2.0], [0.0, -1.0], LOG_ODDS, op)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="cosine"):
            pair_score([0.0], [0.0], LOG_ODDS, "cosine")


INTERPS = {
    "logodds": LOG_ODDS,
    "dup": DUP,
    "unkdup-1": UNK_DUP,
    "unkdup-0.5": Interpretation("unkdup", 0.5),
}


class TestPairScorePairs:
    # repeated words, i == j rows, and the saturating rows 4 (+800) and 5 (-800)
    I = np.array([0, 1, 2, 0, 3, 3, 4, 5, 5, 1, 4])
    J = np.array([1, 0, 2, 2, 0, 3, 5, 4, 5, 4, 4])

    @staticmethod
    def _words(d=4):
        words = np.random.default_rng(7).normal(scale=3.0, size=(6, d))
        words[4], words[5] = 800.0, -800.0
        return words

    @pytest.mark.parametrize("interp", sorted(INTERPS))
    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_matches_per_pair_calls(self, interp, op):
        words = self._words()
        got = pair_score(words, words, INTERPS[interp], op, pairs=(self.I, self.J))
        want = pair_score(words[self.I], words[self.J], INTERPS[interp], op)
        np.testing.assert_array_equal(got, want)
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_separate_tables_and_d_one(self, op):
        hypo, hyper = self._words(1), self._words(1)[::-1].copy()
        got = pair_score(hypo, hyper, UNK_DUP, op, pairs=(self.I, self.J))
        np.testing.assert_array_equal(got, pair_score(hypo[self.I], hyper[self.J], UNK_DUP, op))

    def test_scalar_indices_return_a_float(self):
        words = self._words()
        got = pair_score(words, words, DUP, "fwd", pairs=(1, 3))
        assert isinstance(got, float)
        assert got == pair_score(words[1], words[3], DUP, "fwd")

    def test_transforms_a_shared_array_once(self, monkeypatch):
        calls = []
        real = interpret.transform
        monkeypatch.setattr(interpret, "transform",
                            lambda raw, it: calls.append(np.shape(raw)) or real(raw, it))
        words = self._words()
        pair_score(words, words, DUP, "bwd", pairs=(self.I, self.J))
        assert calls == [(6, 4)]
        calls.clear()
        pair_score(words, words.copy(), DUP, "bwd", pairs=(self.I, self.J))
        assert calls == [(6, 4), (6, 4)]


class TestReadingTables:
    """``_reading_tables`` gives, bit for bit, the tables each operator builds of
    its reading's copies, with one ``core._tables`` call per copy base."""

    USES = [(interp, op) for interp in INTERPS.values() for op in ("fwd", "bwd", "fact")]

    def test_each_table_is_that_of_the_copies(self):
        words = TestPairScorePairs._words(5)
        words[0] = [0.0, -0.0, 1e-300, -1e-300, 745.5]
        got = interpret._reading_tables(words, self.USES)
        assert set(got) == set(INTERPS.values())
        for interp, tables in got.items():
            copies = transform(words, interp)
            assert set(tables) == set(core._NEGATED)
            for name, table in tables.items():
                want = core._tables(copies, name)[name]
                assert table.tobytes() == want.tobytes(), (interp, name)

    def test_one_tables_call_per_copy_base(self, monkeypatch):
        calls = []
        real = core._tables
        monkeypatch.setattr(core, "_tables",
                            lambda v, *names: calls.append((v.shape, names)) or real(v, *names))
        words = TestPairScorePairs._words(4)
        got = interpret._reading_tables(words, [(LOG_ODDS, "fwd"), (DUP, "bwd"),
                                                (UNK_DUP, "bwd"), (UNK_DUP, "fact")])
        # dup's copies [raw, -raw] serve logodds and dup with the sigma(-.) tables
        assert sorted(calls) == [((6, 8), ("log_sigmoid_neg", "sigmoid", "sigmoid_neg")),
                                 ((6, 8), ("log_sigmoid_neg", "sigmoid_neg"))]
        # each reading holds the tables its operators read, and no other
        assert {k.kind: sorted(v) for k, v in got.items()} == {
            "logodds": ["log_sigmoid", "sigmoid"],
            "dup": ["log_sigmoid_neg", "sigmoid_neg"],
            "unkdup": ["log_sigmoid_neg", "sigmoid", "sigmoid_neg"]}
        # logodds reads halves of dup's tables, which are not copied
        assert np.shares_memory(got[LOG_ODDS]["sigmoid"], got[DUP]["sigmoid_neg"])
        assert np.shares_memory(got[LOG_ODDS]["log_sigmoid"], got[DUP]["log_sigmoid_neg"])
        calls.clear()
        interpret._reading_tables(words, [(LOG_ODDS, "fwd"), (LOG_ODDS, "fact")])
        assert calls == [((6, 4), ("log_sigmoid", "sigmoid", "sigmoid_neg"))]

    def test_tables_are_read_only(self):
        words = TestPairScorePairs._words(4)
        for tables in interpret._reading_tables(words, self.USES).values():
            assert not any(table.flags.writeable for table in tables.values())

    @pytest.mark.parametrize("interp", sorted(INTERPS))
    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_pair_score_reads_them_bitwise(self, interp, op):
        words, pairs = TestPairScorePairs._words(), (TestPairScorePairs.I, TestPairScorePairs.J)
        tables = interpret._reading_tables(words, [(INTERPS[interp], op)])[INTERPS[interp]]
        got = pair_score(words, words, INTERPS[interp], op, pairs=pairs, tables=tables)
        want = pair_score(words, words, INTERPS[interp], op, pairs=pairs)
        assert got.tobytes() == want.tobytes()


class TestUnifyBackward:
    def test_logodds_origin(self):
        y_plus, y_minus = unify_backward(ContextModelInputs([0.0], [0.0], [0.0]), LOG_ODDS)
        np.testing.assert_allclose(y_plus, [2.0 * np.log(2.0)], rtol=1e-12)
        assert y_minus is None

    def test_dup_origin(self):
        y_plus, y_minus = unify_backward(ContextModelInputs([0.0], [0.0], [0.0]), DUP)
        np.testing.assert_allclose(y_plus, [1.386294], atol=1e-6)
        np.testing.assert_allclose(y_minus, [0.0], atol=1e-12)

    def test_unkdup_at_one(self):
        inputs = ContextModelInputs([1.0], [0.0], [0.0])
        y_plus, _ = unify_backward(inputs, UNK_DUP)
        np.testing.assert_allclose(y_plus, [1.386294], atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            ContextModelInputs([0.0, 1.0], [0.0], [0.0])


class TestContextScore:
    def test_logodds_origin_value(self):
        inputs = ContextModelInputs([0.0], [0.0], [0.0])
        assert context_score(inputs, LOG_ODDS) == pytest.approx(-0.2772588722239781, rel=1e-12)

    def test_collapsed_form(self):
        # score = sum over copies of -sigma(-Y) * Y
        rng = np.random.default_rng(42)
        for interp in (LOG_ODDS, DUP, UNK_DUP):
            inputs = ContextModelInputs(
                rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
            )
            y_plus, y_minus = unify_backward(inputs, interp)
            expect = float(np.sum(-sigmoid(-y_plus) * y_plus))
            if y_minus is not None:
                expect += float(np.sum(-sigmoid(-y_minus) * y_minus))
            assert context_score(inputs, interp) == pytest.approx(expect, rel=1e-10)

    def test_vacuous_limit(self):
        inputs = ContextModelInputs([-40.0, -40.0], [-40.0, -40.0], [0.0, 0.0])
        assert context_score(inputs, LOG_ODDS) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("interp", [LOG_ODDS, DUP, UNK_DUP])
    def test_gradient_matches_finite_differences(self, interp):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            m = rng.uniform(-3, 3, size=4)
            c = rng.uniform(-3, 3, size=4)
            theta = rng.uniform(-1, 1, size=4)
            grad = context_score_grad_m(ContextModelInputs(m, c, theta), interp)
            for k in range(4):
                up, dn = m.copy(), m.copy()
                up[k] += h
                dn[k] -= h
                fd = (
                    context_score(ContextModelInputs(up, c, theta), interp)
                    - context_score(ContextModelInputs(dn, c, theta), interp)
                ) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestGradientGrid:
    def test_word2vec_at_zero_middle(self):
        grid = gradient_grid("word2vec", (0.0, 0.0, 1.0), (-2.0, 2.0, 1.0))
        np.testing.assert_allclose(grid.grad[0], 0.5 * grid.c, rtol=1e-12)

    def test_word2vec_antisymmetry(self):
        grid = gradient_grid("word2vec", (-2.0, 2.0, 0.5), (-2.0, 2.0, 0.5))
        np.testing.assert_allclose(grid.grad, -grid.grad[::-1, ::-1], atol=1e-12)

    @pytest.mark.parametrize("model", ["word2vec", "logodds-bwd", "dup-bwd", "unkdup-bwd"])
    def test_finite_everywhere(self, model):
        grid = gradient_grid(model, (-4.0, 4.0, 0.5), (-4.0, 4.0, 0.5))
        assert np.all(np.isfinite(grid.grad))

    @pytest.mark.parametrize("model", ["logodds-bwd", "dup-bwd", "unkdup-bwd"])
    def test_grid_matches_finite_differences(self, model):
        h = 1e-5
        grid = gradient_grid(model, (-2.0, 2.0, 1.0), (-2.0, 2.0, 1.0))
        interp = {"logodds-bwd": LOG_ODDS, "dup-bwd": DUP, "unkdup-bwd": UNK_DUP}[model]
        for i, m in enumerate(grid.m):
            for j, c in enumerate(grid.c):
                fd = (
                    context_score(ContextModelInputs([m + h], [c], [0.0]), interp)
                    - context_score(ContextModelInputs([m - h], [c], [0.0]), interp)
                ) / (2 * h)
                assert grid.grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_axis_endpoints_inclusive(self):
        grid = gradient_grid("word2vec", (-4.0, 4.0, 0.1), (-4.0, 4.0, 0.1))
        assert grid.m.shape == (81,)
        assert grid.m[0] == pytest.approx(-4.0) and grid.m[-1] == pytest.approx(4.0)

    @pytest.mark.parametrize("axis, points", [
        ((0.0, 1.0, 0.6), [0.0, 0.6]),  # hi is not a point: the axis stops short of it
        ((0.0, 0.3, 0.1), [0.0, 0.1, 0.2, 0.3]),  # 0.3 / 0.1 rounds just below 3
        ((1.0, 1.0, 1.0), [1.0]),
        ((1.0, 1.0, 0.5), [1.0]),
        ((-1.0, 0.5, 1.0), [-1.0, 0.0]),
    ])
    def test_axis_never_passes_hi(self, axis, points):
        grid = gradient_grid("word2vec", axis, (0.0, 1.0, 1.0))
        assert grid.m == pytest.approx(points)
        assert grid.grad.shape == (len(points), 2)

    @pytest.mark.parametrize("axis", [(1.0, 0.8, 1.0), (1.0, 0.2, 1.0), (0.0, -1e-6, 0.1)])
    def test_reversed_range_has_no_points(self, axis):
        with pytest.raises(ValueError, match="contains no points"):
            gradient_grid("word2vec", axis, (0.0, 1.0, 1.0))

    def test_csv_layout(self):
        grid = gradient_grid("word2vec", (0.0, 1.0, 1.0), (0.0, 1.0, 1.0))
        lines = grid.to_csv().splitlines()
        assert lines[0] == "m,c,gradient"
        assert len(lines) == 1 + 4
        # row-major: m varies slowest
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]
        ]

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            gradient_grid("glove", (0, 1, 1), (0, 1, 1))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            gradient_grid("word2vec", (0, 1, -1.0), (0, 1, 1))


# The per-reading expressions the copy-list code replaced, kept as the
# reference it must match bit for bit.
def ref_transform(raw, interp):
    raw = np.asarray(raw, dtype=np.float64)
    if interp.kind == "logodds":
        return raw.copy()
    if interp.kind == "dup":
        return np.concatenate([raw, -raw], axis=-1)
    return np.concatenate([raw - interp.shift, -raw - interp.shift], axis=-1)


def ref_unify_backward(inputs, interp):
    xcp, m = inputs.x_c_prime, inputs.x_m
    if interp.kind == "logodds":
        return xcp - log_sigmoid(-m), None
    if interp.kind == "dup":
        return xcp - log_sigmoid(-m), -xcp - log_sigmoid(m)
    s = interp.shift
    return xcp - log_sigmoid(-(m - s)), -xcp - log_sigmoid(-(-m - s))


def ref_context_score(inputs, interp):
    xcp, m = inputs.x_c_prime, inputs.x_m
    y_plus, y_minus = ref_unify_backward(inputs, interp)
    if interp.kind == "logodds":
        return entail_backward(y_plus, m) + float(np.sum(-sigmoid(-y_plus) * xcp))
    if interp.kind == "dup":
        m_plus, m_minus = m, -m
    else:
        m_plus, m_minus = m - interp.shift, -m - interp.shift
    score = entail_backward(y_plus, m_plus) + float(np.sum(-sigmoid(-y_plus) * xcp))
    score += entail_backward(y_minus, m_minus) + float(np.sum(-sigmoid(-y_minus) * (-xcp)))
    return score


def ref_grad_m(inputs, interp):
    def part(y, gate):
        return gate * sigmoid(-y) * (sigmoid(y) * y - 1.0)

    m = inputs.x_m
    y_plus, y_minus = ref_unify_backward(inputs, interp)
    if interp.kind == "logodds":
        return part(y_plus, sigmoid(m))
    if interp.kind == "dup":
        gate_plus, gate_minus = sigmoid(m), -sigmoid(-m)
    else:
        s = interp.shift
        gate_plus, gate_minus = sigmoid(m - s), -sigmoid(-m - s)
    return part(y_plus, gate_plus) + part(y_minus, gate_minus)


def ref_pair_score(hypo_raw, hyper_raw, interp, op, pairs=None):
    y, x = ref_transform(hypo_raw, interp), ref_transform(hyper_raw, interp)
    if op == "fwd":
        return entail_forward(x, y, pairs=None if pairs is None else pairs[::-1])
    if op == "bwd":
        return entail_backward(y, x, pairs=pairs)
    return entail_factorized(y, x, pairs=pairs)


def same_bits(got, want):
    if want is None or isinstance(want, float):
        return type(got) is type(want) and (want is None or np.float64(got).tobytes()
                                            == np.float64(want).tobytes())
    return (isinstance(got, np.ndarray) and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


class TestCopiesMatchPerKindReference:
    # signed zeros, saturating +-30, a subnormal-adjacent 1e-300, plain values
    SPECIAL = np.array([0.0, -0.0, 30.0, -30.0, 1e-300, -1e-300, 1.0, -0.5])

    @classmethod
    def raw(cls):
        rng = np.random.default_rng(11)
        rows = [np.roll(cls.SPECIAL, k) for k in range(4)]
        return np.concatenate([np.array(rows), 3.0 * rng.normal(size=(4, 8))])

    @pytest.mark.parametrize("interp", sorted(INTERPS))
    def test_transform(self, interp):
        raw = self.raw()
        for arg in (raw, raw[1], raw[:, :1]):
            assert same_bits(transform(arg, INTERPS[interp]), ref_transform(arg, INTERPS[interp]))

    @pytest.mark.parametrize("interp", sorted(INTERPS))
    @pytest.mark.parametrize("op", ["fwd", "bwd", "fact"])
    def test_pair_score(self, interp, op):
        raw, it = self.raw(), INTERPS[interp]
        assert same_bits(pair_score(raw[:4], raw[4:], it, op),
                         ref_pair_score(raw[:4], raw[4:], it, op))
        pairs = (np.array([0, 1, 2, 7, 5, 3]), np.array([1, 0, 6, 7, 4, 2]))
        assert same_bits(pair_score(raw, raw, it, op, pairs=pairs),
                         ref_pair_score(raw, raw, it, op, pairs=pairs))

    @pytest.mark.parametrize("interp", sorted(INTERPS))
    def test_context_model(self, interp):
        raw, it = self.raw(), INTERPS[interp]
        for k in range(4):
            inputs = ContextModelInputs(raw[k], raw[k + 4], 0.1 * raw[(k + 2) % 8])
            for got, want in zip(unify_backward(inputs, it), ref_unify_backward(inputs, it)):
                assert same_bits(got, want)
            assert same_bits(context_score(inputs, it), ref_context_score(inputs, it))
            assert same_bits(context_score_grad_m(inputs, it), ref_grad_m(inputs, it))

    @pytest.mark.parametrize("model", ["logodds-bwd", "dup-bwd", "unkdup-bwd"])
    @pytest.mark.parametrize("shift", [1.0, 0.5])
    def test_gradient_grid(self, model, shift):
        grid = gradient_grid(model, (-6.0, 6.0, 0.5), (-6.0, 6.0, 0.5), shift=shift)
        mm, cc = np.meshgrid(grid.m, grid.c, indexing="ij")
        kind = model.removesuffix("-bwd")
        it = Interpretation(kind, shift) if kind == "unkdup" else Interpretation(kind)
        want = ref_grad_m(ContextModelInputs(mm, cc, np.zeros_like(mm)), it)
        assert same_bits(grid.grad, want)
