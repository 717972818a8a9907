"""Model zoo: LIBSVM parsing, ridge/logistic oracles, fixtures, sampling."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hygrad as hg
from hygrad import models
from hygrad.errors import DataError, ParseError, UsageError

from conftest import assert_same_bits, seeded_y


class TestParseLibsvm:
    def test_single_line(self):
        ds = hg.parse_libsvm("1 1:0.5 3:-2\n")
        assert ds.n == 1 and ds.d_x == 3
        assert np.array_equal(ds.features[0], [0.5, 0.0, -2.0])
        assert ds.labels[0] == 1.0

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            hg.parse_libsvm("")

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n-1 2:1.5 # trailing\n"
        ds = hg.parse_libsvm(text)
        assert ds.n == 1 and ds.d_x == 2
        assert ds.labels[0] == -1.0
        assert np.array_equal(ds.features[0], [0.0, 1.5])

    def test_non_numeric_label_names_line(self):
        with pytest.raises(ParseError) as exc:
            hg.parse_libsvm("1 1:2\nbogus 1:3\n")
        assert exc.value.line == 2

    def test_non_numeric_value(self):
        with pytest.raises(ParseError) as exc:
            hg.parse_libsvm("1 1:x\n")
        assert exc.value.line == 1

    def test_non_increasing_index(self):
        with pytest.raises(ParseError, match="increase"):
            hg.parse_libsvm("1 2:1 2:2\n")
        with pytest.raises(ParseError, match="increase"):
            hg.parse_libsvm("1 3:1 2:2\n")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError, match="1-based"):
            hg.parse_libsvm("1 0:5\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(ParseError):
            hg.parse_libsvm("1 15\n")

    def test_parsed_arrays_are_read_only(self):
        ds = hg.parse_libsvm("1 1:2\n-1 2:3\n")
        for stored in (ds.features, ds.labels):
            assert not stored.flags.writeable

    def test_bytes_input(self):
        ds = hg.parse_libsvm(b"2.5 1:1\n")
        assert ds.labels[0] == 2.5

    def test_invalid_utf8_is_a_parse_error(self):
        with pytest.raises(ParseError, match="not valid UTF-8"):
            hg.parse_libsvm(b"1 1:\xff\n")

    # Non-ASCII text leaves the vectorized path: a byte order mark makes the
    # label unreadable, and str.split reads a no-break space as a blank.
    @pytest.mark.parametrize("text", ["\ufeff1 1:2\n", "1 1:2\u00a02:3\n"])
    def test_non_ascii_bytes_parse_as_their_decoded_text(self, text):
        assert (_outcome(hg.parse_libsvm, text.encode())
                == _outcome(models._parse_lines, text))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 5))
        finite = st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e12, max_value=1e12)
        feats = np.array([[data.draw(finite) for _ in range(d)] for _ in range(n)])
        labels = np.array([data.draw(finite) for _ in range(n)])
        text = hg.serialize_libsvm(hg.Dataset(feats, labels))
        if not feats.any():
            with pytest.raises(ParseError, match="no feature indices found"):
                hg.parse_libsvm(text)
            return
        # LIBSVM omits zeros, so the trailing all-zero columns do not come back.
        back = hg.parse_libsvm(text)
        assert np.array_equal(back.features, feats[:, :back.d_x])
        assert not feats[:, back.d_x:].any()
        assert np.array_equal(back.labels, labels)


# Number spellings that float() reads: 17 significant digits, exponents,
# signed zeros, subnormals and the forms a hand-written file may hold.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBERS = st.one_of(
    _FINITE.map(repr), _FINITE.map(lambda v: f"{v:.17g}"),
    _FINITE.map(lambda v: f"{v:.16E}"), st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "0", "-0", "+1.5", ".5", "5.", "1e-320", "-4e+2",
                     "1_0.5"]))
_GAP = st.text(alphabet=" \t", min_size=1, max_size=3)
_PAD = st.text(alphabet=" \t", max_size=2)


@st.composite
def regular_texts(draw):
    """Text that both LIBSVM parsers read: rows with and without pairs (at
    least one pair in all), blank and whitespace-only lines, LF, CRLF and
    lone CR, runs of blanks, indices with leading zeros, with or without a
    final newline."""
    width = draw(st.integers(1, 6))
    lines, max_index = [], 0
    rows = draw(st.integers(1, 5))
    for row in range(rows):
        lines += draw(st.lists(_PAD, max_size=2))
        least = 1 if row == rows - 1 and not max_index else 0
        cols = sorted(draw(st.sets(st.integers(1, width), min_size=least,
                                   max_size=width)))
        max_index = max([max_index, *cols])
        tokens = [draw(_NUMBERS)] + [
            f"{draw(st.sampled_from(['', '0']))}{c}:{draw(_NUMBERS)}" for c in cols]
        lines.append(draw(_PAD) + "".join(t + draw(_GAP) for t in tokens[:-1])
                     + tokens[-1] + draw(_PAD))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def tall_text():
    """20000 rows drawn from 500 serialized ones: the bytes of a real
    20000 x 5 file, built without formatting 100000 floats."""
    pool = hg.serialize_libsvm(hg.synthetic_classification_dataset(
        500, 5, seed=5)).splitlines(keepends=True)
    return "".join(pool[i] for i in hg.rng_from_seed(5).integers(0, 500, 20000))


def _traced_peak(parse, text):
    """The tracemalloc peak, in bytes, of ``parse(text)``."""
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _outcome(parse, text):
    """What a parser gives: the error's type, message and line, or the bits."""
    try:
        ds = parse(text)
    except DataError as err:
        return type(err), str(err), getattr(err, "line", None)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


class TestParserPaths:
    """The vectorized parser against the line parser, its reference."""

    # What a corruption inserts: separators of every kind, signs, comment
    # marks, non-ASCII digits and marks, non-finite numbers, stray pairs.
    PIECES = ["", ":", "#", "+", "-", "_", ".", "e", "0", "7", "x", " ", "\t",
              "\n", "\r", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f",
              "\x85", "\u2028", "\ufeff", "²", "nan", "inf", "1e999", "1:",
              ":1", " 3:4", " 9"]

    @given(regular_texts(), st.integers(1, 48))
    @settings(max_examples=60, deadline=None)
    def test_paths_agree_on_valid_text(self, text, block_chars):
        ref = models._parse_lines(text)
        rows = sum(1 for line in text.splitlines() if line.strip())
        for given in (text, text.encode()):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(models, "_BLOCK_CHARS", block_chars)
                fast = models._parse_regular(given)
            assert fast is not None, given
            assert_same_bits(fast.features, ref.features)
            assert_same_bits(fast.labels, ref.labels)
            flags = fast.features.flags
            assert flags.c_contiguous and flags.owndata and fast.n == rows, given

    @given(regular_texts(), st.integers(1, 48), st.data())
    @settings(max_examples=100, deadline=None)
    def test_paths_agree_on_corrupt_text(self, text, block_chars, data):
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 2))
            piece = data.draw(st.sampled_from(self.PIECES))
            text = text[:at] + piece + text[at + cut:]
        ref = _outcome(models._parse_lines, text)
        for given in (text, text.encode()):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(models, "_BLOCK_CHARS", block_chars)
                got = _outcome(hg.parse_libsvm, given)
            assert got == ref, given

    @pytest.mark.parametrize("text", [
        "1 2:3:4 5\n",             # as many colons as pairs
        "1 2:3:\n", "1 2:3 :\n",   # one colon more than values
        "1 \u00b2:2\n",            # str.isdigit accepts it, int does not
        "1 +1:2\n", "1 1_0:2\n",   # int accepts these; the fast path declines
        # Separators of str.splitlines or str.split other than tab, LF and
        # CR; read as blanks, \x1c, \x0b and \x00 before "2:3" would each
        # give a valid row.
        "1 1:2\x1c2 1:3\n", "1 1:2\x1c2:3\n", "1 1:2\x0b2:3\n",
        "1 1:2\x002:3\n", "1 1:2\x852 1:3\n", "1 1:2\u20282 1:3\n",
        "1 1:2\x0c2 1:3\n", "\ufeff1 1:2\n",
        "1 1:nan\n", "inf 1:2\n", "1 1:-inf\n",
        "1 1:2\n# comment\n",
    ])
    def test_named_irregular_texts(self, text):
        assert models._parse_regular(text) is None
        assert (_outcome(hg.parse_libsvm, text)
                == _outcome(models._parse_lines, text))

    # A 20-digit index is past the fast path's 18 digits; a 17-digit one
    # passes it, and a comment sends either to the line parser. numpy
    # refuses both widths at once, without touching memory.
    @pytest.mark.parametrize("index", ["99999999999999999999", "99999999999999999"])
    @pytest.mark.parametrize("comment", ["", "# the line parser\n"])
    def test_width_numpy_cannot_allocate_is_a_data_error(self, index, comment):
        text = f"{comment}1 {index}:1\n"
        with pytest.raises(DataError, match=f"cannot allocate a 1 x {index} feature"):
            hg.parse_libsvm(text)
        assert (_outcome(hg.parse_libsvm, text)
                == _outcome(models._parse_lines, text))

    def test_blocked_parse_peaks_below_the_line_parser(self, tall_text):
        """On a 20000 x 5 file the blocked parser holds less memory at its
        peak than the line parser; holding every token at once does not."""
        peaks = [_traced_peak(parse, tall_text)
                 for parse in (hg.parse_libsvm, models._parse_lines)]
        assert peaks[0] < peaks[1], peaks

    def test_blocked_parse_peaks_below_the_input_size(self, tall_text):
        """Parsing a file's bytes holds the output and one block's arrays,
        less than the input itself: 1.8 MB of the 2.3 MB of a 20000 x 5
        file. A decoded copy of the input, or every block's pairs kept to
        the end, would each exceed the input's size."""
        data = tall_text.encode()
        assert _traced_peak(hg.parse_libsvm, data) < len(data)


class TestDataset:
    def test_leaves_caller_arrays_writeable_and_unshared(self):
        feats, labels = np.ones((3, 2)), np.ones(3)
        ds = hg.Dataset(feats, labels)
        assert feats.flags.writeable and labels.flags.writeable
        feats[0, 0] = 5.0
        labels[1] = -2.0
        assert np.array_equal(ds.features, np.ones((3, 2)))
        assert np.array_equal(ds.labels, np.ones(3))
        for stored in (ds.features, ds.labels):
            with pytest.raises(ValueError):
                stored[0] = 1.0

    def test_views_are_copied(self):
        base = np.ones((3, 4))
        view = base[:, :2]
        view.setflags(write=False)
        ds = hg.Dataset(view, base[:, 2])
        base[:] = 7.0
        assert np.array_equal(ds.features, np.ones((3, 2)))
        assert np.array_equal(ds.labels, np.ones(3))

    def test_read_only_arrays_are_shared(self):
        other = hg.Dataset(np.ones((3, 2)), np.ones(3))
        ds = hg.Dataset(other.features, other.labels)
        assert ds.features is other.features and ds.labels is other.labels

    @pytest.mark.parametrize("features, labels, match", [
        (np.ones(3), np.ones(3), "inconsistent"),
        (np.ones((3, 2)), np.ones((3, 1)), "inconsistent"),
        (np.ones((3, 2)), np.ones(2), "inconsistent"),
        (np.ones((0, 2)), np.ones(0), "at least one row and one feature"),
        (np.ones((3, 0)), np.ones(3), "at least one row and one feature"),
    ])
    def test_shapes_are_checked(self, features, labels, match):
        with pytest.raises(DataError, match=match):
            hg.Dataset(features, labels)


class TestRidge:
    def test_scalar_fixture_equivalence(self, scalar_fixture):
        # A 1x1 instance with 2 A'A = 1 and 2 A'b = 1 reproduces the scalar
        # fixture: the root is 1/(1 + e^y).
        s = 1.0 / np.sqrt(2.0)
        train = hg.Dataset(np.array([[s]]), np.array([s]))
        problem = hg.make_ridge(train, train, "affine")
        y = np.zeros(1)
        assert problem.exact_root(y)[0] == pytest.approx(0.5, abs=1e-14)
        x = np.array([0.3])
        assert problem.residual(x, y) == pytest.approx(
            scalar_fixture.residual(x, y), abs=1e-14)
        assert problem.jac_x(x, y)[0, 0] == pytest.approx(
            scalar_fixture.jac_x(x, y)[0, 0], abs=1e-14)

    def test_unregularized_limit(self, reg_train, reg_val):
        problem = hg.make_ridge(reg_train, reg_val, "quadratic")
        y = -30.0 * np.ones(problem.d_y)
        root = problem.exact_root(y)
        gram2 = 2.0 * reg_train.features.T @ reg_train.features
        rhs2 = 2.0 * reg_train.features.T @ reg_train.labels
        direct = hg.linear_solve(gram2, rhs2)
        assert np.linalg.norm(root - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_second_x_derivative_vanishes(self, ridge_quadratic):
        rng = np.random.default_rng(1)
        x = rng.normal(size=ridge_quadratic.d_x)
        y = rng.normal(size=ridge_quadratic.d_y)
        u = rng.normal(size=ridge_quadratic.d_x)
        assert np.array_equal(ridge_quadratic.inner.djac_x_dir_x(x, y, u),
                              np.zeros((7, 7)))

    def test_jacobian_positive_definite(self, ridge_quadratic):
        # Cholesky success certifies positive definiteness for every tested y.
        for seed in range(20):
            y = seeded_y(ridge_quadratic, seed, low=-2.0, high=2.0)
            np.linalg.cholesky(ridge_quadratic.jac_x(np.zeros(7), y))

    def test_dimension_mismatch_rejected(self, reg_train):
        bad_val = hg.synthetic_validation_dataset(10, 3, seed=0)
        with pytest.raises(hg.ContractViolation):
            hg.make_ridge(reg_train, bad_val, "quadratic")


class TestOuterObjective:
    def test_hands_out_no_mutable_internals(self, reg_train, reg_val):
        # No array the oracle returns can change the problem after it is built.
        outer = hg.make_ridge(reg_train, reg_val, "affine").outer
        x, y = np.ones(reg_train.d_x), np.zeros(reg_train.d_x)
        value = outer.value(x, y)
        with pytest.raises(ValueError):
            outer.grad_x(x, y)[:] = -1.0
        assert outer.value(x, y) == value
        quadratic = hg.make_ridge(reg_train, reg_val, "quadratic").outer
        with pytest.raises(ValueError):
            quadratic.hess_xx(x, y)[0, 0] = 0.0


    def test_unknown_tag_rejected_by_builders_and_config(self, reg_train, cls_train):
        for build in (lambda: hg.make_ridge(reg_train, reg_train, "bogus"),
                      lambda: hg.make_logistic(cls_train, cls_train, "bogus"),
                      lambda: hg.RunConfig(outer="bogus")):
            with pytest.raises(hg.UsageError, match="unknown outer variant 'bogus'"):
                build()

class TestLogistic:
    def test_single_sample_root_vs_bisection(self):
        # Root of x = sigmoid(-x), bracketed and bisected to 1e-12.
        train = hg.Dataset(np.array([[1.0]]), np.array([1.0]))
        problem = hg.make_logistic(train, train, "affine")
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - float(hg.stable_sigmoid(np.array([-mid]))[0]) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        root = problem.exact_root(np.zeros(1))[0]
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_zero_logits_exact(self, cls_train):
        problem = hg.make_logistic(cls_train, cls_train, "affine")
        y = np.zeros(problem.d_y)
        # The oracles multiply the column-major copy of the features.
        expected = -0.5 * np.asfortranarray(cls_train.features).T @ cls_train.labels
        assert np.array_equal(problem.residual(np.zeros(problem.d_x), y), expected)

    @staticmethod
    def kept_features(monkeypatch, train):
        """The training matrix that make_logistic keeps for its oracles."""
        kept = []
        original = models._column_major

        def spy(features):
            kept.append(original(features))
            return kept[-1]
        monkeypatch.setattr(models, "_column_major", spy)
        hg.make_logistic(train, train, "affine")
        (features,) = kept
        return features

    def test_features_kept_column_major_and_read_only(self, monkeypatch, cls_train):
        features = self.kept_features(monkeypatch, cls_train)
        assert features.flags.f_contiguous and not features.flags.writeable
        assert np.array_equal(features, cls_train.features)
        assert cls_train.features.flags.c_contiguous        # the parser's layout

    def test_column_major_features_not_copied(self, monkeypatch, cls_train):
        fortran = np.asfortranarray(cls_train.features)
        fortran.setflags(write=False)
        train = hg.Dataset(fortran, cls_train.labels)
        features = self.kept_features(monkeypatch, train)
        assert np.shares_memory(features, fortran) and features.flags.f_contiguous

    def test_either_layout_gives_the_same_bits(self, cls_train):
        fortran = np.asfortranarray(cls_train.features)
        fortran.setflags(write=False)
        row_major, column_major = (
            hg.make_logistic(hg.Dataset(a, cls_train.labels), cls_train, "affine")
            for a in (cls_train.features, fortran))
        rng = np.random.default_rng(23)
        x, u = rng.normal(size=5), rng.normal(size=5)
        y = rng.uniform(3.0, 6.0, size=5)
        for method, args in (("residual", (x, y)), ("jac_x", (x, y)),
                             ("djac_x_dir_x", (x, y, u))):
            assert_same_bits(getattr(row_major.inner, method)(*args),
                             getattr(column_major.inner, method)(*args))
        assert_same_bits(row_major.exact_root(y), column_major.exact_root(y))

    def test_sigmoid_at_zero_is_half(self):
        assert hg.stable_sigmoid(np.array([0.0]))[0] == 0.5

    def test_extreme_logits_stay_finite(self):
        big = np.array([800.0, -800.0])
        s = hg.stable_sigmoid(big)
        assert np.all(np.isfinite(s))
        assert s[0] == 1.0 and s[1] == 0.0
        train = hg.Dataset(np.array([[1.0]]), np.array([1.0]))
        problem = hg.make_logistic(train, train, "affine")
        jac = problem.jac_x(np.array([800.0]), np.zeros(1))
        assert np.isfinite(jac).all()

    def test_label_validation(self, cls_train):
        bad = hg.Dataset(cls_train.features, np.abs(cls_train.labels) * 2.0)
        with pytest.raises(DataError):
            hg.make_logistic(bad, cls_train, "affine")

    def test_residual_is_gradient_of_objective(self, logistic_quadratic,
                                               cls_train):
        rng = np.random.default_rng(9)
        x = rng.normal(size=5)
        y = rng.uniform(-1, 1, size=5)
        step = 1e-6
        fd = np.zeros(5)
        for j in range(5):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            fd[j] = (hg.logistic_inner_value(cls_train, hi, y)
                     - hg.logistic_inner_value(cls_train, lo, y)) / (2 * step)
        residual = logistic_quadratic.residual(x, y)
        assert np.linalg.norm(fd - residual) <= 1e-6 * (1 + np.linalg.norm(residual))


def masked_sigmoid(t):
    """The two-branch sigmoid the one-exp kernel must match bit for bit."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def masked_dsigmoid(t):
    s = masked_sigmoid(t)
    return s * masked_sigmoid(-t)


EDGE_LOGITS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
               800.0, -800.0]


def kernel_inputs():
    rng = np.random.default_rng(20)
    yield pytest.param(np.array(EDGE_LOGITS), id="edges")
    for t in EDGE_LOGITS + [-3.5]:
        yield pytest.param(np.array(t), id=f"0-d[{t!r}]")
    for n in (1, 400, 20000):
        t = rng.normal(size=n) * rng.choice([1.0, 30.0, 800.0], size=n)
        yield pytest.param(t, id=f"random[{n}]")


class TestSigmoidKernel:
    @pytest.mark.parametrize("t", list(kernel_inputs()))
    def test_matches_the_masked_forms_bit_for_bit(self, t):
        s, s_neg = models._sigmoid_pair(t)
        assert_same_bits(s, masked_sigmoid(t))
        assert_same_bits(s_neg, masked_sigmoid(-t))
        assert_same_bits(hg.stable_sigmoid(t), masked_sigmoid(t))
        assert_same_bits(s * s_neg, masked_dsigmoid(t))
        # The weight of data_dhess: sigma(t) sigma(-t) (1 - 2 sigma(t)).
        assert_same_bits(s * s_neg * (1.0 - 2.0 * s),
                         masked_dsigmoid(t) * (1.0 - 2.0 * masked_sigmoid(t)))

    def test_logistic_oracles_match_the_masked_forms(self, cls_train):
        problem = hg.make_logistic(cls_train, cls_train, "affine")
        inner = problem.inner
        a, b = np.asfortranarray(cls_train.features), cls_train.labels
        rng = np.random.default_rng(21)
        points = [tuple(rng.normal(size=5) for _ in range(3)) for _ in range(3)]
        for (x, y, u), other in zip(points, points[1:] + points[:1]):
            m = -b * (a @ x)
            data_grad = -a.T @ (b * masked_sigmoid(m))
            data_hess = a.T @ (masked_dsigmoid(m)[:, None] * a)
            w = masked_dsigmoid(m) * (1.0 - 2.0 * masked_sigmoid(m)) * (-b * (a @ u))
            for _ in range(2):      # computed, then again after another point
                assert_same_bits(inner.residual(x, y), data_grad + np.exp(y) * x)
                assert_same_bits(inner.jac_x(x, y), data_hess + np.diag(np.exp(y)))
                assert_same_bits(inner.djac_x_dir_x(x, y, u), a.T @ (w[:, None] * a))
                inner.djac_x_dir_x(*other)

    def test_one_sigmoid_pass_per_point(self, monkeypatch, cls_train):
        passes = []
        original = models._sigmoid_pair

        def spy(t):
            passes.append(t)
            return original(t)
        monkeypatch.setattr(models, "_sigmoid_pair", spy)
        inner = hg.make_logistic(cls_train, cls_train, "affine").inner
        rng = np.random.default_rng(22)
        x, x2, y, u, v = (rng.normal(size=5) for _ in range(5))

        def all_oracles(at):
            inner.residual(at, y)
            inner.jac_x(at, y)
            inner.djac_x_dir_x(at, y, u)
            inner.djac_x_dir_x(at, y, v)
        all_oracles(x)
        assert len(passes) == 1
        all_oracles(x2)
        assert len(passes) == 2
        all_oracles(x)
        assert len(passes) == 3

    def test_a_point_mutated_in_place_is_a_new_point(self, cls_train):
        problem = hg.make_logistic(cls_train, cls_train, "affine")
        rng = np.random.default_rng(23)
        x, y, u = (rng.normal(size=5) for _ in range(3))
        calls = [("residual", ()), ("jac_x", ()), ("djac_x_dir_x", (u,))]
        for method, args in calls:
            getattr(problem.inner, method)(x, y, *args)
            x[0] += 0.5
            fresh = hg.make_logistic(cls_train, cls_train, "affine")
            assert_same_bits(getattr(problem.inner, method)(x, y, *args),
                             getattr(fresh.inner, method)(x, y, *args))


class TestSyntheticDatasets:
    @pytest.mark.parametrize("generator", [
        hg.synthetic_regression_dataset, hg.synthetic_validation_dataset,
        hg.synthetic_classification_dataset])
    def test_arrays_are_handed_over_uncopied(self, monkeypatch, generator):
        kept = []
        original = models._read_only

        def spy(given):
            out = original(given)
            kept.append(out is given)
            return out
        monkeypatch.setattr(models, "_read_only", spy)
        ds = generator(50, 3, seed=1)
        assert kept == [True, True]
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable


class TestSampleY:
    def test_deterministic(self):
        a = hg.sample_y(4, -1.0, 1.0, seed=123)
        b = hg.sample_y(4, -1.0, 1.0, seed=123)
        assert np.array_equal(a, b)

    def test_range(self):
        y = hg.sample_y(100, 3.0, 6.0, seed=5)
        assert np.all(y >= 3.0) and np.all(y < 6.0)

    def test_degenerate_dimension(self):
        with pytest.raises(UsageError):
            hg.sample_y(0, 0.0, 1.0, seed=1)

    def test_bad_interval(self):
        with pytest.raises(UsageError):
            hg.sample_y(2, 1.0, 1.0, seed=1)

    def test_negative_seed(self):
        # Every seeded draw, dataset generators included, goes through
        # rng_from_seed, which names the seed instead of numpy's ValueError.
        with pytest.raises(UsageError, match="seed"):
            hg.rng_from_seed(-1)
        with pytest.raises(UsageError, match="seed"):
            hg.synthetic_regression_dataset(10, 3, seed=-1)
        with pytest.raises(UsageError, match="non-negative"):
            hg.sample_y(3, 0.0, 1.0, -1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "3", None,
                                      np.float64(4.0), np.array([5])])
    def test_non_integer_seed(self, seed):
        # An int or numpy integer, not a bool (True would silently draw
        # with seed 1).
        with pytest.raises(UsageError, match="seed must be an integer"):
            hg.sample_y(3, 0.0, 1.0, seed)
        with pytest.raises(UsageError, match="seed must be an integer"):
            hg.rng_from_seed(seed)

    def test_numpy_integer_seed(self):
        for seed in (np.int64(7), np.uint8(7), np.uint64(7)):
            assert_same_bits(hg.sample_y(3, 0.0, 1.0, seed),
                             hg.sample_y(3, 0.0, 1.0, 7))
            assert_same_bits(hg.rng_from_seed(seed).uniform(size=3),
                             hg.rng_from_seed(7).uniform(size=3))

    def test_bits_equal_numpys_pcg64_uniform(self):
        # sample_y computes Generator(PCG64(seed)).uniform itself; seeds of
        # one to four 32-bit words take different SeedSequence paths.
        seeds = [*range(40), 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1,
                 2**64, 2**64 + 3, 2**96 + 5, 2**100 + 3, 2**128 + 7, 3**90]
        ranges = [(0.0, 1.0), (-1.0, 1.0), (3, 6), (-7, 2), (-1e-3, 1e-3),
                  (1e300, 1.5e300)]
        sizes = [1, 2, 3, 5, 20, 61, 4096]
        for i, seed in enumerate(seeds):
            for j, (low, high) in enumerate(ranges):
                n = sizes[(i + j) % len(sizes)]
                expected = np.random.Generator(np.random.PCG64(seed)).uniform(
                    low, high, n)
                assert_same_bits(hg.sample_y(n, low, high, seed), expected)

    def test_draw_costs_less_than_the_numpy_random_import(self):
        # The 4096-value draw, best of three, against importing numpy.random
        # in the same fresh interpreter.
        code = ("import time\n"
                "import numpy\n"
                "from hygrad.seeding import _pcg64_uniform\n"
                "draw = []\n"
                "for _ in range(3):\n"
                "    t = time.perf_counter()\n"
                "    _pcg64_uniform(2**64 + 3, -1.0, 1.0, 4096)\n"
                "    draw.append(time.perf_counter() - t)\n"
                "t = time.perf_counter()\n"
                "import numpy.random\n"
                "print(min(draw), time.perf_counter() - t)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(models.__file__))),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        draw_s, import_s = map(float, proc.stdout.split())
        assert draw_s < import_s, (draw_s, import_s)


class TestFixtures:
    def test_scalar_ridge_closed_forms(self, scalar_fixture):
        y = np.zeros(1)
        assert scalar_fixture.exact_root(y)[0] == 0.5
        assert np.linalg.norm(scalar_fixture.residual(
            scalar_fixture.exact_root(y), y)) <= 1e-15

    def test_linear1d_closed_forms(self, linear1d_fixture):
        y = np.array([0.7])
        root = linear1d_fixture.exact_root(y)
        assert root[0] == pytest.approx(np.exp(-0.7), abs=1e-15)
        assert abs(linear1d_fixture.residual(root, y)[0]) <= 1e-15
