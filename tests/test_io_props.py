"""Round-trip properties of the two file formats the CLI writes: measure JSON
(from the CLI and from `fourier.write_measure`) and packed name batches; and the
invariants of the measure transforms (`arcsine`, `arcsine4`, `subsample`), whose
results round-trip through `measure KIND --in` too.

Every property runs under one deterministic hypothesis profile, so the suite
draws the same examples on every run.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlab import cli, fourier, systems

PROPS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def tables(draw):
    """Hermitian tables with |c(n)| < 1, c(0) = 1, any finite tail bound and label."""
    N = draw(st.integers(0, 30))
    part = st.floats(-0.7, 0.7)
    re = draw(st.lists(part, min_size=N, max_size=N))
    im = draw(st.lists(part, min_size=N, max_size=N))
    nn = np.concatenate([[1.0], np.array(re) + 1j * np.array(im)])
    tail = draw(st.floats(0.0, 1e300))
    return fourier.FourierTable.from_nonneg(nn, tail_bound=tail, label=draw(st.text(max_size=12)))


@PROPS
@given(t=tables())
def test_measure_json_round_trip(t):
    """The JSON `atlab measure` prints reads back to the same table, exactly."""
    back = fourier.table_from_json_obj(json.loads("".join(fourier.table_json_pieces(t))))
    assert back.half_width == t.half_width
    assert back.tail_bound == t.tail_bound
    assert back.label == t.label
    assert np.array_equal(back.coeffs, t.coeffs)


def ref_json_obj(t):
    """The measure object as written before the table text came in pieces: the
    byte reference of `fourier.table_json_pieces`."""
    nn = t.coeffs
    return {
        "label": t.label,
        "half_width": t.half_width,
        "tail_bound": t.tail_bound,
        "coeffs": [[int(n), float(nn[n].real), float(nn[n].imag)]
                   for n in range(t.half_width + 1)],
    }


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.0, -1.0]


@st.composite
def edge_tables(draw):
    """Tables with -0.0, subnormal and +-1 parts, and labels that JSON escapes."""
    N = draw(st.integers(0, 30))
    part = st.one_of(st.sampled_from(_SPECIAL), st.floats(-0.7, 0.7))
    # |c(n)| <= 1: a part of size 1 goes with an imaginary part of size at most 5e-324
    small = st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
    pairs = st.lists(part.flatmap(lambda re: st.tuples(
        st.just(re), small if abs(re) > 0.7 else part.filter(lambda im: abs(im) <= 0.7))),
        min_size=N, max_size=N)
    nn = [complex(1.0, 0.0)] + [complex(re, im) for re, im in draw(pairs)]
    tail = draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1e300)))
    label = draw(st.one_of(st.text(max_size=12),
                           st.sampled_from(['say "hi"', "back\\slash", "caf\u00e9 \u2603 \U0001f600",
                                            "tab\tnew\nline"])))
    return fourier.FourierTable.from_nonneg(nn, tail_bound=tail, label=label)


def _pieces_match_reference(t):
    pieces = list(fourier.table_json_pieces(t))
    assert all(type(p) is str for p in pieces)
    assert "".join(pieces) == json.dumps(ref_json_obj(t), allow_nan=False) + "\n"
    return pieces


@PROPS
@given(t=edge_tables())
@example(t=fourier.FourierTable.from_nonneg([1.0, -0.0, 5e-324 - 0.0j, -1.0], tail_bound=0,
                                            label='q"\\\u00e9'))
def test_table_pieces_are_the_reference_bytes(t):
    """The joined pieces are json.dumps of the measure object, byte for byte."""
    _pieces_match_reference(t)


@pytest.mark.parametrize("N", [2**16 - 1, 2**16, 2**16 + 1])
def test_table_pieces_across_a_piece_boundary(N):
    vals = np.array(_SPECIAL + [0.3, -0.5])
    nn = vals[np.arange(N + 1) % vals.size] + 1j * (-0.0)
    nn[0] = 1.0
    t = fourier.FourierTable.from_nonneg(nn, tail_bound=1e-300, label="edge")
    pieces = _pieces_match_reference(t)
    # the head, one piece per 2^16 coefficients, and the closing brackets
    assert len(pieces) == 2 + -(-(N + 1) // 2**16)


@PROPS
@given(t=tables())
def test_write_measure_round_trip(tmp_path_factory, t):
    """write_measure then read_measure gives the same table, exactly, and the
    file holds the bytes that `atlab measure --out` writes for that table."""
    d = tmp_path_factory.mktemp("measure")
    fourier.write_measure(t, d / "t.json")
    back = fourier.read_measure(d / "t.json")
    assert (back.half_width, back.tail_bound, back.label) == (t.half_width, t.tail_bound, t.label)
    assert np.array_equal(back.coeffs, t.coeffs)
    # `measure subsample --m 1` writes the table it reads, relabelled
    argv = ["measure", "subsample", "--m", "1", "--in", str(d / "t.json"), "--out", str(d / "cli.json")]
    assert cli.main(argv) == 0
    fourier.write_measure(fourier.power_subsample(t, 1), d / "sub.json")
    assert (d / "sub.json").read_bytes() == (d / "cli.json").read_bytes()


@PROPS
@given(t=edge_tables())
@example(t=fourier.FourierTable.from_nonneg([1.0, complex(0.5, -0.0)], label="negative zero"))
def test_write_read_write_keeps_bytes_and_dtype(tmp_path_factory, t):
    """A file read back writes the same bytes, and its table is float64 exactly when
    every imaginary part in it is +0.0: a -0.0 keeps the table complex128."""
    d = tmp_path_factory.mktemp("bytes")
    fourier.write_measure(t, d / "a.json")
    back = fourier.read_measure(d / "a.json")
    fourier.write_measure(back, d / "b.json")
    assert (d / "b.json").read_bytes() == (d / "a.json").read_bytes()
    im = np.array([row[2] for row in json.loads((d / "a.json").read_text())["coeffs"]])
    real = not (np.any(im) or np.any(np.signbit(im)))
    assert back.coeffs.dtype == (np.float64 if real else np.complex128)
    assert t.coeffs.dtype == back.coeffs.dtype


# arguments of each `measure` kind; the transforms read a sqrt table
_MEASURE_ARGV = {
    "lebesgue": ["--N", "9"],
    "dirac": ["--N", "9"],
    "riesz": ["--N", "40", "--a", "0.5,-0.25,-0.0", "--freq", "2,7,30"],
    "sqrt": ["--N", "9", "--c", "0.3"],
    "arcsine": ["--in", "sqrt.json"],
    "arcsine4": ["--in", "sqrt.json"],
    "subsample": ["--m", "3", "--in", "sqrt.json"],
}


def test_measure_argv_covers_every_kind():
    assert set(_MEASURE_ARGV) == set(cli._MEASURES)


@pytest.mark.parametrize("kind", sorted(_MEASURE_ARGV))
def test_every_measure_kind_is_float64_and_keeps_its_bytes(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["measure", "sqrt", "--N", "9", "--c", "0.3", "--out", "sqrt.json"]) == 0
    assert cli.main(["measure", kind, *_MEASURE_ARGV[kind], "--out", "t.json"]) == 0
    t = fourier.read_measure("t.json")
    assert t.coeffs.dtype == np.float64
    fourier.write_measure(t, "back.json")
    assert (tmp_path / "back.json").read_bytes() == (tmp_path / "t.json").read_bytes()


@st.composite
def real_tables(draw):
    """Real tables with |c(n)| < 1 off the origin, the input the arcsine kinds
    take with tail 0; the tail is drawn as often below 1 - max |c(n >= 1)|,
    where they take it too, as anywhere up to 1e300."""
    N = draw(st.integers(0, 30))
    vals = draw(st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                         min_size=N, max_size=N))
    rho = max(map(abs, vals), default=0.0)
    tail = draw(st.one_of(st.floats(0.0, 1.0 - rho), st.floats(0.0, 1e300)))
    return fourier.FourierTable.from_nonneg([1.0, *vals], tail_bound=tail,
                                            label=draw(st.text(max_size=12)))


_ARCSINE = {"arcsine": fourier.arcsine_transform, "arcsine4": fourier.arcsine_fourth_transform}


@PROPS
@given(t=real_tables(), kind=st.sampled_from(sorted(_ARCSINE)))
def test_arcsine_transforms_keep_the_frame_and_shrink(t, kind):
    if _arcsine_refuses(t):
        with pytest.raises(ValueError, match="tail_bound < 1"):
            _ARCSINE[kind](t)
        return
    out = _ARCSINE[kind](t)
    assert out.at(0) == 1.0
    assert out.half_width == t.half_width
    # a tail of 0 stays 0; a positive one is scaled by max(1, slope) >= 1
    assert out.tail_bound == 0.0 if t.tail_bound == 0.0 else out.tail_bound >= t.tail_bound
    assert np.all(np.abs(out.coeffs) <= np.abs(t.coeffs))


def _arcsine_refuses(t):
    """A positive tail with max |c(n >= 1)| + tail_bound >= 1 once rounded up."""
    rho = float(np.max(np.abs(t.coeffs[1:]), initial=0.0))
    return t.tail_bound > 0.0 and rho + t.tail_bound >= 1.0 - 2.0**-53


@PROPS
@given(vals=st.lists(st.floats(-0.99, 0.99), max_size=30),
       weights=st.lists(st.floats(-1.0, 1.0), max_size=40),
       frac=st.floats(1e-6, 1.0), share=st.floats(0.0, 0.999),
       kind=st.sampled_from(sorted(_ARCSINE)))
@example(vals=[0.8], weights=[1.0], frac=1.0, share=0.999, kind="arcsine")
@example(vals=[-0.9, 0.1], weights=[-1.0], frac=1.0, share=0.999, kind="arcsine4")
def test_arcsine_tail_covers_a_perturbed_table(vals, weights, frac, share, kind):
    """A true table c + Delta, Delta real with sum_n |Delta(n)| = share T over
    both signs (on stored lags and past N alike), maps to within the
    transform's tail of the mapped table: sum_n |map(c + Delta) - map(c)| <= tail."""
    rho = max(map(abs, vals), default=0.0)
    T = frac * (1.0 - rho) * 0.999
    t = fourier.FourierTable.from_nonneg([1.0, *vals], tail_bound=T)
    out = _ARCSINE[kind](t)
    w = np.array(weights)
    norm = 2.0 * float(np.sum(np.abs(w)))
    delta = w * (share * T / norm) if norm > 0.0 else w
    width = max(len(vals), len(delta))
    c = np.zeros(width)
    c[:len(vals)] = vals
    c[:len(delta)] += delta
    true = _ARCSINE[kind](fourier.FourierTable.from_nonneg([1.0, *c]))
    mapped = np.zeros(width + 1)
    mapped[:out.half_width + 1] = out.coeffs.real
    assert 2.0 * float(np.sum(np.abs(true.coeffs.real - mapped))) <= out.tail_bound


@PROPS
@given(t=real_tables(), m=st.integers(1, 40))
def test_power_subsample_keeps_every_mth_coefficient(t, m):
    out = fourier.power_subsample(t, m)
    assert out.half_width == t.half_width // m
    assert out.tail_bound == t.tail_bound
    assert [out.at(n) for n in range(out.half_width + 1)] == [
        t.at(m * n) for n in range(out.half_width + 1)]


@PROPS
@given(t=real_tables(), kind=st.sampled_from(["arcsine", "arcsine4", "subsample"]),
       m=st.integers(1, 40))
def test_transforms_round_trip_through_measure_in(tmp_path_factory, t, kind, m):
    """`atlab measure KIND --in` writes the library's transform, and it reads
    back to the same table, exactly."""
    d = tmp_path_factory.mktemp("transform")
    fourier.write_measure(t, d / "in.json")
    argv = ["measure", kind, "--m", str(m), "--in", str(d / "in.json"),
            "--out", str(d / "out.json")]
    if kind != "subsample" and _arcsine_refuses(t):
        assert cli.main(argv) == 2
        assert not (d / "out.json").exists()
        return
    assert cli.main(argv) == 0
    want = fourier.power_subsample(t, m) if kind == "subsample" else _ARCSINE[kind](t)
    back = fourier.read_measure(d / "out.json")
    assert (back.half_width, back.tail_bound, back.label) == (
        want.half_width, want.tail_bound, want.label)
    assert np.array_equal(back.coeffs, want.coeffs)


@PROPS
@given(data=st.data())
def test_names_round_trip(tmp_path_factory, data):
    count = data.draw(st.integers(0, 12))
    length = data.draw(st.integers(0, 70))
    flat = data.draw(st.lists(st.integers(0, 1), min_size=count * length,
                              max_size=count * length))
    bits = np.array(flat, dtype=np.uint8).reshape(count, length)
    path = tmp_path_factory.mktemp("names") / "batch.bin"
    # the packed step rows that NameSource.sample_names returns
    systems.write_name_blocks((np.packbits(bits.T, axis=1),), count, length, path)
    back = systems.read_names(path)
    assert back.shape == (count, length)
    assert np.array_equal(back, bits)
