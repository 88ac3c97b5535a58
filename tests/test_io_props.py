"""Round-trip properties of the two file formats the CLI writes: measure JSON
and packed name batches.

Every property runs under one deterministic hypothesis profile, so the suite
draws the same examples on every run.
"""

import json

import numpy as np
from hypothesis import given, settings
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
    back = fourier.table_from_json_obj(json.loads(cli.render_json(fourier.table_to_json_obj(t))))
    assert back.half_width == t.half_width
    assert back.tail_bound == t.tail_bound
    assert back.label == t.label
    assert np.array_equal(back.coeffs, t.coeffs)


@PROPS
@given(data=st.data())
def test_names_round_trip(tmp_path_factory, data):
    count = data.draw(st.integers(0, 6))
    length = data.draw(st.integers(0, 70))
    flat = data.draw(st.lists(st.integers(0, 1), min_size=count * length,
                              max_size=count * length))
    bits = np.array(flat, dtype=np.uint8).reshape(count, length)
    path = tmp_path_factory.mktemp("names") / "batch.bin"
    systems.write_names(bits, path)
    back = systems.read_names(path)
    assert back.shape == (count, length)
    assert np.array_equal(back, bits)
