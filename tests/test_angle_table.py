"""The angle scan's table-free bound and its table rows filled on demand."""

import math

import numpy as np

from corrset import checks
from corrset.checks import ScanResult, _grid_axis, _pair_sum_table, angle_sum_max_scan

# the default angle scan's result, as check-lemmas prints it
DEFAULT_ANGLE_SCAN = ScanResult(
    0.02,
    -1.554312234475219e-14,
    (-1.541592653589793, 1.558407346410207, 1.558407346410207),
    0,
)


def test_arcsin_never_exceeds_the_table_free_cap():
    # the angle scan bounds a bucket without its table row by taking every
    # folded value as at most _ARCSIN_CAP, fl(pi/2); np.arcsin gives exactly
    # that at 1, and nothing larger at or next to +-1, on a dense sweep
    # below 1, or on the sines of the default grid's table of totals
    cap = checks._ARCSIN_CAP
    assert cap == 0.5 * math.pi == float(np.arcsin(1.0)) == -float(np.arcsin(-1.0))
    below_one = [1.0]
    for _ in range(256):
        below_one.append(np.nextafter(below_one[-1], 0.0))
    axis = _grid_axis(math.pi, 0.02)
    heads = _pair_sum_table(axis)[2]
    table = np.sin(heads[:, None] + axis).ravel()
    values = np.concatenate([below_one, np.linspace(0.999, 1.0, 200_001), table])
    for sign in (1.0, -1.0):
        angles = np.arcsin(sign * values)
        assert angles.max() <= cap and angles.min() >= -cap


def test_angle_scan_fills_each_table_row_once_and_few(monkeypatch):
    # the table-free bounds leave 591 of the default grid's 2,016 pair sums
    # without a table row; a row is filled once at most, and the result is
    # still the pinned one
    sines = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def sin(x, *args, **kwargs):
            sines.append(np.array(x))
            return np.sin(x, *args, **kwargs)

    monkeypatch.setattr(checks, "np", RecordingNumpy())
    assert angle_sum_max_scan() == DEFAULT_ANGLE_SCAN
    axis = _grid_axis(math.pi, 0.02)
    heads = _pair_sum_table(axis)[2]
    row_of = {row.tobytes(): p for p, row in enumerate(heads[:, None] + axis)}
    assert len(row_of) == heads.size == 2_016
    filled = [row_of[row.tobytes()] for x in sines if x.ndim == 2 for row in x]
    assert len(set(filled)) == len(filled) <= 1_425
