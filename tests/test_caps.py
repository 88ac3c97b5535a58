"""tools/ci_caps.py: its rows parse, and its harness fails a row on each check.

Only tiny `python -c` children run here; the heavy rows run in CI.
"""

import importlib.util
from pathlib import Path

import pytest

from atlab import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci_caps", ROOT / "tools" / "ci_caps.py")
ci_caps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_caps)

ERR = "import sys; print('error: bad', file=sys.stderr); "


def test_cli_rows_parse():
    ap, _ = cli.build_parser()
    rows = [argv for argv, *_ in ci_caps.ROWS if argv[:2] == ci_caps.CLI]
    assert len(rows) >= 10
    for argv in rows:
        ap.parse_args(argv[2:])  # a renamed or removed flag exits 2 here


@pytest.mark.parametrize("row, ok", [
    ((["-c", "pass"], 0, None, None), True),
    ((["-c", ERR + "sys.exit(2)"], 2, None, None), True),
    ((["-c", "pass"], 1, None, None), False),  # wrong exit
    ((["-c", "import sys; print('oops', file=sys.stderr); sys.exit(2)"], 2, None, None),
     False),  # not an error line
    ((["-c", "pass"], 0, 1, None), False),  # peak above a 1 MiB cap
    ((["-c", ERR + "print('error: again', file=sys.stderr); sys.exit(2)"], 2, None, None),
     False),  # two lines
    ((["-c", "open('left.txt', 'w').close(); " + ERR + "sys.exit(2)"], 2, None, None),
     False),  # a file left behind
])
def test_harness_checks(tmp_path, capsys, row, ok):
    assert ci_caps.run_row(*row, str(tmp_path)) is ok
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("ok: " if ok else "FAIL: ")


def test_main_names_the_failed_row(capsys):
    rows = [(["-c", "pass"], 0, None, None), (["-c", "import sys; sys.exit(1)"], 0, None, None)]
    assert ci_caps.main(rows) == 1
    out = capsys.readouterr().out
    assert out.startswith("ok: -c pass: exit 0") and "FAIL: -c 'import sys; sys.exit(1)': exit 1" in out
    assert ci_caps.main(rows[:1]) == 0
