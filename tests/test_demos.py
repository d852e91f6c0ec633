"""Every demo's standard output against demos/expected/<demo>.txt.

The root conftest.py puts src on the demos' PYTHONPATH. Outputs are
compared whitespace-separated token by token: the text in a token must
match exactly, and so must each integer (a count or an index). Each other
number must agree within 1e-10 plus one unit in its last printed digit, so
round-off in a printed column that should be zero (1.89e-34 against
-2.1e-33) passes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9]*.py"))
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def last_digit_unit(number: str) -> float:
    mantissa, _, exponent = number.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def token_mismatch(got: str, want: str) -> bool:
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return True
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0 or w.lstrip("+-").isdigit():  # text or an integer
            if g != w:
                return True
        elif abs(float(g) - float(w)) > 1e-10 + last_digit_unit(w):
            return True
    return False


def test_every_demo_has_an_expected_output():
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [p.stem for p in DEMOS]


def test_token_comparison_tolerates_only_the_last_digit():
    assert not token_mismatch("1.89e-34", "-2.1e-33")
    assert not token_mismatch("-1.006564;", "-1.006563;")
    assert token_mismatch("-1.006565;", "-1.006563;")
    assert token_mismatch("-1.006563,", "-1.006563;")
    assert token_mismatch("6,", "5,")
    assert token_mismatch("H3", "H2")


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_unchanged(demo):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = run.stdout.split()
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text().split()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if token_mismatch(g, w)]
    assert not bad, bad[:10]
