"""The stacked FCIDUMP reader against the record-by-record oracle.

Each case mutates the shipped fixtures (and, for load_sweep, a manifest over
them): records are dropped, duplicated, reordered, given edited indices,
non-finite, malformed, conflicting or equal values, or a wrong field count;
files lose all records, gain blank lines or non-UTF-8 bytes, or get another
header. parse_fcidump and load_sweep must then give the oracle's tensors bit
for bit, or raise the same exception type with the same message.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fcidump_oracle as oracle
from vcsqse.molecule import load_sweep, parse_fcidump

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [(ROOT / "fixtures/h2_sto3g/h2_sto3g_r0.7414.fcidump").read_text()] + [
    path.read_text() for path in sorted((ROOT / "fixtures/h2_sto6g").glob("*.fcidump"))[::9]]
VALUES = ["nan", "inf", "-inf", "1e400", "1e300", "-1e300", "0.0", "-0.0", "5e-324", "abc",
          "1.0.0", "0x10", "1_0", "+.5"]
INDICES = ["0", "-1", "3", "-7", "99999999999999999999999", "1.5", "x", "+1", "1_0", "2"]
HEADERS = [
    "&FCI NORB=2,NELEC=2,MS2=0,\n&END",
    "&FCI NORB= 2, NELEC=2,\n MS2=0, ORBSYM=1,1,\n ISYM=1,\n /",
    "&FCI NORB=2 NELEC=2 MS2=0 ORBSYM=1 1 ISYM=1 &END",
    "&FCI NORB=2,NELEC=2,MS2=0&end",
    "&fci NORB=2,NELEC=2,MS2=0/",
    "&FCI NORB=1,NELEC=2,MS2=0,\n&END",
    "&FCI NORB=3,NELEC=2,MS2=0,\n&END",
    "&FCI NORB=7,NELEC=2,MS2=0,\n&END",
    "&FCI NORB=2,NELEC=2,\n&END",
    "&FCI NORB=,NELEC=2,MS2=0\n&END",
    "&FCI NORB=2,NELEC=,MS2=0,NELEC=2\n&END",
    "&FCI NORB=x,NELEC=2,MS2=0\n&END",
    "&FCI NORB=2,NELEC=3,MS2=0\n&END",
    "&FCI NORB=2,NELEC=2,MS2=0,",
    "NORB=2,NELEC=2,MS2=0\n&END",
]

# (kind, record, position, choice), each of the last three taken modulo what it picks from
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["drop", "dup", "swap", "index", "value", "conflict", "fields", "blank",
                     "clear", "header"]),
    st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)), max_size=4)


def mutate(text, mutations):
    """FCIDUMP text with each mutation applied to its header or records in turn."""
    lines = text.splitlines()
    end = next(ln for ln, line in enumerate(lines) if line.strip().upper().endswith("&END"))
    header, records = "\n".join(lines[:end + 1]), lines[end + 1:]
    for kind, i, j, k in mutations:
        if kind == "header":
            header = HEADERS[k % len(HEADERS)]
        elif kind == "clear":
            records = []
        elif kind == "blank":
            records.insert(i % (len(records) + 1), " " * (k % 3))
        elif not records:
            continue
        else:
            i, j = i % len(records), j % len(records)
            fields = records[i].split()
            if kind == "drop":
                del records[i]
            elif kind == "dup":
                records.insert(j, records[i])
            elif kind == "swap":
                records[i], records[j] = records[j], records[i]
            elif kind == "index" and len(fields) == 5:
                fields[1 + j % 4] = INDICES[k % len(INDICES)]
                records[i] = " ".join(fields)
            elif kind == "value" and fields:
                records[i] = " ".join([VALUES[k % len(VALUES)]] + fields[1:])
            elif kind == "conflict" and fields:
                records.insert(j, " ".join([repr(0.25 * (k + 1))] + fields[1:]))
            elif kind == "fields":
                records[i] = " ".join(fields[:-1] if k % 2 else fields + ["1"])
    return "\n".join([header] + records) + "\n"


def summary(ints):
    return (ints.norb, ints.nelec, ints.ms2, np.float64(ints.core_energy).tobytes(),
            ints.one_body.tobytes(), ints.two_body.tobytes(), ints.one_body.flags.c_contiguous,
            ints.two_body.flags.c_contiguous)


def outcome(fn, arg, summarize):
    """The summary of fn(arg), or the type and message of what it raised."""
    try:
        return summarize(fn(arg))
    except Exception as exc:  # whatever the oracle raises is the expectation
        return type(exc), str(exc)


@seed(1603)
@settings(max_examples=250, deadline=None, database=None)
@given(source=st.integers(0, len(SOURCES) - 1), mutations=MUTATIONS)
def test_parse_fcidump_matches_the_oracle(source, mutations):
    text = mutate(SOURCES[source], mutations)
    assert outcome(parse_fcidump, text, summary) == outcome(oracle.parse_fcidump, text, summary)


BAD_BOND_LENGTHS = ["abc", "-1", "0", "inf", "nan", "1e-300"]
MANIFEST_LINES = st.lists(st.tuples(
    st.integers(0, len(SOURCES) - 1), MUTATIONS,
    st.sampled_from(["ok"] * 6 + ["missing", "extra_field", "comment", "non_utf8", "bad_r",
                                  "repeated_r"]),
    st.integers(0, 11)), min_size=2, max_size=4)


def sweep_summary(points):
    return [(pt.bond_length, pt.label, summary(pt.integrals)) for pt in points]


@seed(1603)
@settings(max_examples=150, deadline=None, database=None)
@given(lines=MANIFEST_LINES)
def test_load_sweep_matches_the_oracle(lines):
    """Every manifest line's error and order of checks, over mutated fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp).resolve()
        manifest = []
        for k, (source, mutations, line_kind, choice) in enumerate(lines):
            name = f"f{k}.fcidump"
            data = mutate(SOURCES[source], mutations).encode()
            if line_kind == "non_utf8":
                data = data.replace(b"\n", b"\n\xff ", 1 + choice % 2)
            (base / name).write_bytes(data)
            r = {"bad_r": BAD_BOND_LENGTHS[choice % len(BAD_BOND_LENGTHS)],
                 "repeated_r": f"{3.0 - choice % 3 / 2}"}.get(line_kind, f"{3.0 - k / 2}")
            entry = f"{r} {'gone.fcidump' if line_kind == 'missing' else name}"
            manifest.append({"extra_field": entry + " 1", "comment": f"# {k}\n{entry} # R\n"}
                            .get(line_kind, entry))
        (base / "sweep.manifest").write_text("\n".join(manifest) + "\n")
        path = base / "sweep.manifest"
        assert (outcome(load_sweep, path, sweep_summary)
                == outcome(oracle.load_sweep, path, sweep_summary))
