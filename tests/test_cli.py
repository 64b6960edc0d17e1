import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritylab import crypto, distributions, suites
from paritylab.bp import to_json_dict
from paritylab.cli import _json_text, build_parser, dispatch, emit_report, key_from_hex, key_to_hex
from paritylab.distributions import BoundCheck, FourierCheck
from paritylab.generators import random_program
from paritylab.gf2 import BitVector

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(capsys, *args):
    code = dispatch(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_prints_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "6", "--k", "4", "--m", "3")
        assert code == 0 and out == "0.28125\n"

    def test_overflow_prints_inf(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--n", "200", "--k", "0", "--m", "1000000")
        assert code == 0 and out == "inf\n" and err == ""

    def test_exponent_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "100",
                               "--c", "0.04", "--alpha", "0.01")
        doc = json.loads(out)
        assert code == 0 and doc["condition_holds"]

    def test_missing_flags_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--n", "4")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


class TestCryptoCommands:
    def test_keygen_encrypt_decrypt_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "crypto", "keygen", "--n", "8", "--seed", "7")
        assert code == 0
        key = json.loads(out)["key"]
        src = tmp_path / "msg.bin"
        enc = tmp_path / "msg.bsc"
        dec = tmp_path / "msg.out"
        src.write_bytes(b"the magic words are squeamish ossifrage")
        code, _, _ = run_cli(capsys, "crypto", "encrypt", "--key", key, "--n", "8",
                             "--in", str(src), "--out", str(enc), "--seed", "9")
        assert code == 0
        code, _, _ = run_cli(capsys, "crypto", "decrypt", "--key", key, "--n", "8",
                             "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == src.read_bytes()

    def test_header_n_limit(self, tmp_path, capsys):
        """n = 65535, the largest n the 2-byte header holds, round-trips;
        n = 65536 stops keygen, and encrypt before the output file is
        opened, with the same error line."""
        src = tmp_path / "msg.bin"
        enc = tmp_path / "msg.bsc"
        dec = tmp_path / "msg.out"
        src.write_bytes(b"xy")
        _, out, _ = run_cli(capsys, "crypto", "keygen", "--n", "65535", "--seed", "7")
        key = json.loads(out)["key"]
        assert run_cli(capsys, "crypto", "encrypt", "--key", key, "--n", "65535", "--in",
                       str(src), "--out", str(enc), "--seed", "9")[0] == 0
        assert run_cli(capsys, "crypto", "decrypt", "--key", key, "--n", "65535", "--in",
                       str(enc), "--out", str(dec))[0] == 0
        assert dec.read_bytes() == src.read_bytes()
        enc.unlink()
        limit = "error: n = 65536 exceeds the stream header's 2-byte limit (n <= 65535)"
        code, out, err = run_cli(capsys, "crypto", "keygen", "--n", "65536", "--seed", "7")
        assert (code, out, err.splitlines()) == (1, "", [limit])
        code, _, err = run_cli(capsys, "crypto", "encrypt", "--key", "00" * 8192,
                               "--n", "65536", "--in", str(src), "--out", str(enc),
                               "--seed", "9")
        assert code == 1
        assert err.splitlines() == [limit]
        assert not enc.exists()

    def test_attack_report(self, tmp_path, capsys):
        out_path = tmp_path / "attack.json"
        code, _, _ = run_cli(capsys, "crypto", "attack", "--n", "5",
                             "--memory-bits", "60", "--m", "10",
                             "--trials", "300", "--seed", "3",
                             "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert 0.0 <= doc["key_guess_rate"] <= 1.0

    def test_attack_huge_memory_bits(self, tmp_path, capsys):
        """A window budget of 10^20 bits keeps all m = 3 samples: the
        report equals the one at m * (n+1) bits but for attacker and
        memory_bits."""
        docs = []
        for bits in (10 ** 20, 3 * 5):
            out = tmp_path / f"attack{bits}.json"
            code, _, err = run_cli(capsys, "crypto", "attack", "--n", "4", "--memory-bits",
                                   str(bits), "--m", "3", "--trials", "5", "--seed", "1",
                                   "--out", str(out))
            assert (code, err) == (0, "")
            docs.append(json.loads(out.read_text()))
        huge, exact = docs
        assert (huge.pop("attacker"), huge.pop("memory_bits")) == (f"window[{10 ** 20 // 5}]", 10 ** 20)
        assert (exact.pop("attacker"), exact.pop("memory_bits")) == ("window[3]", 15)
        assert huge == exact

    def test_key_hex_round_trip(self):
        x = BitVector.from_string("1011001")
        assert key_from_hex(key_to_hex(x), 7) == x

    def test_key_hex_round_trip_large_n(self):
        """2^20 bits: the hex form reverses the bit order in linear time."""
        n = 1 << 20
        x = crypto.random_vector(n, np.random.default_rng(5))
        text = key_to_hex(x)
        assert len(text) == n // 4
        assert int(text[0], 16) >> 3 == x.bits & 1  # coordinate 1 leads
        assert key_from_hex(text, n) == x

    @pytest.mark.parametrize("text,n", [("f1", 4), ("5e", 4), ("01", 7), ("ff01", 15)])
    def test_key_hex_padding_must_be_zero(self, text, n):
        """A bit set past coordinate n is refused, not dropped: f1 and f0
        are not the same n = 4 key."""
        with pytest.raises(ValueError, match=f"^key sets bits past coordinate {n}$"):
            key_from_hex(text, n)

    def test_key_hex_refuses_each_padding_bit(self):
        """Every n <= 17 and every padding bit: one line, naming n."""
        for n in range(1, 18):
            text = key_to_hex(BitVector(n, (1 << n) - 1))
            for pad in range(-n % 8):
                raw = bytearray.fromhex(text)
                raw[-1] |= 1 << pad
                with pytest.raises(ValueError, match=f"^key sets bits past coordinate {n}$"):
                    key_from_hex(raw.hex(), n)

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_longer_key_refused(self, tmp_path, capsys, command):
        """keygen's n = 7 key 5e, given to an n = 4 command: exit 1 with
        one line, and no output file."""
        code, out, _ = run_cli(capsys, "crypto", "keygen", "--n", "7", "--seed", "1")
        key = json.loads(out)["key"]
        assert (code, key) == (0, "5e")
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        src.write_bytes(b"x")
        seed = ["--seed", "1"] if command == "encrypt" else []
        code, _, err = run_cli(capsys, "crypto", command, "--key", key, "--n", "4",
                               "--in", str(src), "--out", str(dst), *seed)
        assert code == 1 and not dst.exists()
        assert err.splitlines() == ["error: key sets bits past coordinate 4"]


class TestReduceCommand:
    def test_reduce_file_round_trip(self, tmp_path, capsys):
        bp = random_program(2, 2, 3, np.random.default_rng(0))
        src = tmp_path / "prog.json"
        src.write_text(json.dumps(to_json_dict(bp)))
        out = tmp_path / "affine.json"
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "reduce", "--in", str(src), "--r", "2.0",
                             "--out", str(out), "--report", str(report))
        assert code == 0
        doc = json.loads(out.read_text())
        assert "labels" in doc and "gamma" in doc
        rep = json.loads(report.read_text())
        assert rep["all_ok"] is True

    @pytest.mark.parametrize("doc, field", [
        ({"n": 2, "m": 1}, "layer_sizes"),
        ({"n": 2, "m": 1, "layer_sizes": [1, 1]}, "transitions"),
        ({"n": 2, "m": 1, "layer_sizes": [1, 1], "transitions": 5,
          "leaf_labels": {}}, "transitions"),
        ({"n": 2, "m": 1, "layer_sizes": [1, 1], "transitions": [[[0] * 8]],
          "leaf_labels": {"1,0": 7}}, "leaf_labels"),
        ({"n": "two", "m": 1}, "n"),
        ({"n": 2.9, "m": 1}, "n"),
        ([1, 2], "object"),
    ])
    def test_malformed_input_one_line_error(self, tmp_path, doc, field):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-m", "paritylab.cli", "reduce", "--in", str(src),
                               "--r", "1.5"], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:")
        assert field in proc.stderr


class TestVerifyLemmas:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "suites.json"
        code, _, _ = run_cli(capsys, "verify-lemmas", "--n", "3", "--r", "2.25",
                             "--seed", "7", "--trials", "12", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] and set(doc["suites"]) == {"fourier", "partition",
                                                    "reduction", "reach_bound"}

    def test_r_runs_each_suite_once(self, capsys, monkeypatch):
        """With --r, the Fourier and partition suites run once, at the
        single (n, r) cell, and the report is the four suites' reports."""
        seed, trials, n, r = 7, 12, 3, 2.25
        expected = {
            "fourier": suites.fourier_suite(trials, seed, ns=(n,), rs=(r,)),
            "partition": suites.partition_suite(trials, seed, ns=(n,), rs=(r,)),
            "reduction": suites.reduction_suite(max(4, trials // 8), seed, ns=(n,)),
            "reach_bound": suites.reach_bound_suite(seed, ns=(n,)),
        }
        calls = []
        for name in ("fourier_suite", "partition_suite"):
            def counted(*args, fn=getattr(suites, name), name=name, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(suites, name, counted)
        code, out, _ = run_cli(capsys, "verify-lemmas", "--n", str(n), "--r", str(r),
                               "--seed", str(seed), "--trials", str(trials))
        assert code == 0
        assert sorted(calls) == ["fourier_suite", "partition_suite"]
        report = {"seed": seed, "trials": trials, "suites": expected,
                  "ok": all(rep["ok"] for rep in expected.values())}
        assert out == json.dumps(report, indent=2) + "\n"

    def test_r_round_trips(self, capsys, monkeypatch):
        """The suites run at the requested --r itself, not at (r / n) * n:
        every one-decimal r in [n/2, 2n] at n = 2..8 comes back unchanged
        in the report's failure entries (27 of them would not through the
        fraction).  Every instance is stubbed to fail, so each entry
        carries its r."""
        monkeypatch.setattr(suites, "_hypothesis_mixture", lambda n, r, words: ([((), 0)], [1.0]))
        monkeypatch.setattr(suites, "_fourier_closeness",
                            lambda n, r, keys, points, weights: FourierCheck(
                                False, 1.0, BoundCheck("closeness", 1.0, 0.0, True), None))
        monkeypatch.setattr(suites, "_mixture_pairs", lambda n, words: ([((), 0)], [1.0]))
        monkeypatch.setattr(suites, "_partition_ids", lambda n, keys, probs, r: ([], [0]))
        monkeypatch.setattr(suites, "reduction_suite", lambda *args, **kwargs: {"ok": True})
        monkeypatch.setattr(suites, "reach_bound_suite", lambda *args, **kwargs: {"ok": True})
        for n in range(2, 9):
            for tenths in range(5 * n, 20 * n + 1):
                text = f"{tenths / 10:.1f}"
                code, out, _ = run_cli(capsys, "verify-lemmas", "--n", str(n), "--r", text,
                                       "--seed", "1", "--trials", "1")
                doc = json.loads(out)
                assert code == 1
                for name in ("fourier", "partition"):
                    assert doc["suites"][name]["failures"][0]["r"] == float(text), (n, text)


class TestTradeoff:
    CAPPED = ("tradeoff", "--n", "5", "--learners", "exhaustive,prefix", "--target", "0.99",
              "--trials", "200", "--m-cap", "20", "--seed", "3")

    def test_capped_rows_get_a_note(self, tmp_path, capsys):
        """A learner that hits --m-cap gets one note line on stderr naming
        it and the cap; the CSV on stdout and in --out is unchanged."""
        code, out, err = run_cli(capsys, *self.CAPPED)
        assert code == 0
        assert out == ("learner,n,memory_bits,m,success,ci_halfwidth,seed\n"
                       "exhaustive,5,9,20,0.110000,0.043578,3\n"
                       "prefix_pivot,5,12,20,0.995000,0.013446,3\n")
        notes = err.splitlines()
        assert len(notes) == 2
        for note, learner in zip(notes, ("exhaustive", "prefix_pivot")):
            assert note.startswith(f"note: {learner} hit --m-cap 20: ")
            assert note.endswith("its row is the probe at m = 20")
        path = tmp_path / "t.csv"
        code, stdout, again = run_cli(capsys, *self.CAPPED, "--out", str(path))
        assert (code, stdout, again) == (0, "", err)
        assert path.read_text() == out

    def test_reached_rows_get_no_note(self, capsys):
        code, out, err = run_cli(capsys, "tradeoff", "--n", "3", "--learners", "gaussian",
                                 "--target", "0.8", "--trials", "200", "--seed", "5")
        assert code == 0 and out.count("\n") == 2 and err == ""


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        cases = [
            ("verify-lemmas", "--n", "3", "--r", "3", "--seed", "11", "--trials", "8"),
            ("tradeoff", "--n", "3", "--learners", "gaussian",
             "--target", "0.8", "--trials", "200", "--seed", "5"),
            ("crypto", "keygen", "--n", "12", "--seed", "31"),
            ("crypto", "attack", "--n", "4", "--memory-bits", "20",
             "--m", "6", "--trials", "200", "--seed", "13"),
            ("bounds", "--n", "7", "--k", "3", "--m", "4"),
        ]
        for idx, case in enumerate(cases):
            out1 = tmp_path / f"a{idx}"
            out2 = tmp_path / f"b{idx}"
            code1, _, _ = run_cli(capsys, *case, "--out", str(out1))
            code2, _, _ = run_cli(capsys, *case, "--out", str(out2))
            assert code1 == code2 == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_emit_report_stable(self, tmp_path):
        report = {"b": 1, "a": [1, 2], "nested": {"z": 0.5}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(report, str(p1))
        emit_report(report, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def _assert_dumps_bytes(path):
    """The file holds json.dumps(doc, indent=2) and a newline, for the
    document doc it reads as."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# test_golden.py's reduce cases: (n, m, width, program seed, r)
GOLDEN_REDUCE_CASES = [(3, 3, 5, 4, 2.5), (4, 2, 6, 4, 3.0), (4, 3, 4, 1, 4.0)]

JSON_SCALARS = st.one_of(
    st.integers(), st.booleans(), st.none(), st.text(), st.floats(),
    st.sampled_from([-0.0, 1e308, float("inf"), float("-inf"), float("nan")]))
JSON_DOCS = st.recursive(
    st.one_of(JSON_SCALARS, st.lists(st.integers()),
              st.lists(st.one_of(st.integers(), st.booleans(), st.none()))),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=12)


class TestReportWriter:
    """emit_report's writer against its oracle, json.dumps(doc, indent=2)."""

    @pytest.mark.parametrize("case", GOLDEN_REDUCE_CASES, ids=str)
    def test_reduce_documents(self, tmp_path, case):
        n, m, width, seed, r = case
        program = random_program(n, m, width, np.random.default_rng(seed))
        src, out, rep = tmp_path / "in.json", tmp_path / "out.json", tmp_path / "report.json"
        src.write_text(json.dumps(to_json_dict(program)))
        assert dispatch(["reduce", "--in", str(src), "--r", repr(r),
                         "--out", str(out), "--report", str(rep)]) == 0
        _assert_dumps_bytes(out)
        _assert_dumps_bytes(rep)

    @pytest.mark.parametrize("args", [
        ("verify-lemmas", "--n", "4", "--r", "3", "--seed", "7", "--trials", "100"),
        ("verify-lemmas", "--n", "6", "--seed", "1"),
        ("bounds", "--n", "100", "--c", "0.04", "--alpha", "0.01"),
        ("crypto", "keygen", "--n", "16", "--seed", "7"),
        ("crypto", "attack", "--n", "6", "--memory-bits", "126", "--m", "18",
         "--trials", "2000", "--seed", "7"),
    ], ids=" ".join)
    def test_readme_documents(self, tmp_path, args):
        """The README's examples of each other command that writes JSON."""
        out = tmp_path / "out.json"
        assert dispatch([*args, "--out", str(out)]) == 0
        _assert_dumps_bytes(out)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(JSON_DOCS)
    def test_any_document(self, doc):
        """Nested str-keyed dicts, lists and tuples of ints, bools, None,
        any str and any float, NaN and the infinities included, with
        empty containers and int lists mixed with bools or None."""
        assert _json_text(doc) == json.dumps(doc, indent=2)

    def test_other_keys_and_subclasses(self):
        """Keys json converts (int, float, bool, None) and subclasses of
        its scalar types, which go through json's C encoder."""
        class Text(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        doc = {1: [True, 2], 1.5: None, False: {}, None: [], float("nan"): (Text("t"),),
               Text("k"): [Count(3), 4], "ratio": Ratio(0.5)}
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()], {(1, 2): 3}, {"a": [1, b"x"]}],
                             ids=["set", "object", "tuple key", "bytes"])
    def test_rejected_types_raise(self, doc):
        """A type json rejects raises TypeError, as json.dumps does."""
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _json_text(doc)


class TestErrorPaths:
    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "crypto", "keygen", "--n", "4", "--seed", "1",
                               "--out", "/nonexistent-dir/key.json")
        assert code == 1 and "error:" in err

    def test_bad_key_hex(self, tmp_path, capsys):
        src = tmp_path / "m.bin"
        src.write_bytes(b"x")
        code, _, err = run_cli(capsys, "crypto", "encrypt", "--key", "ff00",
                               "--n", "4", "--in", str(src),
                               "--out", str(tmp_path / "o"), "--seed", "1")
        assert code == 1 and "error:" in err


# (file token, field, its value or None to leave it out, the error line)
MALFORMED_PROGRAMS = [
    ("SIZECOUNT", "layer_sizes", [1], "need m+1 layer sizes"),
    ("EMPTYLAYER", "layer_sizes", [1, 0], "layers must be non-empty"),
    ("NOLAYERS", "transitions", [], "need transition tables for layers 0..m-1"),
    ("ROWCOUNT", "transitions", [[[0] * 4, [0] * 4]], "layer 0 transition count mismatch"),
    ("INNERLABEL", "leaf_labels", {"1,0": "0|", "0,0": "0|"},
     "non-leaf (0,0) carries an output label"),
    ("NOLABELS", "leaf_labels", None, "program JSON lacks the field 'leaf_labels'"),
    ("FLOATM", "m", 1.5,
     "program JSON field 'm' is malformed: expected an integer, got 1.5"),
    ("LABELBITS", "leaf_labels", {"1,0": "2|"},
     "program JSON field 'leaf_labels' is malformed: not a 0/1 string: '2'"),
    ("LABELBAR", "leaf_labels", {"1,0": "0"},
     "program JSON field 'leaf_labels' is malformed: malformed subspace text: '0'"),
]


def _fuzz_files(tmp_path):
    files = {"MISSING": tmp_path / "missing.json"}
    for name, data in [("EMPTY", b""), ("TEXT", b"not json\n"), ("BINARY", b"\x00\x01\xffgarbage"),
                       ("LIST", b"[1, 2]"),
                       ("SHORTROW", b'{"n": 2, "m": 1, "layer_sizes": [1, 1], '
                                    b'"transitions": [[[0]]], "leaf_labels": {"1,0": "00|"}}'),
                       ("BADLABEL", b'{"n": 2, "m": 1, "layer_sizes": [1, 1], '
                                    b'"transitions": [[[0, 0, 0, 0, 0, 0, 0, 0]]], '
                                    b'"leaf_labels": {"1,0": "0|"}}'),
                       ("SHORTLABEL", b'{"n": 2, "m": 1, "layer_sizes": [1, 1], '
                                      b'"transitions": [[[0, 0, 0, 0, 0, 0, 0, 0]]], '
                                      b'"leaf_labels": {"1,0": "00|1"}}'),
                       ("NZERO", b'{"n": 0, "m": 1, "layer_sizes": [1, 1], '
                                 b'"transitions": [[[0, 0]]], "leaf_labels": {"1,0": "|"}}')]:
        files[name] = tmp_path / name.lower()
        files[name].write_bytes(data)
    # a label at a vertex the program lacks: past a layer's width, past the
    # last layer, past the last (leaf) layer's width, and before layer 0
    for name, m, key in [("LEAFVERTEX", 1, "0,5"), ("LEAFLAYER", 1, "2,0"),
                         ("LEAFPHANTOM", 1, "1,3"), ("LEAFNEG", 0, "-1,0")]:
        doc = {"n": 1, "m": m, "layer_sizes": [1] * (m + 1), "transitions": [[[0] * 4]] * m,
               "leaf_labels": {f"{m},0": "0|", key: "0|"}}
        files[name] = tmp_path / name.lower()
        files[name].write_text(json.dumps(doc))
    # one structural or field defect each in a one-layer n = 1 program
    base = {"n": 1, "m": 1, "layer_sizes": [1, 1], "transitions": [[[0] * 4]],
            "leaf_labels": {"1,0": "0|"}}
    for name, field, value, _ in MALFORMED_PROGRAMS:
        doc = {key: val for key, val in base.items() if key != field}
        if value is not None:
            doc[field] = value
        files[name] = tmp_path / name.lower()
        files[name].write_text(json.dumps(doc))
    program = random_program(2, 1, 2, np.random.default_rng(0))
    files["PROGRAM"] = tmp_path / "program.json"
    files["PROGRAM"].write_text(json.dumps(to_json_dict(program)))
    files["NODIR"] = tmp_path / "no-such-dir" / "out"
    return files


# Malformed invocations of every subcommand: garbage flags and values,
# missing required flags, absent or malformed input files, unwritable
# outputs.  Upper-case tokens name files made by _fuzz_files.
FUZZ_CASES = [
    [],
    ["frobnicate"],
    ["--bogus"],
    ["verify-lemmas"],
    ["verify-lemmas", "--seed", "x"],
    ["verify-lemmas", "--seed", "1", "--bogus"],
    ["verify-lemmas", "--seed", "1", "--format", "xml"],
    ["verify-lemmas", "--seed", "1", "--format", "json"],
    ["verify-lemmas", "--seed", "1", "--n", "3", "--r", "0.5", "--trials", "2"],
    ["verify-lemmas", "--seed", "1", "--n", "3", "--r", "inf", "--trials", "2"],
    ["verify-lemmas", "--seed", "1", "--n", "3", "--r", "nan", "--trials", "2"],
    ["verify-lemmas", "--seed", "1", "--n", "3", "--r", "1000", "--trials", "2"],
    ["verify-lemmas", "--seed", "1", "--n", "2", "--trials", "0"],
    ["verify-lemmas", "--seed", "1", "--n", "2", "--trials", "-3"],
    ["verify-lemmas", "--seed", "1", "--n", "13", "--trials", "1"],
    ["reduce", "--bogus"],
    ["reduce", "--in", "PROGRAM"],
    ["reduce", "--in", "PROGRAM", "--r", "x"],
    ["reduce", "--in", "PROGRAM", "--r", "nan"],
    ["reduce", "--in", "PROGRAM", "--r", "9"],
    ["reduce", "--in", "PROGRAM", "--r", "2", "--out", "NODIR"],
    ["reduce", "--in", "MISSING", "--r", "2"],
    ["reduce", "--in", "EMPTY", "--r", "2"],
    ["reduce", "--in", "TEXT", "--r", "2"],
    ["reduce", "--in", "BINARY", "--r", "2"],
    ["reduce", "--in", "LIST", "--r", "2"],
    ["reduce", "--in", "SHORTROW", "--r", "2"],
    ["reduce", "--in", "BADLABEL", "--r", "2"],
    ["reduce", "--in", "SHORTLABEL", "--r", "2"],
    ["reduce", "--in", "NZERO", "--r", "0"],
    ["reduce", "--in", "LEAFVERTEX", "--r", "1"],
    ["reduce", "--in", "LEAFLAYER", "--r", "1"],
    ["reduce", "--in", "LEAFPHANTOM", "--r", "1"],
    ["reduce", "--in", "LEAFNEG", "--r", "1"],
    ["tradeoff", "--bogus"],
    ["tradeoff", "--n", "x", "--seed", "1"],
    ["tradeoff", "--n", "3", "--seed", "1", "--learners", "nope"],
    ["tradeoff", "--n", "3", "--seed", "1", "--trials", "x"],
    ["bounds"],
    ["bounds", "--n", "4"],
    ["bounds", "--n", "4", "--k", "x", "--m", "2"],
    ["bounds", "--n", "4", "--c", "0.1"],
    ["bounds", "--n", "4", "--c", "nan", "--alpha", "0.1"],
    ["bounds", "--n", "4", "--c", "inf", "--alpha", "0.1"],
    ["bounds", "--n", "4", "--c", "0.1", "--alpha", "1e308"],
    ["bounds", "--n", "5", "--c", "0.5", "--alpha", "-1"],
    ["bounds", "--n", "5", "--c", "-0.01", "--alpha", "0.01"],
    ["bounds", "--n", "-3", "--k", "1", "--m", "2"],
    ["bounds", "--n", "4", "--k", "-1", "--m", "2"],
    ["bounds", "--n", "4", "--k", "1", "--m", "2", "--out", "NODIR"],
    ["bounds", "--n", "6", "--k", "4", "--m", "3", "--c", "0.01", "--alpha", "0.01"],
    ["bounds", "--n", "6", "--alpha", "0.01", "--k", "4", "--m", "3"],
    ["bounds", "--n", "3000000", "--k", "1000014", "--m", "1482910"],
    ["crypto"],
    ["crypto", "nope"],
    ["crypto", "keygen", "--n", "x", "--seed", "1"],
    ["crypto", "keygen", "--n", "-1", "--seed", "1"],
    ["crypto", "keygen", "--n", "8", "--seed", "1", "--out", "NODIR"],
    ["crypto", "encrypt", "--key", "zz", "--n", "8", "--in", "TEXT", "--out", "OUT", "--seed", "1"],
    ["crypto", "encrypt", "--key", "00", "--n", "8", "--in", "MISSING", "--out", "OUT", "--seed", "1"],
    ["crypto", "encrypt", "--key", "00", "--n", "8", "--in", "TEXT", "--out", "NODIR", "--seed", "1"],
    ["crypto", "decrypt", "--key", "00", "--n", "8", "--in", "BINARY", "--out", "OUT"],
    ["crypto", "decrypt", "--key", "00", "--n", "8", "--in", "EMPTY", "--out", "OUT"],
    ["crypto", "decrypt", "--key", "00", "--n", "8", "--in", "TEXT", "--out", "OUT"],
    ["crypto", "decrypt", "--key", "00", "--n", "8", "--in", "MISSING", "--out", "OUT"],
    ["crypto", "attack", "--n", "4"],
    ["crypto", "attack", "--n", "4", "--memory-bits", "-5", "--m", "3", "--seed", "1"],
    ["crypto", "attack", "--n", "4", "--memory-bits", "20", "--m", "3", "--trials", "0", "--seed", "1"],
    ["crypto", "attack", "--n", "4", "--memory-bits", "20", "--m", "3", "--trials", "-2", "--seed", "1"],
    ["crypto", "attack", "--n", "4", "--memory-bits", "20", "--m", "-1", "--seed", "1"],
    ["crypto", "attack", "--n", "0", "--memory-bits", "20", "--m", "3", "--seed", "1"],
    ["crypto", "encrypt", "--key", "00", "--n", "0", "--in", "TEXT", "--out", "OUT", "--seed", "1"],
    ["crypto", "decrypt", "--key", "00", "--n", "-1", "--in", "BINARY", "--out", "OUT"],
    ["tradeoff", "--n", "4", "--trials", "0", "--seed", "1"],
    ["tradeoff", "--n", "4", "--trials", "-5", "--seed", "1"],
    ["tradeoff", "--n", "4", "--m-cap", "0", "--seed", "1"],
]


class TestFuzzGuard:
    @pytest.mark.parametrize("case", FUZZ_CASES, ids=" ".join)
    def test_fails_with_one_error_line(self, tmp_path, capsys, case):
        """Exit 1 (check or input failure) or 2 (usage), never a traceback.

        A failure prints exactly one error line, last; a usage error
        prints argparse's usage lines before it.
        """
        files = _fuzz_files(tmp_path)
        files["OUT"] = tmp_path / "out"
        argv = [str(files.get(token, token)) for token in case]
        code, _, err = run_cli(capsys, *argv)
        lines = err.splitlines()
        assert code in (1, 2)
        assert "Traceback" not in err
        assert err.endswith("\n") and "error:" in lines[-1]
        assert sum("error:" in line for line in lines) == 1
        if code == 1:
            assert len(lines) == 1

    # tradeoff needs n >= 1, verify-lemmas n >= 2 (its reduction suite
    # runs r = n/2 + 1 <= n)
    @pytest.mark.parametrize("case", [
        ["tradeoff", "--n", "-1", "--seed", "1"],
        ["verify-lemmas", "--n", "-2", "--seed", "1", "--trials", "2"],
        ["verify-lemmas", "--n", "1", "--seed", "1", "--trials", "2"],
        ["bounds", "--n", "0", "--c", "0.01", "--alpha", "0.01"],
    ], ids=" ".join)
    def test_n_range_named(self, capsys, case):
        code, _, err = run_cli(capsys, *case)
        assert code == 2
        assert "argument --n: must be at least" in err.splitlines()[-1]

    @pytest.mark.parametrize("case", [
        ["--k", "4", "--m", "3", "--c", "0.01", "--alpha", "0.01"],
        ["--alpha", "0.01", "--k", "4", "--m", "3"],
        ["--k", "4", "--m", "3", "--c", "0.01"],
    ], ids=" ".join)
    def test_bounds_forms_not_mixed(self, capsys, case):
        """A flag of the other form is refused, not ignored."""
        code, out, err = run_cli(capsys, "bounds", "--n", "6", *case)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            "error: bounds needs either --k and --m, or --c and --alpha, not a mix")

    @pytest.mark.parametrize("r", ["inf", "nan", "1000", "1.4"])
    def test_r_range_named(self, capsys, r):
        code, _, err = run_cli(capsys, "verify-lemmas", "--n", "3", "--r", r,
                               "--seed", "1", "--trials", "2")
        assert code == 1
        assert err.splitlines() == [f"error: r must lie in [n/2, 2n] = [1.5, 6], got {float(r)}"]

    def test_n7_fails_fast_on_the_reach_bound_corpus(self, capsys, monkeypatch):
        """At n = 7 the reach-bound suite runs first and its recorder
        programs exceed the default state budget: one error line, exit 1,
        and no Fourier draw."""
        def refuse(*args, **kwargs):
            raise AssertionError("ran the Fourier suite")
        monkeypatch.delenv("PARITYLAB_STATE_BUDGET", raising=False)
        monkeypatch.setattr(suites, "fourier_suite", refuse)
        code, out, err = run_cli(capsys, "verify-lemmas", "--seed", "1", "--n", "7",
                                 "--trials", "1")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: 10923 vertices x 256 edges in layer 2 exceeds the "
                                    "state budget; set PARITYLAB_STATE_BUDGET to override"]

    def test_table_dim_named(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--seed", "1", "--n", "13", "--trials", "1")
        assert code == 1
        assert err.splitlines() == ["error: exact tables support 0 <= n <= 12, got 13"]

    @pytest.mark.parametrize("n", [25, 40])
    def test_table_dim_named_past_subspace_range(self, capsys, monkeypatch, n):
        """Past the subspaces' n <= 24 and the raw draws' 2^32 range the
        table cap is still what stops verify-lemmas, before the Fourier
        suite draws anything."""
        def refuse(*args):
            raise AssertionError("drew a mixture past the table cap")
        monkeypatch.setattr(suites, "_Words", refuse)
        monkeypatch.setattr(suites, "_hypothesis_mixture", refuse)
        code, _, err = run_cli(capsys, "verify-lemmas", "--seed", "1", "--n", str(n),
                               "--trials", "1")
        assert code == 1
        assert err.splitlines() == [f"error: exact tables support 0 <= n <= 12, got {n}"]

    def test_table_cap_before_hyperplane_mass(self, capsys, monkeypatch):
        """Past the n <= 12 cap the Fourier check refuses before it builds
        its 2^(n+1)-entry hyperplane table."""
        def refuse(mix):
            raise AssertionError("hyperplane_mass called past the table cap")
        monkeypatch.setattr(distributions, "hyperplane_mass", refuse)
        code, _, err = run_cli(capsys, "verify-lemmas", "--seed", "2", "--n", "24",
                               "--trials", "1")
        assert code == 1
        assert err.splitlines() == ["error: exact tables support 0 <= n <= 12, got 24"]

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
    def test_memory_error_named(self, capsys, monkeypatch, message):
        """An allocation the machine refuses is one error line, not a
        traceback; a bare MemoryError is named by its type."""
        def refuse(*args):
            raise MemoryError(message)
        monkeypatch.setattr(crypto, "run_attack", refuse)
        code, _, err = run_cli(capsys, "crypto", "attack", "--n", "4", "--memory-bits", "20",
                               "--m", "3", "--trials", "1", "--seed", "1")
        assert code == 1
        assert err.splitlines() == [f"error: {message or 'MemoryError'}"]

    @pytest.mark.parametrize("value", ["abc", "-5"])
    @pytest.mark.parametrize("var,case", [
        ("PARITYLAB_DP_BUDGET", ["reduce", "--in", "PROGRAM", "--r", "2", "--out", "OUT"]),
        ("PARITYLAB_STATE_BUDGET", ["verify-lemmas", "--n", "2", "--seed", "1", "--trials", "2"]),
    ], ids=["dp", "state"])
    def test_bad_budget_named(self, tmp_path, capsys, monkeypatch, var, case, value):
        files = _fuzz_files(tmp_path)
        files["OUT"] = tmp_path / "out"
        monkeypatch.setenv(var, value)
        code, _, err = run_cli(capsys, *[str(files.get(token, token)) for token in case])
        assert code == 1 and "Traceback" not in err
        assert err.splitlines() == [f"error: {var} must be an integer >= 1, got {value!r}"]

    def test_reduce_budget_exceeded(self, tmp_path, capsys, monkeypatch):
        """Layer 0 (one vertex, 2^3 edges) fits a budget of 8; the first
        wider layer stops the reduction with one line, before any output."""
        program = random_program(2, 3, 3, np.random.default_rng(1))
        src, out = tmp_path / "program.json", tmp_path / "out"
        src.write_text(json.dumps(to_json_dict(program)))
        monkeypatch.setenv("PARITYLAB_STATE_BUDGET", "8")
        code, _, err = run_cli(capsys, "reduce", "--in", str(src), "--r", "2", "--out", str(out))
        assert code == 1 and not out.exists()
        [line] = err.splitlines()
        assert line.startswith("error: ") and line.endswith(
            " vertices x 8 edges in layer 1 exceeds the state budget; "
            "set PARITYLAB_STATE_BUDGET to override")

    def test_reduce_dp_budget_exceeded(self, tmp_path, capsys, monkeypatch):
        """The reduced program's validation and DP run under the DP budget:
        over it, reduce stops with one line and writes no output."""
        program = random_program(2, 3, 3, np.random.default_rng(1))
        src, out = tmp_path / "program.json", tmp_path / "out"
        src.write_text(json.dumps(to_json_dict(program)))
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", "8")
        code, _, err = run_cli(capsys, "reduce", "--in", str(src), "--r", "2", "--out", str(out))
        assert code == 1 and not out.exists()
        [line] = err.splitlines()
        assert line.startswith("error: exact DP cost ") and line.endswith(
            " exceeds budget 8; set PARITYLAB_DP_BUDGET to override")

    def test_reduce_dp_budget_stops_early(self, tmp_path, capsys, monkeypatch):
        """Reduced widths 1, 6, 9, 20 at n = 2, m = 3 cost 48, 288, 432 and
        960 DP cells: a budget of 300 (6 vertices) passes layer 1 and stops
        the reduction in the partition round that gives layer 2 its
        seventh vertex (336 cells), before the rest of the layer is built."""
        program = random_program(2, 3, 3, np.random.default_rng(1))
        src, out = tmp_path / "program.json", tmp_path / "out"
        src.write_text(json.dumps(to_json_dict(program)))
        monkeypatch.setenv("PARITYLAB_DP_BUDGET", "300")
        code, _, err = run_cli(capsys, "reduce", "--in", str(src), "--r", "2", "--out", str(out))
        assert code == 1 and not out.exists()
        assert err.splitlines() == [
            "error: exact DP cost 336 exceeds budget 300; set PARITYLAB_DP_BUDGET to override"]

    @pytest.mark.parametrize("case", MALFORMED_PROGRAMS, ids=lambda case: case[0])
    def test_malformed_program_named(self, tmp_path, capsys, case):
        """Each defect of a reduce --in file is one error line naming it."""
        name, *_, message = case
        files = _fuzz_files(tmp_path)
        code, out, err = run_cli(capsys, "reduce", "--in", str(files[name]), "--r", "1")
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_parser_built_once(self):
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["verify-lemmas", "--n", "3", "--seed", "1"]).n == 3
        assert parser.parse_args(["verify-lemmas", "--seed", "1"]).n is None

    def test_readme_commands_parse(self):
        """Every command in README's CLI block parses: the docs and the
        parser name the same subcommands and flags."""
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```\n", 2)[1]
        commands = [line.split("#", 1)[0].split()
                    for line in block.replace("\\\n", " ").splitlines()]
        assert commands
        for words in commands:
            assert words[0] == "paritylab"
            argv = ["0000" if w == "<hex>" else w for w in words[1:]]
            assert build_parser().parse_args(argv).func is not None

    def test_format_flag_gone(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--seed", "1", "--format", "json")
        assert code == 2
        assert "unrecognized arguments: --format json" in err.splitlines()[-1]

    def test_r_needs_n(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--r", "3", "--seed", "1", "--trials", "2")
        assert code == 2
        assert "Traceback" not in err
        assert "error: --r needs --n" in err.splitlines()[-1]

    @pytest.mark.parametrize("sub", ["keygen", "encrypt", "decrypt", "attack"])
    def test_crypto_n_named(self, tmp_path, capsys, sub):
        flags = {"keygen": ["--seed", "1"],
                 "encrypt": ["--key", "00", "--in", "x", "--out", "y", "--seed", "1"],
                 "decrypt": ["--key", "00", "--in", "x", "--out", "y"],
                 "attack": ["--memory-bits", "8", "--m", "2", "--seed", "1"]}[sub]
        code, _, err = run_cli(capsys, "crypto", sub, "--n", "-1", *flags)
        assert code == 2
        assert "argument --n: must be at least 1, got -1" in err.splitlines()[-1]

    @pytest.mark.parametrize("case", [
        ["verify-lemmas", "--n", "2", "--trials", "2"],
        ["tradeoff", "--n", "2"],
        ["crypto", "keygen", "--n", "8"],
        ["crypto", "encrypt", "--n", "8", "--key", "00", "--in", "x", "--out", "y"],
        ["crypto", "attack", "--n", "4", "--memory-bits", "8", "--m", "2"],
    ], ids=" ".join)
    def test_seed_range_named(self, capsys, case):
        code, _, err = run_cli(capsys, *case, "--seed", "-1")
        assert code == 2 and "Traceback" not in err
        assert "argument --seed: must be at least 0, got -1" in err.splitlines()[-1]
