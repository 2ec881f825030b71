import csv
import io
import json
import math

import numpy as np
import pytest

from definetti import suites
from definetti.cli import main
from definetti.operators import ResourceCapError, hermitian, max_side, set_max_side
from definetti.reductions import check_classical_reduction
from definetti.separability import _irrep_blocks
from definetti.serialize import dump_operator

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)


@pytest.fixture()
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    dump_operator(hermitian(np.outer(SINGLET_VEC, SINGLET_VEC), (2, 2)), path)
    return str(path)


def run(tmp_path, *args):
    out = tmp_path / "report.out"
    code = main([*args, "--out", str(out)])
    return code, out.read_bytes()


def test_verify_pinching(tmp_path):
    code, blob = run(tmp_path, "verify-pinching", "--seeds", "10")
    records = json.loads(blob)
    assert code == 0
    assert len(records) == 10
    assert all(r["pass"] for r in records)
    assert all(r["anchor"] == "pinching-cross-term-bound" for r in records)
    assert all(
        set(r) == {"suite", "anchor", "params", "seed", "value", "gap", "bound", "tolerance", "pass"}
        for r in records
    )


def test_verify_definetti_pure_and_mixed(tmp_path):
    code, blob = run(tmp_path, "verify-definetti", "--d", "2", "--n", "2", "--seeds", "100")
    records = json.loads(blob)
    assert code == 0
    assert len(records) == 100
    assert all(r["pass"] for r in records)
    code, blob = run(tmp_path, "verify-definetti", "--d", "2", "--n", "2", "--seeds", "2", "--mixed")
    assert code == 0
    recs = json.loads(blob)
    assert all(r["anchor"] == "mixed-state-constrained-reduction" for r in recs)


def test_verify_definetti_past_the_degree_2n_cap(tmp_path):
    # dense sides 81 (pure) and 1024 (mixed) fit the default cap
    for args in (("--d", "3", "--n", "4", "--seeds", "2"), ("--mixed", "--d", "2", "--n", "5", "--seeds", "1")):
        code, blob = run(tmp_path, "verify-definetti", *args)
        assert code == 0
        assert all(r["pass"] for r in json.loads(blob))


def test_verify_classical(tmp_path):
    code, blob = run(tmp_path, "verify-classical", "--d", "2", "--n", "2")
    assert code == 0
    assert len(json.loads(blob)) == 3


def test_verify_truncated(tmp_path):
    code, blob = run(tmp_path, "verify-truncated", "--seeds", "2", "--config", "2,3,1,1")
    assert code == 0
    recs = json.loads(blob)
    assert len(recs) == 2
    assert all(r["pass"] for r in recs)


def test_verify_truncated_reaches_the_cap_at_d_16(tmp_path):
    # D^m = 16^3 = 4096, the default cap; the check itself works on 46 kept classes
    code, blob = run(tmp_path, "verify-truncated", "--config", "2,16,2,1", "--seeds", "1")
    assert code == 0
    assert all(r["pass"] for r in json.loads(blob))


def test_hsep_and_certificate(tmp_path, singlet_file):
    cert = tmp_path / "cert.json"
    code, blob = run(
        tmp_path, "hsep", "--op", singlet_file, "--restarts", "32", "--certificate-out", str(cert)
    )
    assert code == 0
    rec = json.loads(blob)[0]
    assert abs(rec["value"] - 0.5) < 1e-9
    code, _ = run(tmp_path, "recheck-certificate", str(cert))
    assert code == 0
    # tampering with a weight must be detected
    obj = json.loads(cert.read_text())
    obj["value"] *= 1 - 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _ = run(tmp_path, "recheck-certificate", str(bad))
    assert code == 1
    # malformed certificate is a usage error
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{\"kind\": \"hsep_seesaw\"}")
    code, _ = run(tmp_path, "recheck-certificate", str(ugly))
    assert code == 2


def test_recheck_certificate_rejects_scaled_atom(tmp_path, singlet_file, capsys):
    cert = tmp_path / "cert.json"
    assert main(["hsep", "--op", singlet_file, "--restarts", "4", "--certificate-out", str(cert), "--out", str(tmp_path / "h.json")]) == 0
    obj = json.loads(cert.read_text())
    rec = obj["atoms"][0]
    for part in ("a_re", "a_im"):
        rec[part] = [2.0 * v for v in rec[part]]
    # the value the scaled atom re-evaluates to: 4 * hsep(singlet) = 2
    obj["value"] *= 4.0
    cert.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["recheck-certificate", str(cert), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("definetti: malformed certificate") and err.count("\n") == 1
    assert "unit vector" in err


def test_hsep_interval(tmp_path, singlet_file):
    code, blob = run(tmp_path, "hsep", "--op", singlet_file, "--q-max", "3")
    assert code == 0
    recs = json.loads(blob)
    interval = [r for r in recs if r["anchor"] == "certified-interval"][0]
    assert abs(interval["bound"] - 2 / 3) < 1e-9


def test_qext(tmp_path, singlet_file):
    code, blob = run(tmp_path, "qext", "--op", singlet_file, "--q", "2")
    assert code == 0
    rec = json.loads(blob)[0]
    assert abs(rec["value"] - 0.75) < 1e-9
    # the winning S_2 block: the symmetric one, of side 2 * 3
    assert rec["params"]["irrep"] == [2] and rec["params"]["block_side"] == 6


def test_qext_reaches_q_30(tmp_path, singlet_file):
    # da * db**q would be 2**31; the level side is 2 * 256
    code, blob = run(tmp_path, "qext", "--op", singlet_file, "--q", "30")
    assert code == 0
    rec = json.loads(blob)[0]
    assert abs(rec["value"] - 31 / 60) < 1e-12
    assert rec["params"]["irrep"] == [30] and rec["params"]["block_side"] == 62


def test_qext_past_the_cap_exits_3(tmp_path, singlet_file, capsys):
    # the level side 2 * 2070 = 4140 at q = 89 exceeds the default cap of
    # 4096 (q = 88 fits); it is refused before any level is built
    _irrep_blocks.cache_clear()
    assert main(["qext", "--op", singlet_file, "--q", "89", "--out", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("definetti: ") and err.count("\n") == 1, err
    assert "q-extension level side 4140" in err
    assert _irrep_blocks.cache_info().currsize == 0


def test_value_only_records_have_null_pass(tmp_path, singlet_file):
    code, blob = run(tmp_path, "hsep", "--op", singlet_file, "--q-max", "2")
    assert code == 0
    passes = {r["anchor"]: r["pass"] for r in json.loads(blob)}
    assert passes == {"separability-support-seesaw": None, "certified-interval": True}
    code, blob = run(tmp_path, "qext", "--op", singlet_file, "--q", "2", "--format", "csv")
    assert code == 0
    assert next(csv.DictReader(io.StringIO(blob.decode())))["pass"] == ""
    code, blob = run(
        tmp_path, "repetition-bounds", "--delta", "0.5", "--d", "2", "--qext-val", "0.75", "--q", "2"
    )
    assert code == 0
    recs = json.loads(blob)
    assert len(recs) == 5 and all(r["pass"] is None for r in recs)


def test_side_cap_is_restored_after_main(tmp_path):
    set_max_side(100)
    out = str(tmp_path / "x.json")
    assert main(["verify-definetti", "--seeds", "1", "--max-dim", "64", "--out", out]) == 0
    assert max_side() == 100
    assert main(["verify-definetti", "--d", "4", "--n", "4", "--seeds", "1", "--max-dim", "64"]) == 3
    assert max_side() == 100


def test_repetition_bounds_exact_value(tmp_path):
    code, blob = run(tmp_path, "repetition-bounds", "--delta", "0.5", "--r", "1", "--n", "10")
    assert code == 0
    recs = json.loads(blob)
    power = [r for r in recs if r["anchor"] == "tensor-power-decay-bound"][0]
    assert power["params"]["value_exact"] == "0.59873693923837890625"
    assert abs(power["value"] - 0.95**10) < 1e-15


def test_repetition_bounds_sweep_csv(tmp_path):
    sweep = tmp_path / "sweep.csv"
    code, _ = run(
        tmp_path,
        "repetition-bounds",
        "--delta", "0.5", "--r", "1", "--n", "5", "--qext-val", "0.75", "--q", "2",
        "--sweep-out", str(sweep),
    )
    assert code == 0
    lines = sweep.read_text().splitlines()
    assert lines[0] == "n,bound_name,value,experiment_value"
    assert len(lines) == 1 + 6 * 3  # n in 0..5, three bound curves
    assert any(line.startswith("0,") and ",1.0," in line for line in lines[1:])


def test_repetition_bounds_sweep_names_every_record(tmp_path):
    sweep = tmp_path / "sweep.csv"
    code, blob = run(
        tmp_path,
        "repetition-bounds",
        "--d", "2", "--qext-val", "0.75", "--q", "2", "--n", "3",
        "--sweep-out", str(sweep),
    )
    assert code == 0
    anchors = {r["anchor"] for r in json.loads(blob)}
    rows = sweep.read_text().splitlines()[1:]
    assert {line.split(",")[1] for line in rows} == anchors
    assert len(anchors) == 5 and len(rows) == 4 * len(anchors)


def test_hsep_q_max_zero_means_no_interval(tmp_path, singlet_file, capsys):
    code, blob = run(tmp_path, "hsep", "--op", singlet_file, "--restarts", "2", "--q-max", "0")
    assert code == 0
    assert [r["anchor"] for r in json.loads(blob)] == ["separability-support-seesaw"]
    code, _ = run(tmp_path, "hsep", "--op", singlet_file, "--restarts", "2", "--q-max", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("definetti: ") and "q_max" in err and err.count("\n") == 1, err


def test_hsep_rejects_bad_restarts(tmp_path, singlet_file, capsys):
    for bad in ("0", "-3"):
        code = main(["hsep", "--op", singlet_file, "--restarts", bad, "--out", str(tmp_path / "h.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("definetti: ") and "restarts" in err and err.count("\n") == 1, err


def test_conditioning_demo_cli(tmp_path):
    traj = tmp_path / "traj.csv"
    code, blob = run(
        tmp_path,
        "conditioning-demo",
        "--n",
        "2",
        "--instances",
        "3",
        "--trajectory-out",
        str(traj),
    )
    assert code == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "k,i_k,p_k,surrogate,cmi_chain,bound_k"
    assert len(lines) == 1 + 3 * 2  # header plus two steps per instance


def test_framework_cli(tmp_path):
    code, blob = run(tmp_path, "framework", "--n-exhaustive", "5")
    assert code == 0
    recs = json.loads(blob)
    assert {r["anchor"] for r in recs} == {
        "fidelity-decay-root",
        "threshold-tail-equality",
        "binomial-vs-hoeffding",
    }


def test_csv_format(tmp_path):
    code, blob = run(tmp_path, "verify-pinching", "--seeds", "3", "--format", "csv")
    assert code == 0
    lines = blob.decode().splitlines()
    assert lines[0] == "suite,anchor,seed,value,gap,bound,tolerance,pass,params"
    assert len(lines) == 4


def test_classical_cap_fires_before_any_array_is_built(tmp_path, capsys):
    # the purification of side 4^14 is refused before the suite builds its
    # strings or the check its vector (a 4 GiB array), not by the moment
    assert main(["verify-classical", "--n", "14", "--d", "2", "--out", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err == "definetti: classical purification side 268435456 exceeds the configured cap 4096\n"
    with pytest.raises(ResourceCapError, match="classical purification side 268435456"):
        check_classical_reduction(np.full(2**14, 2.0**-14), 2, 14)


def test_byte_identical_reports(tmp_path):
    for command, *size in (
        ("verify-definetti", "--seeds", "4"),
        ("verify-pinching", "--seeds", "4"),
        ("verify-classical",),
        ("verify-truncated", "--seeds", "2"),
    ):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = main([command, *size, "--seed", "7", "--out", str(out)])
            assert code == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        # a different seed changes the bytes
        out = tmp_path / "c.json"
        main([command, *size, "--seed", "8", "--out", str(out)])
        assert out.read_bytes() != runs[0]


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DEFINETTI_SEED", "21")
    out1 = tmp_path / "env.json"
    assert main(["verify-pinching", "--seeds", "2", "--out", str(out1)]) == 0
    out2 = tmp_path / "flag.json"
    assert main(["verify-pinching", "--seeds", "2", "--seed", "21", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_usage_and_resource_exit_codes(tmp_path, singlet_file, capsys, monkeypatch):
    def one_stderr_line(code):
        err = capsys.readouterr().err
        assert err.startswith("definetti: ") and err.count("\n") == 1, err
        return code

    assert main(["no-such-command"]) == 2
    # the --jobs thread pool is gone; argparse rejects the flag
    assert main(["verify-pinching", "--seeds", "2", "--jobs", "2"]) == 2
    capsys.readouterr()
    code = main(
        ["verify-definetti", "--d", "4", "--n", "4", "--seeds", "1", "--max-dim", "64", "--out", str(tmp_path / "x.json")]
    )
    assert one_stderr_line(code) == 3
    # malformed inputs map to the usage exit code, not a traceback
    assert one_stderr_line(main(["hsep", "--op", str(tmp_path / "missing.json")])) == 2
    assert one_stderr_line(main(["hsep", "--op", singlet_file, "--cut", "not-a-cut"])) == 2
    out = str(tmp_path / "t.json")
    assert one_stderr_line(main(["qext", "--op", singlet_file, "--q", "0"])) == 2
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"dims": [2], "re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    assert one_stderr_line(main(["hsep", "--op", str(skew), "--out", out])) == 2
    assert one_stderr_line(main(["verify-pinching", "--seeds", "2", "--max-dim", "0", "--out", out])) == 2
    assert one_stderr_line(main(["verify-truncated", "--config", "2,3,1", "--out", out])) == 2
    # degenerate sizes are usage errors, not failed checks or tracebacks
    assert one_stderr_line(main(["verify-definetti", "--d", "0", "--out", out])) == 2
    assert one_stderr_line(main(["verify-definetti", "--mixed", "--d", "0", "--out", out])) == 2
    assert one_stderr_line(main(["verify-classical", "--d", "0", "--out", out])) == 2
    assert one_stderr_line(main(["verify-classical", "--n", "0", "--out", out])) == 2
    assert one_stderr_line(main(["verify-truncated", "--config", "2,3,1,-1", "--out", out])) == 2
    assert one_stderr_line(main(["verify-truncated", "--config", "2,3,0,1", "--out", out])) == 2
    assert main(["verify-pinching", "--d-max", "1", "--out", out]) == 2
    assert capsys.readouterr().err == "definetti: need d_max >= 2, got 1\n"
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{\"kind\": \"hsep_seesaw\"}")
    assert one_stderr_line(main(["recheck-certificate", str(ugly)])) == 2
    # a non-integer DEFINETTI_SEED is a usage error, not seed 0
    monkeypatch.setenv("DEFINETTI_SEED", "abc")
    assert one_stderr_line(main(["verify-pinching", "--seeds", "2", "--out", out])) == 2
    monkeypatch.delenv("DEFINETTI_SEED")
    # failed checks (a tampered certificate) also say so on stderr
    cert = tmp_path / "cert.json"
    assert main(["hsep", "--op", singlet_file, "--restarts", "4", "--certificate-out", str(cert), "--out", out]) == 0
    obj = json.loads(cert.read_text())
    obj["value"] *= 1 - 1e-3
    cert.write_text(json.dumps(obj))
    capsys.readouterr()
    assert one_stderr_line(main(["recheck-certificate", str(cert), "--out", out])) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_operators_and_certificates_are_usage_errors(tmp_path, singlet_file, capsys, bad):
    # json writes these as NaN and Infinity, which a norm or unit-vector test
    # alone lets through: nan > tol is false
    def one_stderr_line(code):
        err = capsys.readouterr().err
        assert err.startswith("definetti: ") and err.count("\n") == 1, err
        return code

    out = str(tmp_path / "r.json")
    op = tmp_path / "bad.json"
    op.write_text(json.dumps({"dims": [2], "re": [[1.0, 0.0], [0.0, bad]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    assert one_stderr_line(main(["hsep", "--op", str(op), "--out", out])) == 2
    cert = tmp_path / "cert.json"
    assert main(["hsep", "--op", singlet_file, "--restarts", "4", "--certificate-out", str(cert), "--out", out]) == 0
    capsys.readouterr()
    obj = json.loads(cert.read_text())
    # one entry of the operator, of each atom vector and of the weights in turn
    for row in (obj["operator"]["im"][1], obj["atoms"][0]["a_re"], obj["atoms"][0]["b_im"], obj["weights"]):
        row[0], kept = bad, row[0]
        cert.write_text(json.dumps(obj))
        assert one_stderr_line(main(["recheck-certificate", str(cert), "--out", out])) == 2
        row[0] = kept


def test_re_and_im_blocks_of_different_shapes_are_usage_errors(tmp_path, singlet_file, capsys):
    # re + 1j * im would broadcast a one-entry imaginary block over a whole atom
    out = str(tmp_path / "r.json")
    op = tmp_path / "short.json"
    op.write_text(json.dumps({"dims": [2], "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0]]}))
    cert = tmp_path / "cert.json"
    assert main(["hsep", "--op", singlet_file, "--restarts", "4", "--certificate-out", str(cert), "--out", out]) == 0
    obj = json.loads(cert.read_text())
    for atom in obj["atoms"]:
        atom.update(a_re=[1.0, 0.0], a_im=[0.0], b_re=[0.0, 1.0], b_im=[0.0])
    cert.write_text(json.dumps(obj))
    capsys.readouterr()
    for argv in (["hsep", "--op", str(op)], ["recheck-certificate", str(cert)]):
        assert main([*argv, "--out", out]) == 2
        assert "re and im blocks have different shapes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-pinching", "verify-definetti", "verify-truncated"])
@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_empty_seed_counts_are_usage_errors(tmp_path, capsys, command, seeds):
    # an empty run is not a pass: like --d-max 1, it exits 2 with one stderr line
    out = tmp_path / "report.json"
    assert main([command, "--seeds", seeds, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"definetti: need seeds >= 1, got {seeds}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (["conditioning-demo", "--instances", "0"], "instances"),
        (["conditioning-demo", "--instances", "-2"], "instances"),
        (["framework", "--n-exhaustive", "0"], "n_exhaustive"),
        (["framework", "--n-exhaustive", "-1"], "n_exhaustive"),
    ],
)
def test_empty_instance_counts_are_usage_errors(tmp_path, capsys, args, name):
    # a loop that checks nothing is not a pass
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"definetti: need {name} >= 1, got {args[-1]}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "given, message",
    [
        ({"h_qext_val": 0.6}, "the qext-decay bound needs both h_qext_val and q"),
        ({"q": 2}, "the qext-decay bound needs both h_qext_val and q"),
        ({"h_qext_val": 0.6, "q": 0}, "need q >= 1, got 0"),
        ({"d": 0}, "need d >= 1, got 0"),
        ({"d": -2, "h_qext_val": 0.6, "q": 2}, "need d >= 1, got -2"),
    ],
)
def test_dropped_repetition_bounds_are_usage_errors(tmp_path, capsys, given, message):
    # a requested bound is reported or refused, never dropped
    flags = {"h_qext_val": "--qext-val", "q": "--q", "d": "--d"}
    out, sweep = tmp_path / "report.json", tmp_path / "sweep.csv"
    argv = [arg for key, value in given.items() for arg in (flags[key], str(value))]
    assert main(["repetition-bounds", *argv, "--sweep-out", str(sweep), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"definetti: {message}\n"
    assert not out.exists() and not sweep.exists()
    with pytest.raises(ValueError, match=message):
        suites.repetition_bounds_records(**given)
    with pytest.raises(ValueError, match=message):
        suites.bound_sweep_rows(0.5, 1, 3, **given)
